"""Command-line interface.

One binary, six subcommands: ``analyze`` (run a procedure on a p-value
CSV), ``adjust`` (emit an adjusted p-value table), ``simulate`` (run a
scenario file), ``power`` (closed-form two-stage power), and
``calibrate-oracle`` / ``probe-selection`` utilities.

Exit codes: 0 success, 1 usage error, 2 data error, 3 applicability
error, 4 I/O error, 5 internal error (a bug; its traceback goes to
stderr). A refused flag exits 1, a refused value in a file exits 2.
Diagnostics go to stderr; with ``--quiet`` nothing but data is written
to stdout.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

if __name__ == "__main__":  # above the numpy import: the entry sets the thread count first
    from . import _main

    sys.exit(_main())

import numpy as np

from . import adjust as adjust_mod
from . import dataio, procedures, selection, sim
from .errors import ApplicabilityError, DataError, ParameterError
from .params import check_count

EXIT_OK = 0
EXIT_INTERNAL = 5  # any exception not in _EXITS: a bug

# the exit code and message prefix of each error class; a ParameterError
# is also a DataError, so it comes first
_EXITS = (
    (ParameterError, 1, "usage error"),
    (DataError, 2, "data error"),
    (ApplicabilityError, 3, "applicability error"),
    (OSError, 4, "i/o error"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="replicability", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run a replicability procedure on a CSV")
    analyze.add_argument("--input", required=True)
    analyze.add_argument("--mode", choices=("fdr", "fwer"), default="fdr")
    for key in ("q1", "q", "alpha1", "alpha", "dependence", "t", "selection", "method"):
        analyze.add_argument(f"--{key}")  # parsed as the scenario key by dataio._read_keys
    analyze.set_defaults(selection="followup")
    analyze.add_argument("--out", default=".")
    analyze.add_argument("--quiet", action="store_true")

    adj = sub.add_parser("adjust", help="emit a ranked adjusted p-value table")
    adj.add_argument("--input", required=True)
    adj.add_argument("--c", type=float, required=True)
    adj.add_argument("--flavor", choices=("bonferroni", "fdr"), default="fdr")
    adj.add_argument("--dependence", default="independent")
    adj.add_argument("--t", type=float)
    adj.add_argument("--q", type=float)
    adj.add_argument("--out", default="adjusted.csv")
    adj.add_argument("--full-precision", action="store_true")

    simulate = sub.add_parser("simulate", help="run a scenario file")
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--out")
    simulate.add_argument("--workers", type=int, default=1)

    power = sub.add_parser("power", help="closed-form two-stage power")
    power.add_argument("--mu11", type=float, required=True)
    power.add_argument("--mu21", type=float, required=True)
    power.add_argument("--m", type=int, required=True)
    power.add_argument("--alpha1", type=float)
    power.add_argument("--alpha", type=float, required=True)
    power.add_argument("--grid-c", metavar="LO:HI:N", help="sweep c over a grid")
    power.add_argument("--out")

    oracle = sub.add_parser("calibrate-oracle", help="solve the oracle level q'")
    oracle.add_argument("--f00", type=float, required=True)
    oracle.add_argument("--f01", type=float, required=True)
    oracle.add_argument("--q", type=float, required=True)
    oracle.add_argument("--w1", type=float, default=1.0)
    oracle.add_argument("--input", help="also run the calibrated procedure")
    oracle.add_argument("--selection")
    oracle.add_argument("--out")
    oracle.add_argument("--quiet", action="store_true")

    probe = sub.add_parser("probe-selection", help="stress a selection rule's validity")
    probe.add_argument("--input", required=True)
    probe.add_argument("--selection", required=True)
    probe.add_argument("--grid-size", type=int, default=16)
    probe.add_argument("--seed", type=int, default=0)
    return parser


def _levels(args) -> dict:
    """The :class:`procedures.Procedure` fields that the flags of ``analyze``
    set, read as the scenario keys of the same names: a flag that ``--mode``
    does not read is refused, and so is a level given under both spellings."""
    given = dataio._read_keys(vars(args), args.mode, prefix="--")
    if "q1" not in given or "q" not in given:
        raise ParameterError(f"{args.mode} mode needs --q1 (or --alpha1) and --q (or --alpha)")
    return given


def _write_report(out: str, quiet: bool, data, report, params: dict) -> None:
    """discoveries.csv and summary.txt under ``out``, and unless ``quiet``
    the rejection count on stdout."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_discoveries_csv(data, report, out / "discoveries.csv")
    (out / "summary.txt").write_text(dataio.summary_text(report, data, params), encoding="utf-8")
    if not quiet:
        print(f"{report.procedure}: rejected {report.r2} of R1={report.r1}")


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout without one."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    procedure = procedures.Procedure(kind=args.mode, **_levels(args))
    data = dataio.parse_pvalue_csv(args.input)
    report = procedure.run(data)
    _write_report(args.out, args.quiet, data, report, procedure.settings())
    if not args.quiet:
        for rid in report.rejected_ids:
            print(f"  {rid}")
    return EXIT_OK


def _cmd_adjust(args) -> int:
    mode = dataio.parse_dependence(args.dependence)
    adjust_mod._check_arguments(args.c, args.flavor, mode, args.t, args.q)
    data = dataio.parse_pvalue_csv(args.input)
    table = adjust_mod.build_adjusted_table(
        data, c=args.c, flavor=args.flavor, mode=mode, t=args.t, q=args.q
    )
    dataio.write_adjusted_csv(table, args.out, full=args.full_precision)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    check_count("--workers", args.workers, 1)
    parsed = dataio.parse_scenario_file(args.scenario)
    if parsed.sweep_axis is not None:
        rows = sim.sweep(
            parsed.scenario, parsed.sweep_axis, parsed.sweep_grid, workers=args.workers
        )
    else:
        rows = [(0.0, sim.run_scenario(parsed.scenario, workers=args.workers))]
    _emit(dataio.sim_csv_text(rows), args.out)
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        if int(n) >= 1:
            return np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        pass
    raise ParameterError(f"bad grid spec {spec!r}; expected LO:HI:N with N >= 1")


def _cmd_power(args) -> int:
    if args.grid_c:
        if args.alpha1 is not None:
            raise ParameterError("--alpha1 is not read with --grid-c, which sets it to c * alpha")
        grid = _parse_grid(args.grid_c)
        power = [
            sim.analytic_power_two_stage(args.mu11, args.mu21, args.m, c * args.alpha, args.alpha)
            for c in grid
        ]
        _emit(dataio.csv_text("c,power", [grid, [f"{v:.6g}" for v in power]]), args.out)
        return EXIT_OK
    if args.out is not None:
        raise ParameterError("--out is read only with --grid-c")
    pi1 = sim.analytic_power_bonf_max(args.mu11, args.mu21, args.m, args.alpha)
    print(f"pi1 = {pi1:.6g}")
    if args.alpha1 is not None:
        pi2 = sim.analytic_power_two_stage(
            args.mu11, args.mu21, args.m, args.alpha1, args.alpha
        )
        print(f"pi2 = {pi2:.6g}")
    return EXIT_OK


def _cmd_calibrate_oracle(args) -> int:
    if not args.input:
        for flag in ("selection", "out", "quiet"):
            if getattr(args, flag) not in (None, False):
                raise ParameterError(f"--{flag} is read only with --input")
    rule = dataio.parse_rule_spec("followup" if args.selection is None else args.selection)
    procedure = procedures.Procedure(kind="oracle", q=args.q, w1=args.w1, selection=rule)
    qp, _ = procedure.levels((args.f00, args.f01))  # refuses a level pair no run accepts
    print(f"q_prime = {qp:.6g}")
    if args.input:
        data = dataio.parse_pvalue_csv(args.input)
        report = procedure.run(data, (args.f00, args.f01))
        params = {"f00": args.f00, "f01": args.f01, "q": args.q, "w1": args.w1}
        _write_report(args.out or ".", args.quiet, data, report, params)
    return EXIT_OK


def _cmd_probe_selection(args) -> int:
    rule = dataio.parse_rule_spec(args.selection)
    selection._check_probe(rule, args.grid_size, args.seed)
    data = dataio.parse_pvalue_csv(args.input)
    report = selection.probe_validity(rule, data, args.grid_size, args.seed)
    print(
        f"rule={report.rule_kind} probed={report.probed} "
        f"counterexamples={len(report.counterexamples)}"
    )
    for ce in report.counterexamples[:10]:
        print(
            f"  {ce.perturbed_id} -> p1={ce.replacement_p1:g} changes the "
            f"selection ({len(ce.selection_before)} -> {len(ce.selection_after)} ids)"
        )
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "adjust": _cmd_adjust,
    "simulate": _cmd_simulate,
    "power": _cmd_power,
    "calibrate-oracle": _cmd_calibrate_oracle,
    "probe-selection": _cmd_probe_selection,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except Exception as exc:
        for error, code, prefix in _EXITS:
            if isinstance(exc, error):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        traceback.print_exc()
        print("internal error: this is a bug in replicability", file=sys.stderr)
        return EXIT_INTERNAL
