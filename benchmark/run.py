"""Benchmark of the replicability CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload gwas-followup-1m --seed 1 --seconds 20 --trace 0

``--trace 0`` drives the CLI from ``src/`` as a closed loop, one
subprocess at a time, for ``--seconds`` of measured time, and prints the
end-to-end metrics. ``--trace 1`` runs every workload's CLI command
in-process under the span recorder, then the given workload's command again
without it, and prints the per-layer metrics. ``--workload all`` runs every
workload in turn. Inputs are generated from ``--seed``, and every output is
checked against a reference the benchmark computes itself. The last line
printed is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Generated inputs and outputs go to ``.bench_work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import workloads
from tracing import SpanRecorder, duration
from workloads import ADJUST, GRID, GWAS, WIDE, Sizes

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5
CALL_TIMEOUT_S = 120.0
PROBE_REPS_PAPER = 50  # generate_rep and fdr_two_stage calls at m = 1000
PROBE_REPS_WIDE = 3  # generate_rep calls at m = 1e5

END_TO_END_UNITS = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Launcher:
    """Client of ``launcher.py``, which spawns every child process."""

    def __init__(self, env: dict, log_dir: Path):
        self.env = env
        self.out = str(log_dir / "child.out")
        self.err = str(log_dir / "child.err")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, python_args: list[str]) -> dict:
        request = {
            "argv": [sys.executable, *python_args], "env": self.env,
            "stdout": self.out, "stderr": self.err, "timeout_s": CALL_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        return json.loads(line)

    def stderr_tail(self) -> str:
        return Path(self.err).read_text(encoding="utf-8", errors="replace")[-2000:]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def _warn(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def measure(wl: workloads.Workload, launcher: Launcher, seconds: float, corrupt=None) -> dict:
    """Closed-loop CLI iterations until ``seconds`` of measured time would
    be exceeded (at least one). Between iterations, a fresh import is timed
    for ``setup_s``, topped up to SETUP_SAMPLES at the end; spread over the
    run, these samples see the same drift in machine speed as the
    iterations. ``corrupt(call)``, for the self-test, damages a call's
    output before it is checked."""

    def import_seconds() -> float:
        r = launcher.run(["-c", "import replicability.cli"])
        if r["exit"] != 0:
            raise RuntimeError(f"importing the package failed:\n{launcher.stderr_tail()}")
        return r["wall_s"]

    setup, walls, cpus, peak_kb = [], [], [], 0
    attempted = failed = 0
    while True:
        setup.append(import_seconds())
        wall = cpu = 0.0
        for call in wl.calls:
            _remove(call.output)
            r = launcher.run(["-m", "replicability.cli", *call.args])
            attempted += 1
            wall += r["wall_s"]
            cpu += r["cpu_s"]
            peak_kb = max(peak_kb, r["maxrss_kb"])
            if r["exit"] != 0:
                problems = [f"exit code {r['exit']}: {launcher.stderr_tail()}"]
            else:
                if corrupt is not None:
                    corrupt(call)
                problems = call.check()
            if problems:
                failed += 1
                _warn(f"{wl.name}: {call.args[0]} failed its check: {problems}")
        walls.append(wall)
        cpus.append(cpu)
        if sum(walls) + wall > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_seconds())
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": wall_s,
        "rows_per_s": wl.rows / wall_s,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setup),
    }
    lines = [
        f"{wl.name}: {len(walls)} iterations of {len(wl.calls)} CLI call(s), "
        f"closed loop, one client",
        f"  wall_s       {wall_s:.4f} s (median; min {min(walls):.4f}, max {max(walls):.4f})",
        f"  rows_per_s   {metrics['rows_per_s']:.1f} rows/s ({wl.rows} rows per iteration)",
    ]
    if wl.reps:
        lines.append(f"  reps_per_s   {wl.reps / wall_s:.1f} reps/s ({wl.reps} reps per iteration)")
    lines += [
        f"  cpu_s        {metrics['cpu_s']:.4f} s (median, children's user+sys)",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB (largest child)",
        f"  setup_s      {metrics['setup_s']:.4f} s (median of {len(setup)} fresh imports)",
        f"  error_rate   {failed / attempted:.4f} ({failed} of {attempted} calls)",
    ]
    return {
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "attempted": attempted, "failed": failed, "lines": lines,
    }


def import_package():
    """The package from this checkout's ``src/``, never an installed one."""
    sys.path.insert(0, str(SRC))
    names = ("cli", "dataio", "data", "selection", "numeric", "procedures", "adjust", "sim")
    mods = {n: importlib.import_module(f"replicability.{n}") for n in names}
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported the package from {where}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def _targets(pkg):
    """Public functions wrapped in spans: (owner, attribute, span name,
    counts, keep the result)."""
    dataio, sim = pkg.dataio, pkg.sim

    def adjusted_counts(result, table, path, *args, **kwargs):
        return {"rows_written": len(table.rows), "bytes_written": os.path.getsize(path)}

    def run_counts(result, scenario, workers=1, *args, **kwargs):
        return {"reps": result.reps, "workers": workers}

    return [
        (dataio, "parse_pvalue_csv", "dataio.parse_pvalue_csv",
         lambda r, *a, **k: {"rows": len(r.records)}, True),
        (dataio, "parse_scenario_file", "dataio.parse_scenario_file", None, False),
        (dataio, "write_discoveries_csv", "dataio.write_discoveries_csv", None, False),
        (dataio, "write_adjusted_csv", "dataio.write_adjusted_csv", adjusted_counts, False),
        (dataio, "summary_text", "dataio.summary_text", None, False),
        (dataio, "sim_csv_text", "dataio.sim_csv_text", None, False),
        (pkg.data.StudyPairData, "p1_array", "data.p1_array", None, False),
        (pkg.data.StudyPairData, "ids", "data.ids", None, False),
        (pkg.selection, "select", "selection.select",
         lambda r, *a, **k: {"selected": len(r)}, False),
        (pkg.procedures, "fdr_two_stage", "procedures.fdr_two_stage",
         lambda r, *a, **k: {"r1": r.r1, "r2": r.r2}, False),
        (pkg.procedures, "fdr_symmetric", "procedures.fdr_symmetric", None, False),
        (pkg.adjust, "build_adjusted_table", "adjust.build_adjusted_table", None, False),
        (sim, "sweep", "sim.sweep", None, False),
        (sim, "run_scenario", "sim.run_scenario", run_counts, False),
        (sim, "generate_rep", "sim.generate_rep", None, False),
    ]


class TracedChecks:
    """Runs CLI calls in-process and counts their output checks."""

    def __init__(self, pkg, corrupt=None):
        self.pkg, self.corrupt = pkg, corrupt
        self.attempted = self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            _warn(f"{label} failed its check: {problems}")

    def run_cli(self, call: workloads.Call) -> float:
        """Wall seconds of ``cli.main`` on the call; checked afterwards."""
        _remove(call.output)
        start = time.perf_counter()
        code = self.pkg.cli.main(call.args)
        wall = time.perf_counter() - start
        if code == 0 and self.corrupt is not None:
            self.corrupt(call)
        self.record(call.args[0], [f"exit code {code}"] if code else call.check())
        return wall


def _probe_gwas(rec: SpanRecorder, pkg) -> None:
    data = rec.kept["dataio.parse_pvalue_csv"]
    data.p1_array()
    data.ids  # a property: rebuilds the id tuple
    pkg.selection.select(pkg.selection.SelectionRule.followed_up(), data)


def _probe_paper(rec: SpanRecorder, pkg, wl: workloads.Workload) -> None:
    # mu = 2.0 at c = 0.5, the middle of the paper's grid
    scenario = pkg.dataio.parse_scenario_file(wl.scenarios[1]).scenario
    with rec.span("batch.generate_rep", reps=PROBE_REPS_PAPER):
        for rep in range(PROBE_REPS_PAPER):
            data, _ = pkg.sim.generate_rep(scenario, rep)
    proc = scenario.procedure
    rule = pkg.selection.SelectionRule.bh_at_level(proc.q1)
    with rec.span("batch.fdr_two_stage", reps=PROBE_REPS_PAPER):
        for _ in range(PROBE_REPS_PAPER):
            pkg.procedures.fdr_two_stage(data, rule, proc.q1, proc.q)


def _probe_wide(rec: SpanRecorder, pkg, wl: workloads.Workload, checks: TracedChecks) -> None:
    w2 = wl.calls[0]
    w1 = workloads.Call(
        workloads.simulate_args(wl.scenarios[0], w2.output.with_name("wide-w1.csv"), 1),
        w2.output.with_name("wide-w1.csv"), w2.check,
    )
    with rec.span("cli.main"):
        checks.run_cli(w1)
    same = w1.output.read_bytes() == w2.output.read_bytes()
    checks.record("simulate --workers 1 vs 2", [] if same else ["1-worker and 2-worker CSVs differ"])
    scenario = pkg.dataio.parse_scenario_file(wl.scenarios[0]).scenario
    with rec.span("batch.generate_rep", reps=PROBE_REPS_WIDE):
        for rep in range(PROBE_REPS_WIDE):
            data, _ = pkg.sim.generate_rep(scenario, rep)
    proc = scenario.procedure
    rule = pkg.selection.SelectionRule.bh_at_level
    with rec.span("batch.fdr_symmetric", reps=1):
        pkg.procedures.fdr_symmetric(
            data, rule(proc.w1 * proc.q1), proc.w1, proc.q1, proc.q,
            rule_reverse=rule((1.0 - proc.w1) * proc.q1),
        )


def traced(name: str, work: Path, seed: int, sizes: Sizes, corrupt=None) -> dict:
    """Every workload's CLI calls in-process under the span recorder, with
    per-layer probes; then ``name``'s calls again untraced."""
    pkg = import_package()
    wls = {n: workloads.PREPARE[n](work, seed, sizes) for n in workloads.NAMES}
    rec = SpanRecorder()
    checks = TracedChecks(pkg, corrupt)
    # First call in the process, before any procedure: the cold cost.
    with rec.span("numeric.harmonic", part="cold"):
        pkg.numeric.harmonic(sizes.csv_rows)
    with rec.instrument(_targets(pkg)):
        for wl in wls.values():
            with rec.span("workload", part=wl.name):
                for call in wl.calls:
                    with rec.span("cli.main"):
                        checks.run_cli(call)
            with rec.span("probe", part=wl.name):
                if wl.name == GWAS:
                    _probe_gwas(rec, pkg)
                elif wl.name == GRID:
                    _probe_paper(rec, pkg, wl)
                elif wl.name == WIDE:
                    _probe_wide(rec, pkg, wl, checks)
            rec.kept.clear()
    untraced = sum(checks.run_cli(call) for call in wls[name].calls)
    spans_path = WORK / f"spans-{name}-{seed}.json"
    rec.write(spans_path)
    lines = [
        f"{name}: traced run over every workload, {len(rec.spans)} spans in {spans_path}",
        f"  {name} CLI calls in-process: traced {_traced_cli(rec, name):.4f} s, "
        f"untraced {untraced:.4f} s",
    ]
    return {
        "metrics": layer_metrics(rec, name, untraced),
        "attempted": checks.attempted, "failed": checks.failed, "lines": lines,
    }


def _traced_cli(rec: SpanRecorder, part: str) -> float:
    return sum(duration(s) for s in rec.find("cli.main", part, parent="workload"))


def layer_metrics(rec: SpanRecorder, name: str, untraced: float) -> dict:
    def seconds(span_name, part, parent=None) -> float:
        return duration(rec.one(span_name, part, parent))

    def per_rep(part, batch) -> float:
        span = rec.one(batch, part)
        return duration(span) / span["reps"]

    def rate(span) -> float:
        return span["reps"] / duration(span)

    grid_rates = [rate(s) for s in rec.find("sim.run_scenario", GRID)]
    wide_runs = {s["workers"]: s for s in rec.find("sim.run_scenario", WIDE)}
    w1, w2 = wide_runs[1], wide_runs[2]
    fdr = rec.one("procedures.fdr_two_stage", GWAS)
    written = rec.one("dataio.write_adjusted_csv", ADJUST)
    select = rec.one("selection.select", GWAS, "probe")
    return {
        "numeric.harmonic.s": (seconds("numeric.harmonic", "cold"), "s"),
        "dataio.parse_pvalue_csv.s": (seconds("dataio.parse_pvalue_csv", GWAS), "s"),
        "dataio.parse_pvalue_csv.full.s": (seconds("dataio.parse_pvalue_csv", ADJUST), "s"),
        "dataio.rows_parsed": (sum(s["rows"] for s in rec.find("dataio.parse_pvalue_csv")), "count"),
        "data.p1_array.s": (seconds("data.p1_array", GWAS, "probe"), "s"),
        "data.ids.s": (seconds("data.ids", GWAS, "probe"), "s"),
        "selection.select.s": (duration(select), "s"),
        "selection.selected": (select["selected"], "count"),
        "procedures.fdr_two_stage.s": (duration(fdr), "s"),
        "procedures.r1": (fdr["r1"], "count"),
        "procedures.r2": (fdr["r2"], "count"),
        "dataio.write_discoveries_csv.s": (seconds("dataio.write_discoveries_csv", GWAS), "s"),
        "adjust.build_adjusted_table.s": (seconds("adjust.build_adjusted_table", ADJUST), "s"),
        "dataio.write_adjusted_csv.s": (duration(written), "s"),
        "dataio.rows_written": (written["rows_written"], "count"),
        "dataio.bytes_written": (written["bytes_written"], "bytes"),
        "sim.generate_rep.rep_s.m1000": (per_rep(GRID, "batch.generate_rep"), "s/rep"),
        "sim.generate_rep.rep_s.m100000": (per_rep(WIDE, "batch.generate_rep"), "s/rep"),
        "procedures.fdr_two_stage.rep_s": (per_rep(GRID, "batch.fdr_two_stage"), "s/rep"),
        "procedures.fdr_symmetric.rep_s": (per_rep(WIDE, "batch.fdr_symmetric"), "s/rep"),
        "sim.run_scenario.reps_per_s": (statistics.median(grid_rates), "reps/s"),
        "sim.run_scenario.reps_per_s.w1": (rate(w1), "reps/s"),
        "sim.run_scenario.reps_per_s.w2": (rate(w2), "reps/s"),
        "sim.parallel_efficiency": (duration(w1) / (2.0 * duration(w2)), "ratio"),
        "cli.main.s": (untraced, "s"),
        "trace.overhead_s": (_traced_cli(rec, name) - untraced, "s"),
        "trace.spans": (len(rec.spans), "count"),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(),
            corrupt=None) -> dict:
    """Generate the inputs, run the workload, remove the inputs."""
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if trace:
            return traced(name, work, seed, sizes, corrupt)
        wl = workloads.PREPARE[name](work, seed, sizes)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        launcher = Launcher(env, work)
        try:
            return measure(wl, launcher, seconds, corrupt)
        finally:
            launcher.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_json(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "replicability" / "cli.py").is_file():
        print(f"no package source at {SRC / 'replicability'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(result["lines"]))
        print(result_json(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
