"""Self-test of the benchmark at a tiny input size.

Run from the root of a checkout:

    python3 benchmark/selftest.py

It checks that every metric ``BENCHMARK.json`` names is printed with its
unit, by the untraced run of each workload and by the traced run, and that
a deliberately damaged output is counted as a failure (``failed`` and the
printed error rate) instead of passing. Exits 1 if any of this does not hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads
from workloads import ADJUST, GRID, GWAS, WIDE

TINY = workloads.Sizes(csv_rows=20_000, wide_m=10_000, wide_reps=20)
SEED = 1


def _edit_line(path: Path, edit) -> None:
    """Replace the first data row of a CSV by ``edit(fields)``."""
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = ",".join(edit(lines[1].split(",")))
    path.write_text("\n".join(lines), encoding="utf-8")


def flip_rejected(call: workloads.Call) -> None:
    def flip(f):
        return f[:-1] + ["0" if f[-1] == "1" else "1"]

    _edit_line(call.output / "discoveries.csv", flip)


def raise_adjusted(call: workloads.Call) -> None:
    _edit_line(call.output, lambda f: f[:4] + ["0.9999"] + f[5:])


def raise_fdp(call: workloads.Call) -> None:
    _edit_line(call.output, lambda f: f[:1] + ["0.9"] + f[2:])


def flip_analyze(call: workloads.Call) -> None:
    """The traced run checks every workload's calls; damage only analyze's."""
    if call.args[0] == "analyze":
        flip_rejected(call)


CORRUPTIONS = {GWAS: flip_rejected, ADJUST: raise_adjusted, GRID: raise_fdp, WIDE: raise_fdp}


def _printed(result: dict) -> tuple[dict, str]:
    return json.loads(run.result_json(result)), "\n".join(result["lines"])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message, flush=True)
        if not ok:
            failures.append(message)

    def expect_metrics(label: str, printed: dict, wanted: list[dict]) -> None:
        got = {k: v["unit"] for k, v in printed["metrics"].items()}
        want = {m["name"]: m["unit"] for m in wanted}
        expect(got == want, f"{label}: prints every metric with its unit "
               f"(missing or wrong: {sorted(set(want.items()) ^ set(got.items()))})")

    for name in workloads.NAMES:
        printed, text = _printed(run.run_one(name, SEED, 1.0, False, TINY))
        expect_metrics(f"{name} untraced", printed, spec["end_to_end"])
        expect(printed["correct"] and printed["failed"] == 0, f"{name}: clean run passes its checks")
        expect("error_rate   0.0000" in text, f"{name}: reports error_rate 0")

        printed, text = _printed(run.run_one(name, SEED, 1.0, False, TINY, CORRUPTIONS[name]))
        expect(not printed["correct"] and printed["failed"] == printed["attempted"] >= 1,
               f"{name}: every damaged output counts as failed")
        expect("error_rate   1.0000" in text, f"{name}: damaged outputs show in error_rate")

    printed, _ = _printed(run.run_one(WIDE, SEED, 1.0, True, TINY))
    expect_metrics("traced", printed, spec["per_layer"])
    expect(printed["correct"], "traced run passes its checks")
    printed, _ = _printed(run.run_one(GWAS, SEED, 1.0, True, TINY, flip_analyze))
    expect(not printed["correct"] and printed["failed"] >= 1,
           "traced run counts a damaged output as failed")
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
