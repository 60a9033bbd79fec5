"""The four workloads: their CLI commands, inputs and output checks.

Each workload is one closed-loop client. An iteration runs the workload's
CLI calls one after another, each waiting for the previous one, and every
call's output is checked against the benchmark's own reference.

- gwas-followup-1m: a genome-wide screen with a small follow-up under the
  thresholded arbitrary-dependence correction. Ingest dominates; the
  step-up and report work is small.
- adjust-full-1m: the same parse, but every row is followed up, so the
  adjusted table builds, sorts and writes a million rows.
- sim-paper-grid: the paper's 3x3 power table on one thread; no ingest,
  and fixed per-repetition overhead dominates.
- sim-wide-2w: a 1e5-wide symmetric procedure on two worker threads; the
  procedure kernels carry the time and per-repetition overhead does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import reference

GWAS = "gwas-followup-1m"
ADJUST = "adjust-full-1m"
GRID = "sim-paper-grid"
WIDE = "sim-wide-2w"
NAMES = (GWAS, ADJUST, GRID, WIDE)

ANALYZE_LEVELS = {"q1": 0.04, "q": 0.05, "t": inputs.FOLLOWUP_T}
ADJUST_C = 0.5
ADJUST_Q = 0.05  # the level the adjusted table is thresholded at in the check


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's. The paper grid keeps
    the paper's m and reps, which its power check needs."""

    csv_rows: int = inputs.CSV_ROWS
    wide_m: int = 100_000
    wide_reps: int = 200


@dataclass
class Call:
    """One CLI invocation: its arguments after ``replicability``, the file
    or directory it writes, and the check of what it wrote."""

    args: list[str]
    output: Path
    check: Callable[[], list[str]]


@dataclass
class Workload:
    name: str
    calls: list[Call]
    rows: int  # p-value rows one iteration processes
    reps: int  # Monte-Carlo repetitions one iteration runs (0 for CSV input)
    scenarios: list[Path]  # scenario files, for the traced run's probes


def gwas_followup(work: Path, seed: int, sizes: Sizes) -> Workload:
    data = inputs.pvalue_csv(work / "gwas.csv", seed, sizes.csv_rows, "threshold")
    ref = reference.AnalyzeReference(data.ids, data.p1, data.p2, data.m, **ANALYZE_LEVELS)
    out = work / "gwas-out"
    levels = ANALYZE_LEVELS
    args = [
        "analyze", "--input", str(data.path), "--mode", "fdr",
        "--q1", str(levels["q1"]), "--q", str(levels["q"]),
        "--dependence", "item2", "--t", str(levels["t"]),
        "--out", str(out), "--quiet",
    ]
    return Workload(GWAS, [Call(args, out, lambda: ref.check(out))], data.m, 0, [])


def adjust_full(work: Path, seed: int, sizes: Sizes) -> Workload:
    data = inputs.pvalue_csv(work / "full.csv", seed, sizes.csv_rows, "all")
    ref = reference.AdjustReference(data.ids, data.p1, data.p2, data.m, ADJUST_C, ADJUST_Q)
    out = work / "adjusted.csv"
    args = [
        "adjust", "--input", str(data.path), "--c", str(ADJUST_C),
        "--flavor", "fdr", "--dependence", "item1", "--out", str(out),
    ]
    return Workload(ADJUST, [Call(args, out, lambda: ref.check(out))], data.m, 0, [])


def simulate_args(scenario: Path, out: Path, workers: int) -> list[str]:
    return ["simulate", "--scenario", str(scenario), "--out", str(out), "--workers", str(workers)]


def paper_grid(work: Path, seed: int, sizes: Sizes) -> Workload:
    m, reps = 1000, 1000
    files = inputs.paper_grid_scenarios(work, seed, m, reps)
    calls = []
    for mu, path in zip(inputs.PAPER_MUS, files):
        out = work / f"grid-mu{mu}.csv"
        calls.append(Call(
            simulate_args(path, out, 1), out,
            lambda out=out, mu=mu: reference.check_paper_grid(
                out, mu, inputs.PAPER_CS, inputs.PAPER_Q
            ),
        ))
    points = len(files) * len(inputs.PAPER_CS)
    return Workload(GRID, calls, points * reps * m, points * reps, files)


def wide(work: Path, seed: int, sizes: Sizes) -> Workload:
    path = inputs.wide_scenario(work, seed, sizes.wide_m, sizes.wide_reps)
    out = work / "wide-w2.csv"
    call = Call(
        simulate_args(path, out, 2), out,
        lambda: reference.check_fdr_controlled(out, inputs.PAPER_Q),
    )
    return Workload(WIDE, [call], sizes.wide_m * sizes.wide_reps, sizes.wide_reps, [path])


PREPARE = {GWAS: gwas_followup, ADJUST: adjust_full, GRID: paper_grid, WIDE: wide}
