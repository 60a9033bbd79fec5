"""Seeded inputs for the benchmark workloads.

Everything the program reads is written here from the workload seed: the
same seed gives byte-identical files. The p-value model follows the
paper's genome-wide use: a primary screen over ``m`` hypotheses in which a
small fraction carries signal, and a follow-up study that re-tests only
some of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

CSV_ROWS = 1_000_000
SIGNAL_FRACTION = 0.01
REPLICABLE_SHARE = 0.7  # of the primary signals, the share also non-null in study two
MU1 = 4.5  # primary-study signal mean, in units of the study's sd
MU2 = 3.5  # follow-up-study signal mean
FOLLOWUP_T = 1e-3  # gwas input: p2 is present only where p1 <= t


@dataclass(frozen=True)
class PValueInput:
    """A generated p-value CSV and the arrays it was written from."""

    path: Path
    ids: list[str]
    p1: np.ndarray
    p2: np.ndarray  # NaN where the row was not followed up
    m: int


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def _pvalue_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    signal = rng.random(n) < SIGNAL_FRACTION
    replicable = signal & (rng.random(n) < REPLICABLE_SHARE)
    z1 = rng.standard_normal(n) + np.where(signal, MU1, 0.0)
    z2 = rng.standard_normal(n) + np.where(replicable, MU2, 0.0)
    return special.ndtr(-z1), special.ndtr(-z2)


def _write_csv(path: Path, ids, p1: np.ndarray, p2: np.ndarray, m: int) -> None:
    # repr() is the shortest round-trip form, the program's own number format.
    p2_text = ["" if v != v else repr(v) for v in p2.tolist()]
    body = "\n".join(
        f"{rid},{a!r},{b}" for rid, a, b in zip(ids, p1.tolist(), p2_text)
    )
    path.write_text(f"# m={m}\nid,p1,p2\n{body}\n", encoding="utf-8")


def pvalue_csv(path: Path, seed: int, rows: int, followup: str) -> PValueInput:
    """Write a ``rows``-row CSV with a ``# m=`` directive.

    ``followup="threshold"`` keeps p2 only where p1 <= FOLLOWUP_T (a
    genome-wide screen with a small follow-up); ``followup="all"`` keeps
    p2 on every row.
    """
    rng = _rng(seed, 1 if followup == "threshold" else 2)
    p1, p2 = _pvalue_pair(rng, rows)
    if followup == "threshold":
        p2 = np.where(p1 <= FOLLOWUP_T, p2, np.nan)
    elif followup != "all":
        raise ValueError(f"unknown follow-up design {followup!r}")
    width = len(str(rows))
    ids = [f"rs{i:0{width}d}" for i in range(1, rows + 1)]
    _write_csv(path, ids, p1, p2, rows)
    return PValueInput(path=path, ids=ids, p1=p1, p2=p2, m=rows)


# The paper's simulated power table: m = 1000, f = (f00, f01, f10, f11),
# sigma1 = sigma2 = 0.5, FDR procedure with step-up selection at c*q.
PAPER_FRACTIONS = (0.9, 0.025, 0.025, 0.05)
PAPER_MUS = (1.5, 2.0, 2.5)
PAPER_CS = (0.1, 0.5, 0.7)
PAPER_Q = 0.05


def _scenario_seed(seed: int, stream: int) -> int:
    """A non-negative master seed for one scenario file."""
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


def _scenario_text(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def paper_grid_scenarios(directory: Path, seed: int, m: int, reps: int) -> list[Path]:
    """One file per mu, each sweeping c over the paper's grid."""
    paths = []
    f00, f01, f10, f11 = PAPER_FRACTIONS
    for i, mu in enumerate(PAPER_MUS):
        path = directory / f"paper_mu{mu}.scn"
        path.write_text(
            _scenario_text(
                m=m, f00=f00, f01=f01, f10=f10, f11=f11, mu1=mu, mu2=mu,
                # the format requires q1; the sweep sets q1 = c*q per point
                sigma1=0.5, sigma2=0.5, procedure="fdr", q1=0.5 * PAPER_Q,
                q=PAPER_Q, selection="bh", reps=reps,
                seed=_scenario_seed(seed, 10 + i),
                sweep_axis="c", sweep_grid=",".join(str(c) for c in PAPER_CS),
            ),
            encoding="utf-8",
        )
        paths.append(path)
    return paths


def wide_scenario(directory: Path, seed: int, m: int, reps: int) -> Path:
    """The symmetric procedure (w1 = 0.5) on a wide family, mu = 2.5."""
    f00, f01, f10, f11 = PAPER_FRACTIONS
    path = directory / "wide.scn"
    path.write_text(
        _scenario_text(
            m=m, f00=f00, f01=f01, f10=f10, f11=f11, mu1=2.5, mu2=2.5,
            sigma1=0.5, sigma2=0.5, procedure="fdr_symmetric", w1=0.5,
            q1=0.5 * PAPER_Q, q=PAPER_Q, selection="bh", reps=reps,
            seed=_scenario_seed(seed, 20),
        ),
        encoding="utf-8",
    )
    return path
