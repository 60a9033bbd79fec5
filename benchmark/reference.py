"""Reference results computed by the benchmark, and the output checks.

Nothing here imports the package under test. The two-stage step-up, the
harmonic sums and the thresholded primary level are recomputed from their
definitions, so a defect in the program cannot hide in its own reference.
No check hashes simulated numbers: the random stream layout may change,
and every check here must still hold when it does.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy import special

DISCOVERY_HEADER = "id,p1,p2,z,adjusted_p,rejected"
ADJUSTED_HEADER = "id,p1,p2,z,adjusted_p,adjusted_p_modified"
SIM_HEADER = "point,avg_fdp,fdp_se,avg_power,power_se,avg_rejections"

# Published power of the two-stage FDR procedure, keyed by (mu, c):
# m = 1000, f = (0.9, 0.025, 0.025, 0.05), sigma1 = sigma2 = 0.5, q = 0.05.
POWER_TABLE = {
    (1.5, 0.1): 0.143, (1.5, 0.5): 0.257, (1.5, 0.7): 0.248,
    (2.0, 0.1): 0.646, (2.0, 0.5): 0.794, (2.0, 0.7): 0.805,
    (2.5, 0.1): 0.934, (2.5, 0.5): 0.975, (2.5, 0.7): 0.978,
}
POWER_TOLERANCE = 0.03


def harmonic(k: int) -> float:
    """H_k = 1 + 1/2 + ... + 1/k, with H_0 = 0, through digamma."""
    return float(special.digamma(k + 1.0) + np.euler_gamma)


def thresholded_level(q1: float, m: int, t: float) -> float:
    """Largest x with x * (1 + H_ceil(t*m/x - 1)) = q1.

    The left side is piecewise constant in the ceiling k, so walk k upward
    until ceil(t*m/x_k - 1) == k for x_k = q1 / (1 + H_k).
    """
    if t >= q1 / (1.0 + harmonic(m - 1)):
        raise ValueError(f"t={t} is too large for the thresholded correction")
    k = 0
    while True:
        x = q1 / (1.0 + harmonic(k))
        target = max(0, math.ceil(t * m / x - 1.0))
        if target == k:
            return x
        k = max(k + 1, target)


def stepup_reject(
    p1: np.ndarray, p2: np.ndarray, m: int, r1: int, q1_eff: float, q2_eff: float
) -> np.ndarray:
    """Rejections of the two-stage step-up over the followed-up rows: the
    largest r such that r rows have p1 <= r*q1_eff/m and p2 <= r*q2_eff/r1."""
    z = np.maximum(m * p1 / q1_eff, r1 * p2 / q2_eff)
    zs = np.sort(z)
    passing = np.flatnonzero(zs <= np.arange(1, z.size + 1))
    if passing.size == 0:
        return np.zeros(z.size, dtype=bool)
    return z <= zs[passing[-1]]


def stepup_adjusted(z: np.ndarray) -> np.ndarray:
    """Step-up adjusted values: min over ranks j >= i of z_(j)/j, capped at 1."""
    order = np.argsort(z, kind="stable")
    ranked = z[order] / np.arange(1, z.size + 1)
    out = np.empty(z.size)
    out[order] = np.minimum(np.minimum.accumulate(ranked[::-1])[::-1], 1.0)
    return out


def _read_rows(path: Path, header: str) -> tuple[list[list[str]], list[str]]:
    """Rows of a CSV the program wrote, plus any format problem found."""
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except OSError as exc:
        return [], [f"cannot read {Path(path).name}: {exc}"]
    if lines[0] != header:
        return [], [f"{Path(path).name}: header {lines[0]!r}, expected {header!r}"]
    if lines[-1] != "":
        return [], [f"{Path(path).name}: no trailing newline"]
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:-1]]
    bad = sum(1 for r in rows if len(r) != width)
    if bad:
        return [], [f"{Path(path).name}: {bad} rows without {width} fields"]
    return rows, []


class AnalyzeReference:
    """Expected output of ``analyze --mode fdr --dependence item2``."""

    def __init__(self, ids, p1, p2, m: int, q1: float, q: float, t: float):
        followed = np.flatnonzero(~np.isnan(p2))
        r1 = followed.size
        mask = stepup_reject(
            p1[followed], p2[followed], m, r1, thresholded_level(q1, m, t), q - q1
        )
        self.followed = {ids[i] for i in followed}
        self.rejected = {ids[i] for i in followed[mask]}

    def check(self, out_dir: Path) -> list[str]:
        rows, problems = _read_rows(Path(out_dir) / "discoveries.csv", DISCOVERY_HEADER)
        if problems:
            return problems
        listed = [r[0] for r in rows]
        if len(listed) != len(self.followed) or set(listed) != self.followed:
            problems.append(
                f"discoveries.csv lists {len(listed)} rows, expected one per "
                f"followed-up hypothesis ({len(self.followed)})"
            )
        if any(r[5] not in ("0", "1") for r in rows):
            problems.append("discoveries.csv has a rejected flag other than 0/1")
        got = {r[0] for r in rows if r[5] == "1"}
        if got != self.rejected:
            problems.append(
                f"{len(got ^ self.rejected)} rejections differ from the reference "
                f"(got {len(got)}, expected {len(self.rejected)})"
            )
        return problems


class AdjustReference:
    """Expected output of ``adjust --flavor fdr --dependence item1`` on a
    dataset where every row is followed up, printed at 4 significant
    digits (the table format)."""

    def __init__(self, ids, p1, p2, m: int, c: float, q: float):
        r1 = p1.size
        h_m = harmonic(m)
        stat2 = r1 * p2 / (1.0 - c)
        self.adjusted = stepup_adjusted(np.maximum(m * p1 / c, stat2))
        self.modified = stepup_adjusted(
            np.maximum(m * np.minimum(h_m * p1, 1.0) / c, stat2)
        )
        # Lists format faster than numpy scalars in the per-row check.
        self.adjusted_list = self.adjusted.tolist()
        self.modified_list = self.modified.tolist()
        self.rejected = stepup_reject(p1, p2, m, r1, c * q, (1.0 - c) * q)
        self.rejected_item1 = stepup_reject(p1, p2, m, r1, c * q / h_m, (1.0 - c) * q)
        self.q = q
        self.index = {rid: i for i, rid in enumerate(ids)}

    def _threshold_problems(self, name, printed, ref, expected) -> list[str]:
        # A printed value may round onto q; only such rows may disagree.
        differ = (printed <= self.q) != expected
        differ &= np.abs(ref - self.q) > 5e-4 * self.q
        if differ.any():
            return [f"thresholding {name} at q differs from the reference "
                    f"rejections on {int(differ.sum())} rows"]
        return []

    def check(self, path: Path) -> list[str]:
        rows, problems = _read_rows(path, ADJUSTED_HEADER)
        if problems:
            return problems
        pos = [self.index.get(r[0], -1) for r in rows]
        if len(rows) != len(self.index) or -1 in pos or len(set(pos)) != len(pos):
            return [f"{len(rows)} rows, expected one per followed-up hypothesis "
                    f"({len(self.index)})"]
        order = np.array(pos)
        try:
            adjusted = np.array([float(r[4]) for r in rows])
            modified = np.array([float(r[5]) for r in rows])
        except ValueError:
            return ["an adjusted value is not a number"]
        if np.any(np.diff(adjusted) < 0):
            problems.append("adjusted_p is not non-decreasing")
        for name, col, ref in (
            ("adjusted_p", 4, self.adjusted_list),
            ("adjusted_p_modified", 5, self.modified_list),
        ):
            wrong = sum(
                1 for r, i in zip(rows, pos) if r[col] != f"{ref[i]:.4g}"
            )
            if wrong:
                problems.append(f"{wrong} {name} values differ from the reference")
        problems += self._threshold_problems(
            "adjusted_p", adjusted, self.adjusted[order], self.rejected[order]
        )
        problems += self._threshold_problems(
            "adjusted_p_modified", modified, self.modified[order],
            self.rejected_item1[order],
        )
        return problems


def _sim_rows(path: Path) -> tuple[list[dict], list[str]]:
    rows, problems = _read_rows(path, SIM_HEADER)
    names = SIM_HEADER.split(",")
    try:
        parsed = [
            {k: (float(v) if v else None) for k, v in zip(names, r)} for r in rows
        ]
    except ValueError:
        return [], [f"{Path(path).name}: a field is not a number"]
    return parsed, problems


def check_paper_grid(path: Path, mu: float, cs, q: float) -> list[str]:
    """Every cell's power is within tolerance of the published table and
    its average FDP is at most q."""
    rows, problems = _sim_rows(path)
    if problems:
        return problems
    if [r["point"] for r in rows] != [float(c) for c in cs]:
        return [f"grid points {[r['point'] for r in rows]}, expected {list(cs)}"]
    for r in rows:
        want = POWER_TABLE[(mu, r["point"])]
        if r["avg_power"] is None or abs(r["avg_power"] - want) > POWER_TOLERANCE:
            problems.append(
                f"mu={mu}, c={r['point']}: power {r['avg_power']} is not within "
                f"{POWER_TOLERANCE} of the published {want}"
            )
        if not r["avg_fdp"] <= q:
            problems.append(f"mu={mu}, c={r['point']}: avg_fdp {r['avg_fdp']} > q={q}")
    return problems


def check_fdr_controlled(path: Path, q: float) -> list[str]:
    """One row, with power present and average FDP at most q."""
    rows, problems = _sim_rows(path)
    if problems:
        return problems
    if len(rows) != 1:
        return [f"{len(rows)} result rows, expected 1"]
    if rows[0]["avg_power"] is None:
        problems.append("avg_power is missing")
    if not rows[0]["avg_fdp"] <= q:
        problems.append(f"avg_fdp {rows[0]['avg_fdp']} > q={q}")
    return problems
