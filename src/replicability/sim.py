"""Monte-Carlo engine for power and error-rate studies, plus closed-form
power for the single-signal two-stage setting.

The generative model: each hypothesis j draws X_ij ~ N(mu_ij, sigma_i^2)
per study, with mu_ij = mu_i when the hypothesis is non-null in study i
and 0 otherwise, and one-sided p-values p_ij = 1 - Phi(X_ij / sigma_i).
Study standard deviations are given directly or through a sample-split
form sigma_i = sigma / sqrt(share_i * N).

Every repetition derives its own counter-based random streams from
(master seed, repetition, study, truth block), so results are bit-stable
regardless of execution order or thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .data import TRUTH_LABELS, StudyPairData, TruthAssignment
from .errors import DataError
from .numeric import solve_oracle_qprime
from .procedures import (
    Dependence,
    _bonferroni_fwer_mask,
    _effective_levels,
    _fdr_core,
    _holm_fwer_mask,
    fisher_combined_pvalues,
)
from .selection import bh_mask

__all__ = [
    "SimSelection",
    "SimProcedure",
    "SimScenario",
    "SimEstimate",
    "truth_block_sizes",
    "generate_rep",
    "run_scenario",
    "sweep",
    "analytic_power_bonf_max",
    "analytic_power_two_stage",
]


@dataclass(frozen=True)
class SimSelection:
    """Follow-up selection used inside a simulated procedure.

    ``bh`` with level None selects by step-up at the direction's own
    primary-stage level (the recommended default); the other kinds mirror
    the library selection rules.
    """

    kind: str = "bh"
    level: float | None = None
    k: int | None = None
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in ("bh", "bonferroni", "top_k", "fixed_threshold"):
            raise DataError(f"unknown selection kind {self.kind!r}")
        if self.kind == "top_k" and (self.k is None or self.k < 1):
            raise DataError("top_k selection needs k >= 1")
        if self.kind == "fixed_threshold" and self.threshold is None:
            raise DataError("fixed_threshold selection needs a threshold")


@dataclass(frozen=True)
class SimProcedure:
    """Which procedure a scenario runs, with its levels."""

    kind: str = "fdr"
    q1: float | None = None
    q: float = 0.05
    w1: float = 1.0
    mode: Dependence = Dependence.INDEPENDENT
    t: float | None = None
    fwer_method: str = "bonferroni"
    primary: int = 1
    selection: SimSelection = SimSelection()

    _KINDS = (
        "fdr",
        "fdr_symmetric",
        "fwer",
        "partial_conjunction",
        "naive_bh_bh",
        "fisher_meta",
        "oracle",
    )

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DataError(f"unknown procedure kind {self.kind!r}")
        if self.kind in ("fdr", "fdr_symmetric", "fwer") and self.q1 is None:
            raise DataError(f"procedure {self.kind!r} needs q1 (or alpha1)")
        if self.q1 is not None and not 0.0 < self.q1 < self.q < 1.0:
            raise DataError(
                f"levels must satisfy 0 < q1 < q < 1, got q1={self.q1}, q={self.q}"
            )
        if not 0.0 <= self.w1 <= 1.0:
            raise DataError(f"w1 must lie in [0, 1], got {self.w1}")


@dataclass(frozen=True)
class SimScenario:
    """Truth configuration, generative model, procedure, and replication
    plan for one Monte-Carlo estimate."""

    m: int
    f00: float
    f01: float
    f10: float
    f11: float
    mu1: float
    mu2: float
    sigma1: float | None = None
    sigma2: float | None = None
    sigma: float | None = None
    zeta: float | None = None
    n_total: float | None = None
    procedure: SimProcedure = SimProcedure(q1=0.025)
    reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise DataError("m must be positive")
        if self.reps < 1:
            raise DataError("reps must be positive")
        if self.seed < 0:
            raise DataError(f"seed must be a non-negative integer, got {self.seed}")
        fr = (self.f00, self.f01, self.f10, self.f11)
        if any(f < 0 or f > 1 for f in fr):
            raise DataError("fractions must lie in [0, 1]")
        if abs(sum(fr) - 1.0) > 1e-12:
            raise DataError(f"fractions must sum to 1, got {sum(fr)!r}")
        has_direct = self.sigma1 is not None and self.sigma2 is not None
        has_split = (
            self.sigma is not None
            and self.zeta is not None
            and self.n_total is not None
        )
        if has_direct == has_split:
            raise DataError(
                "specify either sigma1 and sigma2, or the allocation form "
                "sigma, zeta, n_total"
            )
        if has_split and not 0.0 < self.zeta < 1.0:
            raise DataError(f"zeta must lie in (0, 1), got {self.zeta}")
        if self.sd1 <= 0 or self.sd2 <= 0:
            raise DataError("standard deviations must be positive")

    @property
    def sd1(self) -> float:
        if self.sigma1 is not None:
            return self.sigma1
        return self.sigma / math.sqrt(self.zeta * self.n_total)

    @property
    def sd2(self) -> float:
        if self.sigma2 is not None:
            return self.sigma2
        return self.sigma / math.sqrt((1.0 - self.zeta) * self.n_total)


def truth_block_sizes(m: int, fractions) -> tuple[int, int, int, int]:
    """Integer block sizes for (I00, I01, I10, I11) by largest-remainder
    rounding of fractions*m, remainders broken in block order."""
    raw = [f * m for f in fractions]
    base = [int(math.floor(x)) for x in raw]
    short = m - sum(base)
    remainders = sorted(
        range(4), key=lambda i: (-(raw[i] - base[i]), i)
    )
    for i in remainders[:short]:
        base[i] += 1
    return tuple(base)


def _block_means(scenario: SimScenario) -> tuple[np.ndarray, np.ndarray]:
    # block order I00, I01, I10, I11; h1 = 1 on I10, I11; h2 = 1 on I01, I11
    mu1 = np.array([0.0, 0.0, scenario.mu1, scenario.mu1])
    mu2 = np.array([0.0, scenario.mu2, 0.0, scenario.mu2])
    return mu1, mu2


def _generate_arrays(scenario: SimScenario, rep_index: int) -> tuple[np.ndarray, np.ndarray]:
    sizes = truth_block_sizes(
        scenario.m, (scenario.f00, scenario.f01, scenario.f10, scenario.f11)
    )
    mu1, mu2 = _block_means(scenario)
    out = []
    for study, (mus, sd) in enumerate(
        ((mu1, scenario.sd1), (mu2, scenario.sd2)), start=1
    ):
        parts = []
        for block, size in enumerate(sizes):
            if size == 0:
                continue
            ss = np.random.SeedSequence(
                entropy=(scenario.seed, rep_index, study, block)
            )
            gen = np.random.Generator(np.random.Philox(ss))
            z = special.ndtri(gen.random(size))
            parts.append(special.ndtr(-(mus[block] / sd) - z))
        out.append(np.concatenate(parts) if parts else np.zeros(0))
    return out[0], out[1]


def _truth_codes(scenario: SimScenario) -> np.ndarray:
    sizes = truth_block_sizes(
        scenario.m, (scenario.f00, scenario.f01, scenario.f10, scenario.f11)
    )
    return np.repeat(np.arange(4, dtype=np.uint8), sizes)


def generate_rep(
    scenario: SimScenario, rep_index: int
) -> tuple[StudyPairData, TruthAssignment]:
    """One simulated dataset, a pure function of (seed, rep_index).

    Truth states are laid out in contiguous blocks (I00, I01, I10, I11);
    the p-values are exchangeable within blocks, so the layout carries no
    information.
    """
    p1, p2 = _generate_arrays(scenario, rep_index)
    width = len(str(scenario.m))
    ids = [f"h{i:0{width}d}" for i in range(1, scenario.m + 1)]
    labels = tuple(TRUTH_LABELS[c] for c in _truth_codes(scenario))
    return StudyPairData.from_columns(ids, p1, p2), TruthAssignment(labels)


def _selection_mask(
    sel: SimSelection, p1: np.ndarray, m: int, auto_level: float
) -> np.ndarray:
    if sel.kind == "bh":
        return bh_mask(p1, sel.level if sel.level is not None else auto_level)
    if sel.kind == "bonferroni":
        level = sel.level if sel.level is not None else auto_level
        return p1 <= level / m
    if sel.kind == "fixed_threshold":
        return p1 <= sel.threshold
    if sel.kind == "top_k":
        order = np.argsort(p1, kind="stable")
        mask = np.zeros(p1.size, dtype=bool)
        mask[order[: sel.k]] = True
        return mask
    raise DataError(f"unknown selection kind {sel.kind!r}")


def _directed_fdr_mask(
    proc: SimProcedure, p1, p2, m: int, q1: float, q: float
) -> np.ndarray:
    """Rejection mask of one directed two-stage run at levels (q1, q)."""
    out = np.zeros(m, dtype=bool)
    if q1 <= 0.0 or q >= 1.0:
        return out
    sel = _selection_mask(proc.selection, p1, m, q1)
    idx = np.flatnonzero(sel)
    if idx.size == 0:
        return out
    r1 = idx.size
    q1_eff, q2_eff = _effective_levels(q1, q, proc.mode, proc.t, m, r1)
    _, mask, _, _ = _fdr_core(p1[idx], p2[idx], m, r1, q1_eff, q2_eff)
    out[idx[mask]] = True
    return out


def _directed_fwer_mask(
    proc: SimProcedure, p1, p2, m: int, alpha1: float, alpha: float
) -> np.ndarray:
    out = np.zeros(m, dtype=bool)
    fwer = (
        _holm_fwer_mask if proc.fwer_method == "holm" else _bonferroni_fwer_mask
    )
    # default selection for the FWER flavor: single-test threshold alpha1/m
    if proc.selection.kind == "bh" and proc.selection.level is None:
        sel_rule = SimSelection("bonferroni")
    else:
        sel_rule = proc.selection
    sel = _selection_mask(sel_rule, p1, m, alpha1)
    idx = np.flatnonzero(sel)
    if idx.size == 0:
        return out
    primary_ok = fwer(p1, alpha1, m)[idx]
    followup_ok = fwer(p2[idx], alpha - alpha1, idx.size)
    out[idx[primary_ok & followup_ok]] = True
    return out


def _build_runner(scenario: SimScenario):
    """Compile the scenario's procedure into mask = f(p1, p2)."""
    proc = scenario.procedure
    m = scenario.m
    kind = proc.kind
    if kind == "fdr":
        return lambda p1, p2: _directed_fdr_mask(proc, p1, p2, m, proc.q1, proc.q)
    if kind == "fdr_symmetric":

        def sym(p1, p2):
            w1 = proc.w1
            mask = np.zeros(m, dtype=bool)
            if w1 > 0.0:
                mask |= _directed_fdr_mask(proc, p1, p2, m, w1 * proc.q1, w1 * proc.q)
            if w1 < 1.0:
                mask |= _directed_fdr_mask(
                    proc, p2, p1, m, (1 - w1) * proc.q1, (1 - w1) * proc.q
                )
            return mask

        return sym
    if kind == "fwer":
        return lambda p1, p2: _directed_fwer_mask(proc, p1, p2, m, proc.q1, proc.q)
    if kind == "partial_conjunction":
        return lambda p1, p2: bh_mask(np.maximum(p1, p2), proc.q)
    if kind == "fisher_meta":
        return lambda p1, p2: bh_mask(fisher_combined_pvalues(p1, p2), proc.q)
    if kind == "naive_bh_bh":

        def naive(p1, p2):
            a, b = (p1, p2) if proc.primary == 1 else (p2, p1)
            first = bh_mask(a, proc.q)
            idx = np.flatnonzero(first)
            out = np.zeros(m, dtype=bool)
            if idx.size:
                out[idx[bh_mask(b[idx], proc.q)]] = True
            return out

        return naive
    if kind == "oracle":
        qp = solve_oracle_qprime(scenario.f00, scenario.f01, proc.q, proc.w1)

        def oracle(p1, p2):
            w1 = proc.w1
            mask = np.zeros(m, dtype=bool)
            if w1 > 0.0:
                mask |= _directed_fdr_mask(proc, p1, p2, m, w1 * qp, w1 * 2.0 * qp)
            if w1 < 1.0:
                mask |= _directed_fdr_mask(
                    proc, p2, p1, m, (1 - w1) * qp, (1 - w1) * 2.0 * qp
                )
            return mask

        return oracle
    raise DataError(f"unknown procedure kind {kind!r}")


@dataclass(frozen=True)
class SimEstimate:
    """Averaged false discovery proportion, power, and rejection counts.

    Standard errors are sample-sd/sqrt(reps), absent for a single
    repetition. Power is absent when the scenario has no replicable
    signal (f11 = 0). The optional trace retains the per-repetition
    series in repetition order.
    """

    avg_fdp: float
    fdp_se: float | None
    avg_power: float | None
    power_se: float | None
    avg_rejections: float
    reps: int
    trace: tuple[tuple[float, ...], ...] | None = None


def _mean_se(values: np.ndarray) -> tuple[float, float | None]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, None
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


def run_scenario(
    scenario: SimScenario, workers: int = 1, retain_trace: bool = False
) -> SimEstimate:
    """Estimate FDP, power, and rejection counts over the repetitions.

    Repetitions are independent and may run on several threads; the
    per-repetition streams and the index-ordered aggregation make the
    result identical for any ``workers``.
    """
    runner = _build_runner(scenario)
    codes = _truth_codes(scenario)
    replicable = codes == 3
    n11 = int(replicable.sum())
    reps = scenario.reps
    fdp = np.empty(reps)
    power = np.empty(reps)
    rejections = np.empty(reps)

    def one(rep: int) -> None:
        p1, p2 = _generate_arrays(scenario, rep)
        mask = runner(p1, p2)
        r = int(mask.sum())
        v = int((mask & ~replicable).sum())
        fdp[rep] = v / max(r, 1)
        power[rep] = (r - v) / n11 if n11 else math.nan
        rejections[rep] = r

    if workers <= 1:
        for rep in range(reps):
            one(rep)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, range(reps)))

    avg_fdp, fdp_se = _mean_se(fdp)
    if n11:
        avg_power, power_se = _mean_se(power)
    else:
        avg_power, power_se = None, None
    avg_rejections = float(rejections.mean())
    trace = None
    if retain_trace:
        trace = (tuple(fdp), tuple(power), tuple(rejections))
    return SimEstimate(
        avg_fdp=avg_fdp,
        fdp_se=fdp_se,
        avg_power=avg_power,
        power_se=power_se,
        avg_rejections=avg_rejections,
        reps=reps,
        trace=trace,
    )


_SWEEP_AXES = ("mu", "c", "w1", "zeta", "k_selected")


def _scenario_at(scenario: SimScenario, axis: str, value: float) -> SimScenario:
    if axis == "mu":
        return replace(scenario, mu1=value, mu2=value)
    if axis == "c":
        proc = replace(scenario.procedure, q1=value * scenario.procedure.q)
        return replace(scenario, procedure=proc)
    if axis == "w1":
        proc = replace(scenario.procedure, w1=value)
        return replace(scenario, procedure=proc)
    if axis == "zeta":
        if scenario.zeta is None:
            raise DataError("zeta sweep needs the sigma/zeta/n_total allocation form")
        return replace(scenario, zeta=value)
    if axis == "k_selected":
        proc = replace(
            scenario.procedure,
            selection=SimSelection("top_k", k=int(value)),
        )
        return replace(scenario, procedure=proc)
    raise DataError(f"unknown sweep axis {axis!r}; expected one of {_SWEEP_AXES}")


def sweep(
    scenario: SimScenario, axis: str, grid, workers: int = 1
) -> list[tuple[float, SimEstimate]]:
    """One :func:`run_scenario` per grid point along ``axis``.

    Every point reuses the scenario's master seed (common random numbers),
    which keeps curves smooth in the grid direction.
    """
    grid = list(grid)
    if not grid:
        raise DataError("sweep grid must be non-empty")
    return [
        (float(v), run_scenario(_scenario_at(scenario, axis, float(v)), workers=workers))
        for v in grid
    ]


def _upper_z(p) -> float:
    return -special.ndtri(p)


def _right_tail(x):
    return special.ndtr(-np.asarray(x, dtype=float))


def analytic_power_bonf_max(mu11: float, mu21: float, m: int, alpha: float) -> float:
    """Probability that the one non-null hypothesis (effects mu11, mu21,
    unit variances) is rejected when the conservative max-p-value test is
    Bonferroni-corrected across m hypotheses at level alpha."""
    if m < 1:
        raise ValueError("m must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    z = _upper_z(alpha / m)
    return float(_right_tail(z - mu11) * _right_tail(z - mu21))


def analytic_power_two_stage(
    mu11: float, mu21: float, m: int, alpha1: float, alpha: float
) -> float:
    """Probability that the one non-null hypothesis is rejected by the
    two-stage FWER procedure with Bonferroni stages at (alpha1, alpha).

    Conditions on the number of hypotheses selected alongside the signal,
    which is binomial; the series over the selection count is evaluated
    in log space and truncated once the binomial mass is exhausted.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not 0.0 < alpha1 < alpha < 1.0:
        raise ValueError(
            f"levels must satisfy 0 < alpha1 < alpha < 1, got {alpha1}, {alpha}"
        )
    p_sel = float(_right_tail(_upper_z(alpha1 / m) - mu11))
    p_null = alpha1 / m
    if m == 1:
        return p_sel * float(_right_tail(_upper_z(alpha - alpha1) - mu21))
    mean = (m - 1) * p_null
    sd = math.sqrt((m - 1) * p_null * (1.0 - p_null))
    kcap = min(m, int(math.ceil(mean + 1 + 20.0 * sd + 60.0)))
    while True:
        ks = np.arange(1, kcap + 1)
        log_pmf = (
            special.gammaln(m)
            - special.gammaln(ks)
            - special.gammaln(m - ks + 1)
            + (ks - 1) * math.log(p_null)
            + (m - ks) * math.log1p(-p_null)
        )
        pmf = np.exp(log_pmf)
        if kcap == m or pmf[-1] < 1e-16 * pmf.sum():
            break
        kcap = min(m, kcap * 2)
    stage2 = _right_tail(_upper_z((alpha - alpha1) / ks) - mu21)
    return p_sel * float(np.sum(pmf * stage2))
