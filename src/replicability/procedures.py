"""Two-stage replicability testing procedures.

The testing problem: a hypothesis counts as a replicated discovery only
when it is non-null in *both* a primary and a follow-up study. The
procedures here reject "no replicability" nulls while controlling either
the family-wise error rate or the false discovery rate over the whole
two-study pipeline, including the selection step that decides which
hypotheses get followed up.

Directed procedures treat study one as primary; the symmetric procedure
splits its budget between the two directions with a weight ``w1``.
Dependence corrections shrink the primary-stage (and optionally the
follow-up-stage) levels by harmonic-sum factors so control survives
arbitrary dependence within a study.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import kernels
from .data import DiscoveryReport, HypothesisScore, StudyPairData
from .errors import DataError
from .numeric import harmonic, solve_oracle_qprime, solve_q1_tilde_thresholded
from .selection import SelectionRule, _select_mask, select_rows

__all__ = [
    "FwerMethod",
    "Dependence",
    "ProcedureParams",
    "fwer_two_stage",
    "bonf_replicability_adjust",
    "fdr_two_stage",
    "fdr_two_stage_rscan",
    "fdr_replicability_adjust",
    "fdr_symmetric",
    "baseline_partial_conjunction",
    "baseline_naive_bh_bh",
    "baseline_fisher_meta",
    "oracle_calibrated_run",
]


class FwerMethod(str, Enum):
    BONFERRONI = "bonferroni"
    HOLM = "holm"


class Dependence(str, Enum):
    """Dependence assumption for the two studies.

    ``independent``: all p-values jointly independent.
    ``prds_followup``: positive regression dependence within the follow-up
    study. This is a modeling assumption, not a checkable property of the
    data; error control is unchanged, so the procedure behaves exactly as
    under independence and the mode exists for explicit user intent.
    ``arbitrary_primary_item1``: arbitrary dependence within the primary
    study; the primary-stage level is divided by the harmonic sum H_m.
    ``arbitrary_primary_item2``: same guarantee, but exploits that the
    follow-up set only contains hypotheses with p1 <= t; needs ``t``.
    ``arbitrary_both``: arbitrary dependence within both studies; the
    follow-up-stage level is additionally divided by H_R1.
    """

    INDEPENDENT = "independent"
    PRDS_FOLLOWUP = "prds_followup"
    ARBITRARY_PRIMARY_ITEM1 = "arbitrary_primary_item1"
    ARBITRARY_PRIMARY_ITEM2 = "arbitrary_primary_item2"
    ARBITRARY_BOTH = "arbitrary_both"


@dataclass(frozen=True)
class ProcedureParams:
    """Level configuration for a procedure run.

    ``q1``/``q`` hold the per-stage and overall levels (alpha1/alpha in
    FWER mode). ``w1`` is only used by the symmetric procedure. ``t`` is
    the selection threshold required by the thresholded dependence mode.
    """

    q1: float
    q: float
    w1: float | None = None
    mode: Dependence = Dependence.INDEPENDENT
    t: float | None = None

    def __post_init__(self):
        _check_levels(self.q1, self.q)
        if self.w1 is not None and not 0.0 <= self.w1 <= 1.0:
            raise ValueError(f"w1 must lie in [0, 1], got {self.w1}")
        if self.t is not None and not 0.0 < self.t < 1.0:
            raise ValueError(f"t must lie in (0, 1), got {self.t}")
        if self.mode is Dependence.ARBITRARY_PRIMARY_ITEM2 and self.t is None:
            raise ValueError("the thresholded dependence mode requires t")

    @property
    def c(self) -> float:
        return self.q1 / self.q


def _check_levels(q1: float, q: float) -> None:
    if not 0.0 < q1 < q < 1.0:
        raise ValueError(f"levels must satisfy 0 < q1 < q < 1, got q1={q1}, q={q}")


def _effective_levels(
    q1: float, q: float, mode: Dependence, t: float | None, m: int, r1
) -> tuple[float, float]:
    """Per-stage levels after the dependence correction for ``mode``. R1 is
    one count, or an (n, 1) column of one per row, which makes q2_eff a
    column under ``arbitrary_both``."""
    q2 = q - q1
    if mode in (Dependence.INDEPENDENT, Dependence.PRDS_FOLLOWUP):
        return q1, q2
    if mode is Dependence.ARBITRARY_PRIMARY_ITEM1:
        return q1 / harmonic(m), q2
    if mode is Dependence.ARBITRARY_PRIMARY_ITEM2:
        if t is None:
            raise ValueError("the thresholded dependence mode requires t")
        return solve_q1_tilde_thresholded(q1, m, t), q2
    if mode is Dependence.ARBITRARY_BOTH:
        h_r1 = np.vectorize(harmonic, otypes=[float])(np.maximum(r1, 1))
        return q1 / harmonic(m), q2 / h_r1
    raise ValueError(f"unknown dependence mode {mode!r}")


def _gather_selected(
    data: StudyPairData, rule: SelectionRule, what: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Indices, p1, p2 of the selected rows, plus the effective R1."""
    idx = np.flatnonzero(_select_mask(rule, data, data.p1))
    p1, p2 = data.p1[idx], data.p2[idx]
    missing = idx[np.isnan(p2)]
    if missing.size:
        raise DataError(
            f"{what}: {missing.size} selected hypothesis(es) lack a follow-up "
            f"p-value, first: {data.ids[missing[0]]!r}"
        )
    r1 = data.r1_declared if data.r1_declared is not None else idx.size
    if r1 < idx.size:
        raise DataError(
            f"{what}: declared follow-up count {r1} is smaller than the "
            f"{idx.size} selected rows"
        )
    return idx, p1, p2, r1


def _report_scores(
    data: StudyPairData,
    idx: np.ndarray,
    z: np.ndarray,
    adjusted: np.ndarray,
) -> tuple[HypothesisScore, ...]:
    ids = data.ids
    return tuple(
        HypothesisScore(ids[i], float(zv), float(min(av, 1.0)))
        for i, zv, av in zip(idx, z, adjusted)
    )


# Row kernels: each maps (n, k) p-value arrays, one family per row, to an
# (n, k) rejection mask. The simulator runs them a chunk of repetitions at
# a time, the FDR kernel on each row's selected entries; the library
# procedures run them on one row. ``sel`` marks the selected entries and
# ``r1`` is R1, one count or an (n, 1) column of one per row.


def _fdr_rows(p1, p2, sel, r1, m: int, q1: float, q: float, mode: Dependence, t):
    """Row kernel of :func:`fdr_two_stage`, study one primary.

    The statistic z = max(m*p1/q1_eff, R1*p2/q2_eff) is at most r exactly
    when both p-values clear their stage-r thresholds (r*q1_eff/m,
    r*q2_eff/R1), so the fixed-point rejection count is the step-up over z
    at thresholds 1, 2, ...; unselected entries get z = inf. Returns the
    mask, z and the effective levels.
    """
    _check_levels(q1, q)
    q1_eff, q2_eff = _effective_levels(q1, q, mode, t, m, r1)
    if mode is Dependence.ARBITRARY_PRIMARY_ITEM2 and np.any(sel & (p1 > t)):
        raise DataError(
            "the thresholded dependence mode requires every selected primary "
            f"p-value to be at most t={t:g}"
        )
    z = np.maximum(m * p1 / q1_eff, r1 * p2 / q2_eff)
    z[~sel] = np.inf
    return kernels.step_up_rows(z, np.arange(1.0, z.shape[1] + 1)), z, q1_eff, q2_eff


def _directed_fdr_rows(p1, p2, rule: SelectionRule, m: int, q1, q, mode, t):
    """:func:`_fdr_rows` on whole families: ``rule`` selects at primary
    level q1, and R1 is each row's selection count. Like :func:`_fdr_run`,
    the step-up sees only the selected entries: each row's are packed to
    the left of an (n, max R1) array, padded with p = 1 where ``sel`` is
    False, and the mask is scattered back to (n, m)."""
    sel = select_rows(rule.at_level(q1), p1, m)
    r1 = np.count_nonzero(sel, axis=1)
    packed_sel = np.arange(r1.max(initial=0)) < r1[:, None]
    # both list entries row by row, so a row's i-th selected entry goes
    # to column i of its packed row
    src, dst = np.flatnonzero(sel), np.flatnonzero(packed_sel)
    packed = np.ones((2, packed_sel.size))
    packed[0, dst] = p1.ravel()[src]
    packed[1, dst] = p2.ravel()[src]
    packed = packed.reshape((2,) + packed_sel.shape)
    packed_mask = _fdr_rows(*packed, packed_sel, r1[:, None], m, q1, q, mode, t)[0]
    mask = np.zeros(p1.size, dtype=bool)
    mask[src] = packed_mask.ravel()[dst]
    return mask.reshape(p1.shape)


def _fdr_run(
    data: StudyPairData, rule: SelectionRule, q1: float, q: float, mode: Dependence, t
) -> tuple[DiscoveryReport, np.ndarray]:
    """:func:`fdr_two_stage`'s report, and the dataset positions it rejects."""
    _check_levels(q1, q)
    label = f"fdr_two_stage[{mode.value}]"
    idx, p1, p2, r1 = _gather_selected(data, rule.at_level(q1), label)
    m = data.m
    sel = np.ones((1, idx.size), dtype=bool)
    mask, z, q1_eff, q2_eff = _fdr_rows(p1[None], p2[None], sel, r1, m, q1, q, mode, t)
    z = z[0]
    rows = idx[mask[0]]
    ids = data.ids
    report = DiscoveryReport(
        procedure=label,
        rejected_ids=tuple(ids[i] for i in rows),
        r1=r1,
        primary_threshold=rows.size * q1_eff / m,
        followup_threshold=rows.size * q2_eff / r1 if r1 else 0.0,
        per_hypothesis=_report_scores(data, idx, q * z, q * kernels.stepup_adjust(z)),
        adjusted_is_upper_bound=r1 > idx.size,
        scored_rows=tuple(idx.tolist()),
    )
    return report, rows


def fdr_two_stage(
    data: StudyPairData,
    rule: SelectionRule,
    q1: float,
    q: float,
    mode: Dependence = Dependence.INDEPENDENT,
    t: float | None = None,
) -> DiscoveryReport:
    """Two-stage FDR-controlling replicability procedure.

    Stage one selects hypotheses for follow-up with ``rule`` (which must be
    a valid selection rule for the guarantee to hold; a level-less ``bh``
    or ``bonferroni`` rule runs at q1). Stage two finds the largest r such
    that exactly r selected hypotheses clear the paired thresholds
    (r*q1_eff/m, r*q2_eff/R1) and rejects them. Dependence corrections
    shrink the effective levels per ``mode``.

    Reported per-hypothesis values: ``z_value`` is the two-study statistic
    max(m*p1~/c, R1*p2~/(1-c)) on the dependence-rescaled p-values, and
    ``adjusted_p`` its step-up adjustment, so thresholding adjusted values
    at q reproduces the rejection set. When the dataset lists only part of
    the follow-up set (``r1_declared``), adjusted values are upper-bound
    estimates and the unlisted rows are treated as non-rejectable.
    """
    return _fdr_run(data, rule, q1, q, mode, t)[0]


def fdr_two_stage_rscan(
    data: StudyPairData,
    rule: SelectionRule,
    q1: float,
    q: float,
    mode: Dependence = Dependence.INDEPENDENT,
    t: float | None = None,
) -> DiscoveryReport:
    """Reference implementation of :func:`fdr_two_stage` that evaluates the
    defining fixed point by exhaustive scan over every candidate rejection
    count, comparing raw p-values against the stage thresholds. Quadratic
    in R1; intended for cross-checking the production path in tests."""
    _check_levels(q1, q)
    label = f"fdr_two_stage_rscan[{mode.value}]"
    idx, p1, p2, r1 = _gather_selected(data, rule.at_level(q1), label)
    m = data.m
    q1_eff, q2_eff = _effective_levels(q1, q, mode, t, m, r1)
    r2 = 0
    for r in range(1, r1 + 1):  # r = 0 always holds, and R1 = 0 has no stage-2 level
        count = int(np.sum((p1 <= r * q1_eff / m) & (p2 <= r * q2_eff / r1)))
        if count == r:
            r2 = r
    mask = (p1 <= r2 * q1_eff / m) & (p2 <= r2 * q2_eff / r1) if r1 else np.zeros(0, bool)
    ids = data.ids
    return DiscoveryReport(
        procedure=label,
        rejected_ids=tuple(ids[i] for i in idx[mask]),
        r1=r1,
        primary_threshold=r2 * q1_eff / m,
        followup_threshold=r2 * q2_eff / r1 if r1 else 0.0,
    )


def _adjust_columns(
    p1: np.ndarray, p2: np.ndarray, m: int, r1: int, c: float, flavor: str
) -> tuple[np.ndarray, np.ndarray]:
    """The statistic Z = max(m*p1/c, R1*p2/(1-c)) of each row and its
    replicability adjusted value, capped at 1: Z itself for the
    ``bonferroni`` flavor, its step-up adjustment for ``fdr``."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    z = np.maximum(m * p1 / c, r1 * p2 / (1.0 - c))
    if flavor == "bonferroni":
        return z, np.minimum(z, 1.0)
    if flavor == "fdr":
        return z, np.minimum(kernels.stepup_adjust(z), 1.0)
    raise ValueError(f"unknown adjustment flavor {flavor!r}")


def fdr_replicability_adjust(
    data: StudyPairData, c: float
) -> tuple[HypothesisScore, ...]:
    """Step-up replicability adjusted p-values for the followed-up rows.

    Z_j = max(m*p1_j/c, R1*p2_j/(1-c)); the i-th smallest adjusted value is
    min over ranks j >= i of Z_(j)/j, capped at 1. Running the two-stage
    FDR procedure at levels (c*q, q) rejects exactly the hypotheses with
    adjusted value at most q. Scores are returned sorted by Z ascending.
    When only part of the follow-up set is listed, the values are
    upper-bound estimates (unlisted rows could only lower them).
    """
    idx, p1, p2, r1 = _gather_selected(data, SelectionRule.followed_up(), "adjust")
    z, adjusted = _adjust_columns(p1, p2, data.m, r1, c, "fdr")
    ids = data.ids
    return tuple(
        HypothesisScore(ids[idx[i]], float(z[i]), float(adjusted[i]))
        for i in np.argsort(z, kind="stable")
    )


def bonf_replicability_adjust(
    data: StudyPairData, c: float
) -> tuple[HypothesisScore, ...]:
    """Bonferroni-flavor replicability adjusted p-values, input order.

    adjusted_j = min(max(m*p1_j/c, R1*p2_j/(1-c)), 1): the smallest overall
    level alpha at which the two-stage FWER procedure with Bonferroni
    stages at (c*alpha, alpha) rejects hypothesis j.
    """
    idx, p1, p2, r1 = _gather_selected(data, SelectionRule.followed_up(), "adjust")
    z, adjusted = _adjust_columns(p1, p2, data.m, r1, c, "bonferroni")
    ids = data.ids
    return tuple(
        HypothesisScore(ids[i], float(zv), float(av))
        for i, zv, av in zip(idx, z, adjusted)
    )


def _fwer_rule(rule: SelectionRule, alpha1: float) -> SelectionRule:
    """The FWER procedure's selection at primary level alpha1: a level-less
    ``bh`` rule becomes the single-test threshold p1 <= alpha1/m."""
    if rule.kind == "bh" and rule.level is None:
        return SelectionRule("bonferroni", level=alpha1)
    return rule.at_level(alpha1)


def _fwer_rows(p1, p2, sel, r1, m: int, alpha1: float, alpha: float, method) -> np.ndarray:
    """Row kernel of :func:`fwer_two_stage`, with R1 at least 1. Holm's
    primary stage steps down over the selected entries of a family of m,
    which matches the whole family whenever the selection keeps the
    smallest p1 values."""
    _check_levels(alpha1, alpha)
    if method == FwerMethod.HOLM:
        primary = kernels.holm_rows(np.where(sel, p1, np.inf), alpha1, m)
        followup = kernels.holm_rows(np.where(sel, p2, np.inf), alpha - alpha1, r1)
    else:
        primary = p1 <= alpha1 / m
        followup = p2 <= (alpha - alpha1) / r1
    return sel & primary & followup


def _selected_fwer_rows(p1, p2, rule: SelectionRule, m: int, alpha1, alpha, method):
    """:func:`_fwer_rows` on whole families: ``rule`` selects, and R1 is
    each row's selection count."""
    sel = select_rows(_fwer_rule(rule, alpha1), p1, m)
    r1 = np.maximum(np.count_nonzero(sel, axis=1), 1)[:, None]
    return _fwer_rows(p1, p2, sel, r1, m, alpha1, alpha, method)


def fwer_two_stage(
    data: StudyPairData,
    rule: SelectionRule,
    alpha1: float,
    alpha: float,
    method: FwerMethod = FwerMethod.BONFERRONI,
) -> DiscoveryReport:
    """Two-stage FWER-controlling replicability procedure.

    Applies an FWER-controlling correction at level alpha1 to the primary
    study over the whole family, and at level alpha - alpha1 to the
    follow-up study over the selected set; the rejections are the
    intersection. With the Bonferroni method this is simply
    p1 <= alpha1/m and p2 <= (alpha-alpha1)/R1 for selected hypotheses,
    and rejection is equivalent to the Bonferroni-replicability adjusted
    p-value (at c = alpha1/alpha) being at most alpha. Valid under
    arbitrary dependence within each study. A level-less ``bh`` rule
    selects p1 <= alpha1/m, and a level-less ``bonferroni`` rule runs at
    alpha1.
    """
    method = FwerMethod(method)
    _check_levels(alpha1, alpha)
    label = f"fwer_two_stage[{method.value}]"
    idx, p1, p2, r1 = _gather_selected(data, _fwer_rule(rule, alpha1), label)
    m = data.m
    sel = np.ones((1, idx.size), dtype=bool)
    mask = _fwer_rows(p1[None], p2[None], sel, max(r1, 1), m, alpha1, alpha, method)[0]
    z, adjusted = _adjust_columns(p1, p2, m, r1, alpha1 / alpha, "bonferroni")
    ids = data.ids
    return DiscoveryReport(
        procedure=label,
        rejected_ids=tuple(ids[i] for i in idx[mask]),
        r1=r1,
        primary_threshold=alpha1 / m,
        followup_threshold=(alpha - alpha1) / r1 if r1 else 0.0,
        per_hypothesis=_report_scores(data, idx, z, adjusted),
        adjusted_is_upper_bound=r1 > idx.size,
        scored_rows=tuple(idx.tolist()),
    )


def _symmetric_rows(p1, p2, rule: SelectionRule, w1: float, m: int, q1, q, mode, t):
    """Row kernel of :func:`fdr_symmetric` on whole families: the union of
    the directed runs at (w1*q1, w1*q), study one primary, and at
    ((1-w1)*q1, (1-w1)*q), study two primary; a direction with zero
    weight is skipped."""
    mask = np.zeros(p1.shape, dtype=bool)
    if w1 > 0.0:
        mask |= _directed_fdr_rows(p1, p2, rule, m, w1 * q1, w1 * q, mode, t)
    if w1 < 1.0:
        mask |= _directed_fdr_rows(p2, p1, rule, m, (1.0 - w1) * q1, (1.0 - w1) * q, mode, t)
    return mask


def fdr_symmetric(
    data: StudyPairData,
    rule: SelectionRule,
    w1: float,
    q1: float,
    q: float,
    mode: Dependence = Dependence.INDEPENDENT,
    t: float | None = None,
    rule_reverse: SelectionRule | None = None,
) -> DiscoveryReport:
    """Symmetric two-stage FDR procedure for two interchangeable studies.

    Runs the directed procedure twice - study one as primary at levels
    (w1*q1, w1*q), then study two as primary at ((1-w1)*q1, (1-w1)*q) -
    and rejects the union. ``rule`` selects for the first direction and
    ``rule_reverse`` (default: same rule) for the second; a level-less
    ``bh`` or ``bonferroni`` rule runs at each direction's primary level.
    Weights 0 and 1 degenerate to a single directed run, which keeps that
    run's upper-bound flag. The report's thresholds and scores are those of
    the first direction that runs. The reversed direction (w1 < 1) requires
    complete data: study two's family is every listed row, so a partial
    listing cannot stand for it.
    """
    if not 0.0 <= w1 <= 1.0:
        raise ValueError(f"w1 must lie in [0, 1], got {w1}")
    _check_levels(q1, q)
    if w1 < 1.0:
        data.require_complete("the symmetric procedure" if w1 > 0.0 else "the reversed direction")
    runs = []
    if w1 > 0.0:
        runs.append(_fdr_run(data, rule, w1 * q1, w1 * q, mode, t))
    if w1 < 1.0:
        runs.append(_fdr_run(
            data.swap_studies(), rule if rule_reverse is None else rule_reverse,
            (1.0 - w1) * q1, (1.0 - w1) * q, mode, t,
        ))
    rejected = np.zeros(len(data.ids), dtype=bool)
    for _, rows in runs:
        rejected[rows] = True
    ids = data.ids
    first = runs[0][0]
    return replace(
        first,
        procedure=f"fdr_symmetric[w1={w1:g},{mode.value}]",
        rejected_ids=tuple(ids[i] for i in np.flatnonzero(rejected)),
        adjusted_is_upper_bound=len(runs) == 1 and first.adjusted_is_upper_bound,
    )


def _bh_report(
    data: StudyPairData, stat: np.ndarray, q: float, label: str
) -> DiscoveryReport:
    m = data.m
    mask = kernels.bh_rows(stat[None], q, m)[0]
    k = int(mask.sum())
    threshold = k * q / m
    ids = data.ids
    adjusted = np.minimum(kernels.stepup_adjust(m * stat), 1.0)
    scores = tuple(
        HypothesisScore(ids[i], float(stat[i]), float(adjusted[i]))
        for i in range(len(ids))
    )
    return DiscoveryReport(
        procedure=label,
        rejected_ids=tuple(ids[i] for i in np.flatnonzero(mask)),
        r1=m,
        primary_threshold=threshold,
        followup_threshold=threshold,
        per_hypothesis=scores,
        scored_rows=tuple(range(len(ids))),
    )


def baseline_partial_conjunction(data: StudyPairData, q: float) -> DiscoveryReport:
    """Step-up procedure at level q on the per-hypothesis maximum of the
    two study p-values: the conservative baseline that ignores the
    two-stage structure entirely. Requires complete data."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    data.require_complete("the partial-conjunction baseline")
    stat = np.maximum(data.p1, data.p2)
    return _bh_report(data, stat, q, "baseline_partial_conjunction")


def _naive_rows(p1, p2, q: float, m: int, primary: int):
    """Row kernel of :func:`baseline_naive_bh_bh`: the first-stage mask
    (step-up at q within the primary study) and the final rejections
    (step-up at q within the other study over the k1 first-stage
    rejections)."""
    a, b = (p1, p2) if primary == 1 else (p2, p1)
    first = kernels.bh_rows(a, q, m)
    k1 = np.maximum(np.count_nonzero(first, axis=1), 1)[:, None]
    return first, first & kernels.bh_rows(np.where(first, b, np.inf), q, k1)


def baseline_naive_bh_bh(
    data: StudyPairData, q: float, primary: int = 1
) -> DiscoveryReport:
    """The invalid folk procedure: step-up at level q within the primary
    study, then step-up at level q within the other study restricted to
    the first-stage rejections, reporting the intersection.

    Implemented for comparison only. Its FDR over no-replicability nulls
    is not controlled and can approach one; see the simulation suite.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if primary not in (1, 2):
        raise ValueError(f"primary study must be 1 or 2, got {primary}")
    data.require_complete("the naive two-step baseline")
    m = data.m
    first, mask = _naive_rows(data.p1[None], data.p2[None], q, m, primary)
    ids = data.ids
    k1 = int(first.sum())
    k2 = int(mask.sum())
    return DiscoveryReport(
        procedure=f"baseline_naive_bh_bh[primary={primary}]",
        rejected_ids=tuple(ids[i] for i in np.flatnonzero(mask[0])),
        r1=k1,
        primary_threshold=k1 * q / m,
        followup_threshold=k2 * q / k1 if k1 else 0.0,
    )


def fisher_combined_pvalues(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Meta-analysis combination of two p-values.

    The statistic -2(ln p1 + ln p2) is chi-square with 4 degrees of
    freedom under the joint null, giving the closed-form survival value
    exp(-u)(1+u) with u = -(ln p1 + ln p2). Computed from logs so that
    underflowing products never appear; an exact zero input saturates the
    combined value to zero.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        u = -(np.log(p1) + np.log(p2))
        return np.where(np.isinf(u), 0.0, np.exp(-u) * (1.0 + u))


def baseline_fisher_meta(data: StudyPairData, q: float) -> DiscoveryReport:
    """Fisher-combination meta-analysis followed by step-up at level q.

    Answers "associated in at least one study", not "replicated in both";
    included as the standard meta-analysis comparison point.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    data.require_complete("the meta-analysis baseline")
    combined = fisher_combined_pvalues(data.p1, data.p2)
    return _bh_report(data, combined, q, "baseline_fisher_meta")


def oracle_calibrated_run(
    data: StudyPairData,
    rule: SelectionRule,
    f00: float,
    f01: float,
    q: float,
    w1: float = 1.0,
    mode: Dependence = Dependence.INDEPENDENT,
    t: float | None = None,
    rule_reverse: SelectionRule | None = None,
) -> DiscoveryReport:
    """Run the two-stage procedure at the oracle-calibrated levels
    (q', 2q'), where q' solves the calibration quadratic in the known
    fractions of doubly-null (f00) and follow-up-only (f01) hypotheses.
    Less conservative than the plain procedure at (q1, q) while keeping
    FDR control at q; w1 selects the direction (0.5 runs symmetrically).
    """
    qp = solve_oracle_qprime(f00, f01, q, w1)
    report = fdr_symmetric(data, rule, w1, qp, 2.0 * qp, mode, t, rule_reverse=rule_reverse)
    return replace(report, procedure=f"oracle[q'={qp:.6g},w1={w1:g}]")
