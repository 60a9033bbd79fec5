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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import DiscoveryReport, HypothesisScore, StudyPairData
from .errors import DataError
from .numeric import harmonic, solve_oracle_qprime, solve_q1_tilde_thresholded
from .selection import SelectionRule, _select_mask, bh_mask

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
    q1: float, q: float, mode: Dependence, t: float | None, m: int, r1: int
) -> tuple[float, float]:
    """Per-stage levels after the dependence correction for ``mode``."""
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
        return q1 / harmonic(m), q2 / harmonic(max(r1, 1))
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


def _fdr_core(
    p1: np.ndarray, p2: np.ndarray, m: int, r1: int, q1_eff: float, q2_eff: float
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Step-up rejection over selected-row arrays at corrected levels.

    The scaled statistic z satisfies z <= r exactly when both p-values
    clear their stage-r thresholds, so the fixed-point rejection count is
    the usual step-up index over sorted z. Returns (r2, mask over the
    selected rows, z, suffix-min adjusted values on the z/rank scale).
    """
    n = p1.size
    if n == 0 or q1_eff <= 0.0 or q2_eff <= 0.0:
        return 0, np.zeros(n, dtype=bool), np.full(n, np.inf), np.full(n, np.inf)
    z = np.maximum(m * p1 / q1_eff, r1 * p2 / q2_eff)
    order = np.argsort(z, kind="stable")
    zs = z[order]
    ranks = np.arange(1, n + 1, dtype=float)
    adj_sorted = np.minimum.accumulate((zs / ranks)[::-1])[::-1]
    r2 = int(np.sum(adj_sorted <= 1.0))  # adj_sorted is nondecreasing
    mask = np.zeros(n, dtype=bool)
    mask[order[:r2]] = True
    adjusted = np.empty(n)
    adjusted[order] = adj_sorted
    return r2, mask, z, adjusted


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
    a valid selection rule for the guarantee to hold). Stage two finds the
    largest r such that exactly r selected hypotheses clear the paired
    thresholds (r*q1_eff/m, r*q2_eff/R1) and rejects them. Dependence
    corrections shrink the effective levels per ``mode``.

    Reported per-hypothesis values: ``z_value`` is the two-study statistic
    max(m*p1~/c, R1*p2~/(1-c)) on the dependence-rescaled p-values, and
    ``adjusted_p`` its step-up adjustment, so thresholding adjusted values
    at q reproduces the rejection set. When the dataset lists only part of
    the follow-up set (``r1_declared``), adjusted values are upper-bound
    estimates and the unlisted rows are treated as non-rejectable.
    """
    _check_levels(q1, q)
    label = f"fdr_two_stage[{mode.value}]"
    idx, p1, p2, r1 = _gather_selected(data, rule, label)
    m = data.m
    q1_eff, q2_eff = _effective_levels(q1, q, mode, t, m, r1)
    if mode is Dependence.ARBITRARY_PRIMARY_ITEM2 and idx.size and np.any(p1 > t):
        raise DataError(
            "the thresholded dependence mode requires every selected primary "
            f"p-value to be at most t={t:g}"
        )
    r2, mask, z, adjusted = _fdr_core(p1, p2, m, r1, q1_eff, q2_eff)
    ids = data.ids
    return DiscoveryReport(
        procedure=label,
        rejected_ids=tuple(ids[i] for i in idx[mask]),
        r1=r1,
        primary_threshold=r2 * q1_eff / m,
        followup_threshold=r2 * q2_eff / r1 if r1 else 0.0,
        per_hypothesis=_report_scores(data, idx, q * z, q * adjusted),
        adjusted_is_upper_bound=r1 > idx.size,
        scored_rows=tuple(idx.tolist()),
    )


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
    idx, p1, p2, r1 = _gather_selected(data, rule, label)
    m = data.m
    q1_eff, q2_eff = _effective_levels(q1, q, mode, t, m, r1)
    r2 = 0
    for r in range(r1 + 1):
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


def _zvalues(p1: np.ndarray, p2: np.ndarray, m: int, r1: int, c: float) -> np.ndarray:
    return np.maximum(m * p1 / c, r1 * p2 / (1.0 - c))


def _stepup_adjust(z: np.ndarray) -> np.ndarray:
    """Suffix-min of sorted z over ranks, mapped back to input positions."""
    n = z.size
    order = np.argsort(z, kind="stable")
    ranks = np.arange(1, n + 1, dtype=float)
    adj_sorted = np.minimum.accumulate((z[order] / ranks)[::-1])[::-1]
    out = np.empty(n)
    out[order] = np.minimum(adj_sorted, 1.0)
    return out


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
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    idx, p1, p2, r1 = _gather_selected(data, SelectionRule.followed_up(), "adjust")
    z = _zvalues(p1, p2, data.m, r1, c)
    adjusted = _stepup_adjust(z)
    ids = data.ids
    order = np.argsort(z, kind="stable")
    return tuple(
        HypothesisScore(ids[idx[i]], float(z[i]), float(adjusted[i])) for i in order
    )


def bonf_replicability_adjust(
    data: StudyPairData, c: float
) -> tuple[HypothesisScore, ...]:
    """Bonferroni-flavor replicability adjusted p-values, input order.

    adjusted_j = min(max(m*p1_j/c, R1*p2_j/(1-c)), 1): the smallest overall
    level alpha at which the two-stage FWER procedure with Bonferroni
    stages at (c*alpha, alpha) rejects hypothesis j.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    idx, p1, p2, r1 = _gather_selected(data, SelectionRule.followed_up(), "adjust")
    z = _zvalues(p1, p2, data.m, r1, c)
    ids = data.ids
    return tuple(
        HypothesisScore(ids[i], float(zv), float(min(zv, 1.0)))
        for i, zv in zip(idx, z)
    )


def _bonferroni_fwer_mask(p: np.ndarray, level: float, m_eff: int) -> np.ndarray:
    return p <= level / m_eff


def _holm_fwer_mask(p: np.ndarray, level: float, m_eff: int) -> np.ndarray:
    """Step-down rejections; rows not listed are assumed to rank after the
    listed ones when m_eff exceeds the array length."""
    n = p.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    ps = np.sort(p)
    thresholds = level / (m_eff - np.arange(n, dtype=float))
    failing = np.flatnonzero(ps > thresholds)
    k = n if failing.size == 0 else int(failing[0])
    if k == 0:
        return np.zeros(n, dtype=bool)
    return p <= ps[k - 1]


_FWER_MASKS = {
    FwerMethod.BONFERRONI: _bonferroni_fwer_mask,
    FwerMethod.HOLM: _holm_fwer_mask,
}


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
    arbitrary dependence within each study.
    """
    _check_levels(alpha1, alpha)
    method = FwerMethod(method)
    label = f"fwer_two_stage[{method.value}]"
    idx, p1, p2, r1 = _gather_selected(data, rule, label)
    m = data.m
    fwer_mask = _FWER_MASKS[method]
    primary_ok = fwer_mask(p1, alpha1, m)
    followup_ok = fwer_mask(p2, alpha - alpha1, max(r1, 1))  # r1 = 0: nothing selected
    mask = primary_ok & followup_ok
    c = alpha1 / alpha
    z = _zvalues(p1, p2, m, r1, c) if idx.size else np.zeros(0)
    ids = data.ids
    return DiscoveryReport(
        procedure=label,
        rejected_ids=tuple(ids[i] for i in idx[mask]),
        r1=r1,
        primary_threshold=alpha1 / m,
        followup_threshold=(alpha - alpha1) / r1 if r1 else 0.0,
        per_hypothesis=_report_scores(data, idx, z, z),
        adjusted_is_upper_bound=r1 > idx.size,
        scored_rows=tuple(idx.tolist()),
    )


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
    ``rule_reverse`` (default: same rule) for the second; note that a
    level-based rule is usually rescaled per direction by the caller.
    Weights 0 and 1 degenerate to a single directed run: a zero-level
    direction rejects nothing. Requires complete data.
    """
    if not 0.0 <= w1 <= 1.0:
        raise ValueError(f"w1 must lie in [0, 1], got {w1}")
    _check_levels(q1, q)
    data.require_complete("the symmetric procedure")
    if rule_reverse is None:
        rule_reverse = rule
    forward = (
        fdr_two_stage(data, rule, w1 * q1, w1 * q, mode, t) if w1 > 0.0 else None
    )
    reverse = (
        fdr_two_stage(data.swap_studies(), rule_reverse, (1.0 - w1) * q1, (1.0 - w1) * q, mode, t)
        if w1 < 1.0
        else None
    )
    primary = forward if forward is not None else reverse
    rejected = set()
    for part in (forward, reverse):
        if part is not None:
            rejected.update(part.rejected_ids)
    return DiscoveryReport(
        procedure=f"fdr_symmetric[w1={w1:g},{mode.value}]",
        rejected_ids=tuple(i for i in data.ids if i in rejected),
        r1=primary.r1,
        primary_threshold=primary.primary_threshold,
        followup_threshold=primary.followup_threshold,
        per_hypothesis=primary.per_hypothesis,
        scored_rows=primary.scored_rows,
    )


def _bh_report(
    data: StudyPairData, stat: np.ndarray, q: float, label: str
) -> DiscoveryReport:
    m = data.m
    mask = bh_mask(stat, q, m=m)
    k = int(mask.sum())
    threshold = k * q / m
    ids = data.ids
    adjusted = _stepup_adjust(m * stat)
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
    a, b = (data.p1, data.p2) if primary == 1 else (data.p2, data.p1)
    m = data.m
    first = bh_mask(a, q, m=m)
    idx = np.flatnonzero(first)
    second = bh_mask(b[idx], q)
    rejected_idx = idx[second]
    ids = data.ids
    k1 = int(first.sum())
    k2 = int(second.sum())
    return DiscoveryReport(
        procedure=f"baseline_naive_bh_bh[primary={primary}]",
        rejected_ids=tuple(ids[i] for i in rejected_idx),
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
    if w1 == 1.0:
        report = fdr_two_stage(data, rule, qp, 2.0 * qp, mode, t)
    elif w1 == 0.0:
        report = fdr_two_stage(
            data.swap_studies(), rule_reverse if rule_reverse is not None else rule,
            qp, 2.0 * qp, mode, t,
        )
    else:
        report = fdr_symmetric(
            data, rule, w1, qp, 2.0 * qp, mode, t, rule_reverse=rule_reverse
        )
    return DiscoveryReport(
        procedure=f"oracle[q'={qp:.6g},w1={w1:g}]",
        rejected_ids=report.rejected_ids,
        r1=report.r1,
        primary_threshold=report.primary_threshold,
        followup_threshold=report.followup_threshold,
        per_hypothesis=report.per_hypothesis,
        adjusted_is_upper_bound=report.adjusted_is_upper_bound,
        scored_rows=report.scored_rows,
    )
