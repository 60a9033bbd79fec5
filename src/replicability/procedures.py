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

from dataclasses import dataclass, fields, replace
from numbers import Integral

import numpy as np

from . import kernels
from .data import DiscoveryReport, StudyPairData
from .errors import DataError, ParameterError
from .numeric import harmonic, solve_oracle_qprime, solve_q1_tilde_thresholded
from .params import Dependence, FwerMethod, check_levels
from .selection import SelectionRule, _select_mask, require_row_kind, select_rows


def _level_divisors(q1: float, mode: Dependence, t: float | None, m: int, r1) -> tuple:
    """(d1, d2), the dependence correction of ``mode``: the stage levels q1
    and q - q1 are divided by them, p1 and p2 multiplied. R1 is one count,
    or an (n, 1) column of one per row, which makes d2 a column under
    ``arbitrary_both``."""
    if mode is Dependence.ARBITRARY_PRIMARY_ITEM2:
        return q1 / solve_q1_tilde_thresholded(q1, m, t), 1.0
    if mode is Dependence.ARBITRARY_PRIMARY_ITEM1:
        return harmonic(m), 1.0
    if mode is Dependence.ARBITRARY_BOTH:
        return harmonic(m), np.vectorize(harmonic, otypes=[float])(np.maximum(r1, 1))
    return 1.0, 1.0


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


def _check_at_most_t(p1, sel, t: float) -> None:
    """Refuses a selected primary p-value above t, the thresholded mode's premise."""
    if np.any(sel & (p1 > t)):
        raise DataError(
            "the thresholded dependence mode requires every selected primary "
            f"p-value to be at most t={t:g}"
        )


def _report(
    label: str, data: StudyPairData, idx, mask, r1: int, levels, scores=None, passed=None
) -> DiscoveryReport:
    """The report of a run on the gathered rows ``idx``, which rejects
    ``idx[mask]``. Each stage level of ``levels`` over its family, m then
    R1, is the stage's realized threshold, 0.0 over an empty family; Holm's
    stages, which ``passed`` (k1, k2) entries, report the last step-down
    threshold they cleared, level/(family - max(k, 1) + 1). A run with
    ``scores``, its (z, adjusted) columns and level, scores exactly the
    gathered rows, flagged as upper bounds when fewer than R1 followed rows
    are listed. An adjusted value, capped at 1, is at most the level exactly
    on a rejected row, even where one on a stage threshold rounds across."""
    families = (data.m, r1)
    if passed is not None:
        families = tuple(n - max(k, 1) + 1 for n, k in zip(families, passed))
    primary, followup = (level / n if n else 0.0 for level, n in zip(levels, families))
    scored = {}
    if scores is not None:
        z, adj, level = scores
        adj = np.where(mask, np.minimum(adj, level), np.clip(adj, np.nextafter(level, 1), 1.0))
        scored = dict(scored_rows=idx, z=z, adjusted=adj, adjusted_is_upper_bound=r1 > idx.size)
    return DiscoveryReport(label, data.ids, idx[mask], r1, primary, followup, **scored)


# Row kernels: each maps (n, k) p-value arrays, one family per row, to an
# (n, k) rejection mask. The simulator runs them a chunk of repetitions at
# a time, the FDR kernel on each row's selected entries; the library
# procedures run them on one row. ``sel`` marks the selected entries and
# ``r1`` is R1, one count or an (n, 1) column of one per row. They take
# levels that each caller has passed through check_levels.


def _fdr_rows(p1, p2, sel, r1, m: int, q1: float, q: float, mode: Dependence, t):
    """Row kernel of :func:`fdr_two_stage`, study one primary.

    An entry clears the stage-r thresholds (r*q1_eff/m, r*q2_eff/R1) from
    its smallest such r on: the ceiling of z = max(m*p1/q1_eff,
    R1*p2/q2_eff), corrected by those comparisons, which round otherwise.
    The step-up over these r rejects the largest r that exactly r entries
    clear (Blanchard & Roquain's self-consistency form). Unselected entries
    get z = inf. Returns the mask, z and the effective levels.
    """
    d1, d2 = _level_divisors(q1, mode, t, m, r1)
    q1_eff, q2_eff = q1 / d1, (q - q1) / d2
    if mode is Dependence.ARBITRARY_PRIMARY_ITEM2:
        _check_at_most_t(p1, sel, t)
    z = np.maximum(m * p1 / q1_eff, r1 * p2 / q2_eff)
    z[~sel] = np.inf
    r1 = np.maximum(r1, 1)  # a row with R1 = 0 selects nothing

    def clears(r):
        return (p1 <= r * q1_eff / m) & (p2 <= r * q2_eff / r1)

    r = np.maximum(np.ceil(z), 1.0)
    r[(r > 1.0) & clears(r - 1.0)] -= 1.0
    r[~clears(r)] += 1.0
    return kernels.step_up_rows(r, np.arange(1.0, r.shape[1] + 1)), z, q1_eff, q2_eff


def _directed_fdr_rows(p1, p2, rule: SelectionRule, m: int, q1, q, mode, t):
    """:func:`_fdr_rows` on whole families: ``rule`` selects at primary
    level q1, and R1 is each row's selection count. Like :func:`fdr_two_stage`,
    the step-up sees only the selected entries, packed with p = 1 padding."""
    sel = select_rows(rule.at_level(q1), p1, m)
    r1 = np.count_nonzero(sel, axis=1)[:, None]
    return kernels.packed_rows(
        sel, (p1, p2), 1.0, lambda slots, a, b: _fdr_rows(a, b, slots, r1, m, q1, q, mode, t)[0]
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
    a valid selection rule for the guarantee to hold; a level-less ``bh``
    or ``bonferroni`` rule runs at q1). Stage two finds the largest r such
    that exactly r selected hypotheses clear the paired thresholds
    (r*q1_eff/m, r*q2_eff/R1) and rejects them. Dependence corrections
    shrink the effective levels per ``mode``.

    The report's ``z`` column is the two-study statistic
    max(m*p1~/c, R1*p2~/(1-c)) on the dependence-rescaled p-values, and
    ``adjusted`` its step-up adjustment: thresholding adjusted values at
    q reproduces the rejection set exactly. With only part of the
    follow-up set listed (``r1_declared``), adjusted values are
    upper-bound estimates and unlisted rows are non-rejectable.
    """
    mode = check_levels(q1, q, mode=mode, t=t)
    label = f"fdr_two_stage[{mode.value}]"
    idx, p1, p2, r1 = _gather_selected(data, rule.at_level(q1), label)
    sel = np.ones((1, idx.size), dtype=bool)
    mask, z, q1_eff, q2_eff = _fdr_rows(p1[None], p2[None], sel, r1, data.m, q1, q, mode, t)
    z, mask = z[0], mask[0]
    r2 = int(np.count_nonzero(mask))
    scores = (q * z, q * kernels.stepup_adjust(z), q)
    return _report(label, data, idx, mask, r1, (r2 * q1_eff, r2 * q2_eff), scores)


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
    mode = check_levels(q1, q, mode=mode, t=t)
    label = f"fdr_two_stage_rscan[{mode.value}]"
    idx, p1, p2, r1 = _gather_selected(data, rule.at_level(q1), label)
    m = data.m
    d1, d2 = _level_divisors(q1, mode, t, m, r1)
    q1_eff, q2_eff = q1 / d1, (q - q1) / d2
    r2 = 0
    for r in range(1, r1 + 1):  # r = 0 always holds, and R1 = 0 has no stage-2 level
        count = int(np.sum((p1 <= r * q1_eff / m) & (p2 <= r * q2_eff / r1)))
        if count == r:
            r2 = r
    mask = (p1 <= r2 * q1_eff / m) & (p2 <= r2 * q2_eff / r1) if r1 else np.zeros(0, bool)
    return _report(label, data, idx, mask, r1, (r2 * q1_eff, r2 * q2_eff))


def _adjust_columns(
    p1: np.ndarray, p2: np.ndarray, m: int, r1: int, c: float, flavor: str
) -> tuple[np.ndarray, np.ndarray]:
    """Z = max(m*p1/c, R1*p2/(1-c)) per row and its adjusted value, capped at 1: Z for
    ``bonferroni``, its step-up adjustment for ``fdr``, for ``holm`` max(h1/c, h2/(1-c)) of
    the step-down adjusted p1 over m and p2 over R1. The caller has checked c and the flavor."""
    z = np.maximum(m * p1 / c, r1 * p2 / (1.0 - c))
    if flavor == "holm":
        h1, h2 = kernels.stepdown_adjust(p1, m), kernels.stepdown_adjust(p2, r1)
        return z, np.minimum(np.maximum(h1 / c, h2 / (1.0 - c)), 1.0)
    return z, np.minimum(z if flavor == "bonferroni" else kernels.stepup_adjust(z), 1.0)


def _fwer_rule(rule: SelectionRule, alpha1: float) -> SelectionRule:
    """The FWER procedure's selection at primary level alpha1: a level-less
    ``bh`` rule becomes the single-test threshold p1 <= alpha1/m."""
    if rule.kind == "bh" and rule.level is None:
        return SelectionRule("bonferroni", level=alpha1)
    return rule.at_level(alpha1)


def _fwer_rows(p1, p2, sel, r1, m: int, alpha1: float, alpha: float, method):
    """Row kernel of :func:`fwer_two_stage`, with R1 at least 1: the
    rejection mask, then the primary and follow-up stage masks. Holm's
    primary stage steps down over the selected entries of a family of m,
    which matches the whole family whenever the selection keeps the
    smallest p1 values."""
    if method == FwerMethod.HOLM:
        primary = kernels.holm_rows(np.where(sel, p1, np.inf), alpha1, m)
        followup = kernels.holm_rows(np.where(sel, p2, np.inf), alpha - alpha1, r1)
    else:
        primary = p1 <= alpha1 / m
        followup = p2 <= (alpha - alpha1) / r1
    return sel & primary & followup, primary, followup


def _selected_fwer_rows(proc: "Procedure", p1, p2, m: int, alpha1, alpha):
    """:func:`_fwer_rows` on whole families: the procedure's rule selects,
    and R1 is each row's selection count."""
    sel = select_rows(_fwer_rule(proc.selection, alpha1), p1, m)
    r1 = np.maximum(np.count_nonzero(sel, axis=1), 1)[:, None]
    return _fwer_rows(p1, p2, sel, r1, m, alpha1, alpha, proc.fwer_method)[0]


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
    check_levels(alpha1, alpha)
    label = f"fwer_two_stage[{method.value}]"
    idx, p1, p2, r1 = _gather_selected(data, _fwer_rule(rule, alpha1), label)
    m = data.m
    sel = np.ones((1, idx.size), dtype=bool)
    mask, *stages = _fwer_rows(p1[None], p2[None], sel, max(r1, 1), m, alpha1, alpha, method)
    passed = [int(np.count_nonzero(s)) for s in stages] if method == FwerMethod.HOLM else None
    scores = (*_adjust_columns(p1, p2, m, r1, alpha1 / alpha, method.value), alpha)
    return _report(label, data, idx, mask[0], r1, (alpha1, alpha - alpha1), scores, passed)


def _symmetric_rows(proc: "Procedure", p1, p2, m: int, q1, q):
    """Row kernel of :func:`fdr_symmetric` on whole families, at levels
    (q1, q): the union of the directed runs at (w1*q1, w1*q), study one
    primary, and at ((1-w1)*q1, (1-w1)*q), study two primary; a direction
    with zero weight is skipped. It is the ``fdr`` kernel at w1 = 1."""
    mask = None
    for w, a, b in ((proc.w1, p1, p2), (1.0 - proc.w1, p2, p1)):
        if w > 0.0:
            run = _directed_fdr_rows(a, b, proc.selection, m, w * q1, w * q, proc.mode, proc.t)
            mask = run if mask is None else mask | run
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
    the first direction that runs: for 0 < w1 < 1, a scored row that only
    the reversed direction rejects has an ``adjusted`` value above w1*q, the
    first direction's level. The reversed direction (w1 < 1) requires
    complete data: study two's family is every listed row, so a partial
    listing cannot stand for it.
    """
    mode = check_levels(q1, q, w1, mode, t)
    directions = [(w1, data, rule)]
    if w1 < 1.0:
        what = "the symmetric procedure" if w1 > 0.0 else "the reversed direction"
        directions.append((1.0 - w1, data.swap_studies(what), rule_reverse or rule))
    runs = [fdr_two_stage(d, r, w * q1, w * q, mode, t) for w, d, r in directions if w > 0.0]
    first = runs[0]
    return replace(
        first,
        procedure=f"fdr_symmetric[w1={w1:g},{mode.value}]",
        rejected_rows=np.unique(np.concatenate([run.rejected_rows for run in runs])),
        adjusted_is_upper_bound=len(runs) == 1 and first.adjusted_is_upper_bound,
    )


def _stepup_kind(stat, label: str, what: str):
    """The ``_KINDS`` entry of a baseline that steps up at level q over
    ``stat(p1, p2)`` on complete data, which ``what`` names in its refusal."""

    def run(proc: "Procedure", data: StudyPairData, fractions) -> DiscoveryReport:
        data.require_complete(what)
        m, values = data.m, stat(data.p1, data.p2)
        mask = kernels.bh_rows(values[None], proc.q, m)[0]
        level = np.count_nonzero(mask) * proc.q
        scores = (values, kernels.stepup_adjust(m * values), proc.q)
        return _report(label, data, np.arange(m), mask, m, (level, level), scores)

    return ("q",), run, lambda p, p1, p2, m, q1, q: kernels.bh_rows(stat(p1, p2), q, m)


def _naive_rows(p1, p2, q: float, m: int, primary: int):
    """Row kernel of the ``naive_bh_bh`` baseline: the first-stage mask
    (step-up at q within the primary study) and the final rejections
    (step-up at q within the other study over the k1 first-stage
    rejections)."""
    a, b = (p1, p2) if primary == 1 else (p2, p1)
    first = kernels.bh_rows(a, q, m)
    k1 = np.maximum(np.count_nonzero(first, axis=1), 1)[:, None]
    return first, first & kernels.bh_rows(np.where(first, b, np.inf), q, k1)


def _naive_run(proc: "Procedure", data: StudyPairData, fractions) -> DiscoveryReport:
    data.require_complete("the naive two-step baseline")
    m, q = data.m, proc.q
    first, mask = _naive_rows(data.p1[None], data.p2[None], q, m, proc.primary)
    k1, r2 = int(first.sum()), int(mask.sum())
    label = f"baseline_naive_bh_bh[primary={proc.primary}]"
    return _report(label, data, np.arange(m), mask[0], k1, (k1 * q, r2 * q))


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


def _oracle_run(proc: "Procedure", data: StudyPairData, fractions) -> DiscoveryReport:
    qp, q = proc.levels(fractions)
    report = fdr_symmetric(data, proc.selection, proc.w1, qp, q, proc.mode, proc.t)
    return replace(report, procedure=f"oracle[q'={qp:.6g},w1={proc.w1:g}]")


# kind: (the fields it reads, run(proc, data, fractions) its library procedure,
# kernel(proc, p1, p2, m, q1, q) its row kernel at the levels of Procedure.levels).
# The runs call the procedures by their module-level names, which a tracer may patch.
_KINDS = {
    "fdr": (
        ("q1", "q", "mode", "t", "selection"),
        lambda p, data, fr: fdr_two_stage(data, p.selection, p.q1, p.q, p.mode, p.t),
        _symmetric_rows,
    ),
    "fdr_symmetric": (
        ("q1", "q", "mode", "t", "selection", "w1"),
        lambda p, data, fr: fdr_symmetric(data, p.selection, p.w1, p.q1, p.q, p.mode, p.t),
        _symmetric_rows,
    ),
    "fwer": (
        ("q1", "q", "fwer_method", "selection"),
        lambda p, data, fr: fwer_two_stage(data, p.selection, p.q1, p.q, p.fwer_method),
        _selected_fwer_rows,
    ),
    "partial_conjunction": _stepup_kind(
        np.maximum, "baseline_partial_conjunction", "the partial-conjunction baseline"
    ),
    "naive_bh_bh": (
        ("q", "primary"),
        _naive_run,
        lambda p, p1, p2, m, q1, q: _naive_rows(p1, p2, q, m, p.primary)[1],
    ),
    "fisher_meta": _stepup_kind(
        fisher_combined_pvalues, "baseline_fisher_meta", "the meta-analysis baseline"
    ),
    "oracle": (("q", "w1", "mode", "t", "selection"), _oracle_run, _symmetric_rows),
}


@dataclass(frozen=True)
class Procedure:
    """A procedure kind with its levels: :meth:`run` is its library
    procedure on a dataset, :meth:`kernel` its row kernel for the simulator.
    ``_KINDS`` lists the fields each kind reads; any other field is refused
    unless at its default. The default level-less ``bh`` selection runs at
    each direction's primary-stage level (for ``fwer``, as p1 <= alpha1/m).

    ``fdr``, ``fdr_symmetric`` and ``fwer`` (levels alpha1, alpha) run
    :func:`fdr_two_stage`, :func:`fdr_symmetric` and :func:`fwer_two_stage`.
    The baselines step up at level q on complete data: ``partial_conjunction``
    on max(p1, p2), ignoring the two stages; ``fisher_meta`` on
    :func:`fisher_combined_pvalues` ("associated in at least one study", not
    "replicated in both"); the invalid ``naive_bh_bh`` within study
    ``primary``, then within the other over its rejections (its FDR can
    approach one). The ``oracle`` runs :func:`fdr_symmetric` at (q', 2q'),
    q' by :func:`solve_oracle_qprime` from the known fractions ``(f00, f01)``
    of doubly-null and follow-up-only hypotheses that :meth:`run` and
    :meth:`kernel` take: less conservative than (q1, q), FDR control at q."""

    kind: str = "fdr"
    q1: float | None = None
    q: float = 0.05
    w1: float = 1.0
    mode: Dependence = Dependence.INDEPENDENT
    t: float | None = None
    fwer_method: FwerMethod = FwerMethod.BONFERRONI
    primary: int = 1
    selection: SelectionRule = SelectionRule("bh")

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown procedure kind {self.kind!r}")
        reads = _KINDS[self.kind][0]
        for f in fields(self):
            if f.name not in ("kind", *reads) and getattr(self, f.name) != f.default:
                raise ParameterError(f"procedure {self.kind!r} does not read {f.name}")
        if "q1" in reads and self.q1 is None:
            raise ParameterError(f"procedure {self.kind!r} needs q1 (or alpha1)")
        object.__setattr__(self, "mode", check_levels(self.q1, self.q, self.w1, self.mode, self.t))
        object.__setattr__(self, "fwer_method", FwerMethod(self.fwer_method))
        primary = self.primary
        if isinstance(primary, bool) or not isinstance(primary, Integral) or primary not in (1, 2):
            raise ParameterError(f"primary study must be 1 or 2, got {primary}")
        if not isinstance(self.selection, SelectionRule):
            raise ParameterError(f"selection must be a SelectionRule, got {self.selection!r}")

    def levels(self, fractions=None) -> tuple[float | None, float]:
        """The (primary, overall) levels the kind runs at: (q1, q), or the
        oracle's calibrated (q', 2q') from ``fractions``, checked."""
        if self.kind != "oracle":
            return self.q1, self.q
        if fractions is None:
            raise ParameterError("procedure 'oracle' needs the fractions (f00, f01)")
        qp = solve_oracle_qprime(*fractions, self.q, self.w1)
        check_levels(qp, 2.0 * qp, self.w1, self.mode, self.t)
        return qp, 2.0 * qp

    def run(self, data: StudyPairData, fractions=None) -> DiscoveryReport:
        """The library procedure of this kind on ``data``."""
        return _KINDS[self.kind][1](self, data, fractions)

    def kernel(self, m: int, fractions=None):
        """mask = f(p1, p2) over (n, m) rows, one family of m per row, at
        levels resolved once; only a selection made from p1 alone runs so."""
        require_row_kind(self.selection, m)
        q1, q = self.levels(fractions)
        rows = _KINDS[self.kind][2]
        return lambda p1, p2: rows(self, p1, p2, m, q1, q)

    def settings(self) -> dict:
        """The fields this kind reads but its selection, keyed as a run
        summary names them (an FWER run's levels are alpha1 and alpha)."""
        keys = {"mode": "dependence", "fwer_method": "method"}
        if self.kind == "fwer":
            keys.update(q1="alpha1", q="alpha")
        names = [name for name in _KINDS[self.kind][0] if name != "selection"]
        return {keys.get(n, n): getattr(getattr(self, n), "value", getattr(self, n)) for n in names}
