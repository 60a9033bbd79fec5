"""Reference procedures: plain one-family versions of the step-up and
step-down rules, and of every simulated procedure built from them.

The package runs all of its procedures on the row kernels in
``replicability.kernels``. These are the earlier one-dimensional
implementations, kept apart from the package so that the property tests
compare the kernels with something other than themselves.
"""

from __future__ import annotations

import numpy as np

from replicability.numeric import harmonic, solve_oracle_qprime, solve_q1_tilde_thresholded
from replicability.procedures import Dependence, _fdr_rows, fisher_combined_pvalues
from replicability.selection import select_rows


def bh_mask(pvalues: np.ndarray, q: float, m: int | None = None) -> np.ndarray:
    """Step-up rejection mask at level q over ``pvalues``, with thresholds
    i*q/m (m defaults to the array length). Rejects everything at or
    below the realized threshold."""
    p = np.asarray(pvalues, dtype=float)
    n = p.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    m_eff = n if m is None else m
    ps = np.sort(p)
    thresholds = q * np.arange(1, n + 1) / m_eff
    passing = np.flatnonzero(ps <= thresholds)
    if passing.size == 0:
        return np.zeros(n, dtype=bool)
    return p <= ps[passing[-1]]


def holm_fwer_mask(p: np.ndarray, level: float, m_eff: int) -> np.ndarray:
    """Holm's step-down; rows not listed are assumed to rank after the
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


def stepup_on_rank_scale(z: np.ndarray) -> np.ndarray:
    """Step-up over z at thresholds 1, 2, ..., n, found as the number of
    suffix-minimum adjusted values z_(j)/j at most 1."""
    n = z.size
    order = np.argsort(z, kind="stable")
    ranks = np.arange(1, n + 1, dtype=float)
    adj_sorted = np.minimum.accumulate((z[order] / ranks)[::-1])[::-1]
    mask = np.zeros(n, dtype=bool)
    mask[order[: int(np.sum(adj_sorted <= 1.0))]] = True
    return mask


def select(rule, p1: np.ndarray, m: int, level: float) -> np.ndarray:
    """Selection mask of a numeric rule; a level-less rule runs at ``level``."""
    rule_level = level if rule.level is None else rule.level
    if rule.kind == "bh":
        return bh_mask(p1, rule_level, m)
    if rule.kind == "bonferroni":
        return p1 <= rule_level / m
    if rule.kind == "fixed_threshold":
        return p1 <= rule.threshold
    mask = np.zeros(p1.size, dtype=bool)
    mask[np.argsort(p1, kind="stable")[: rule.k]] = True
    return mask


def directed_fdr(p1, p2, rule, m: int, q1: float, q: float, mode: Dependence, t) -> np.ndarray:
    """The two-stage FDR procedure on one family, study one primary."""
    sel = select(rule, p1, m, q1)
    r1 = int(sel.sum())
    q1_eff, q2_eff = q1, q - q1
    if mode in (Dependence.ARBITRARY_PRIMARY_ITEM1, Dependence.ARBITRARY_BOTH):
        q1_eff = q1 / harmonic(m)
    if mode is Dependence.ARBITRARY_PRIMARY_ITEM2:
        q1_eff = solve_q1_tilde_thresholded(q1, m, t)
    if mode is Dependence.ARBITRARY_BOTH:
        q2_eff = (q - q1) / harmonic(max(r1, 1))
    idx = np.flatnonzero(sel)
    z = np.maximum(m * p1[idx] / q1_eff, r1 * p2[idx] / q2_eff)
    mask = np.zeros(m, dtype=bool)
    mask[idx[stepup_on_rank_scale(z)]] = True
    return mask


def directed_fdr_full_width(p1, p2, rule, m: int, q1: float, q: float, mode: Dependence, t):
    """The directed FDR kernel on (n, m) rows without a gather: z = inf off
    each row's selection, and the step-up runs over all m columns."""
    sel = select_rows(rule.at_level(q1), p1, m)
    r1 = np.count_nonzero(sel, axis=1)[:, None]
    return _fdr_rows(p1, p2, sel, r1, m, q1, q, mode, t)[0]


def fdr_directions(scenario) -> list[tuple[bool, float, float]]:
    """(study two primary, q1, q) of each directed run of an FDR-type
    simulated procedure."""
    proc = scenario.procedure
    if proc.kind == "fdr":
        return [(False, proc.q1, proc.q)]
    lo, hi = proc.q1, proc.q
    if proc.kind == "oracle":
        lo = solve_oracle_qprime(scenario.f00, scenario.f01, proc.q, proc.w1)
        hi = 2.0 * lo
    w1 = proc.w1
    runs = [(False, w1 * lo, w1 * hi)] if w1 > 0.0 else []
    return runs + ([(True, (1 - w1) * lo, (1 - w1) * hi)] if w1 < 1.0 else [])


def reference_mask(scenario, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Rejection mask of the scenario's procedure on one repetition."""
    proc, m, q = scenario.procedure, scenario.m, scenario.procedure.q
    if proc.kind in ("fdr", "fdr_symmetric", "oracle"):
        mask = np.zeros(m, dtype=bool)
        for swap, lo, hi in fdr_directions(scenario):
            a, b = (p2, p1) if swap else (p1, p2)
            mask |= directed_fdr(a, b, proc.selection, m, lo, hi, proc.mode, proc.t)
        return mask
    if proc.kind == "fwer":
        rule, alpha1 = proc.selection, proc.q1
        if rule.kind == "bh" and rule.level is None:
            rule = type(rule)("bonferroni", level=alpha1)
        sel = select(rule, p1, m, alpha1)
        r1 = max(int(sel.sum()), 1)
        if proc.fwer_method == "holm":
            followup = np.zeros(m, dtype=bool)
            followup[sel] = holm_fwer_mask(p2[sel], q - alpha1, r1)
            return sel & holm_fwer_mask(p1, alpha1, m) & followup
        return sel & (p1 <= alpha1 / m) & (p2 <= (q - alpha1) / r1)
    if proc.kind == "partial_conjunction":
        return bh_mask(np.maximum(p1, p2), q, m)
    if proc.kind == "fisher_meta":
        return bh_mask(fisher_combined_pvalues(p1, p2), q, m)
    a, b = (p1, p2) if proc.primary == 1 else (p2, p1)
    first = np.flatnonzero(bh_mask(a, q, m))
    mask = np.zeros(m, dtype=bool)
    mask[first[bh_mask(b[first], q)]] = True
    return mask
