"""Selection rules producing the follow-up set from primary-study
p-values, plus an empirical probe for rule validity.

A rule is *valid* when perturbing the p-value of a selected hypothesis,
in any way that keeps it selected, cannot change the selected set. The
step-up, fixed-count, and fixed-threshold rules here all have this
property; adaptive rules that estimate the null fraction do not and are
deliberately not offered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import StudyPairData
from .errors import DataError


def bh_mask(pvalues: np.ndarray, q: float, m: int | None = None) -> np.ndarray:
    """Step-up rejection mask at level q over ``pvalues``.

    ``m`` overrides the family size in the thresholds i*q/m (used when the
    array holds only part of the family); defaults to the array length.
    Rejects everything at or below the realized threshold, which makes tie
    handling deterministic.
    """
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


def bh_reject(pvalues, q: float) -> set[int]:
    """Indices rejected by the Benjamini-Hochberg step-up procedure at
    level q."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {q}")
    return set(np.flatnonzero(bh_mask(np.asarray(pvalues, dtype=float), q)).tolist())


@dataclass(frozen=True)
class SelectionRule:
    """Tagged rule mapping primary-study p-values to the follow-up set.

    Kinds: ``bh`` (step-up at a level), ``bonferroni`` (p1 <= level/m),
    ``top_k`` (k smallest p1, input-order tie-break), ``fixed_threshold``
    (p1 <= t), and ``explicit`` (caller-supplied ids, for reproducing
    selections whose rule used information outside the dataset).
    """

    kind: str
    level: float | None = None
    k: int | None = None
    threshold: float | None = None
    ids: frozenset[str] | None = None

    @staticmethod
    def bh_at_level(level: float) -> "SelectionRule":
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {level}")
        return SelectionRule("bh", level=level)

    @staticmethod
    def bonferroni_threshold(level: float) -> "SelectionRule":
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {level}")
        return SelectionRule("bonferroni", level=level)

    @staticmethod
    def top_k(k: int) -> "SelectionRule":
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        return SelectionRule("top_k", k=k)

    @staticmethod
    def fixed_threshold(t: float) -> "SelectionRule":
        if not 0.0 < t < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {t}")
        return SelectionRule("fixed_threshold", threshold=t)

    @staticmethod
    def explicit(ids) -> "SelectionRule":
        return SelectionRule("explicit", ids=frozenset(ids))

    @staticmethod
    def followed_up() -> "SelectionRule":
        """All rows that carry a follow-up p-value."""
        return SelectionRule("followup")


def _select_mask(rule: SelectionRule, data: StudyPairData, p1: np.ndarray) -> np.ndarray:
    n = p1.size
    if rule.kind == "bh":
        return bh_mask(p1, rule.level, m=data.m)
    if rule.kind == "bonferroni":
        return p1 <= rule.level / data.m
    if rule.kind == "fixed_threshold":
        return p1 <= rule.threshold
    if rule.kind == "top_k":
        if rule.k > data.m:
            raise DataError(
                f"top_k selection asks for {rule.k} of {data.m} hypotheses"
            )
        k = min(rule.k, n)
        order = np.argsort(p1, kind="stable")  # stable: ties broken by input order
        mask = np.zeros(n, dtype=bool)
        mask[order[:k]] = True
        return mask
    if rule.kind == "explicit":
        known = set(data.ids)
        unknown = rule.ids - known
        if unknown:
            raise DataError(
                f"explicit selection names ids absent from the dataset: "
                f"{sorted(unknown)[:3]}..."
                if len(unknown) > 3
                else f"explicit selection names ids absent from the dataset: {sorted(unknown)}"
            )
        return np.isin(np.array(data.ids, dtype=object), list(rule.ids))
    if rule.kind == "followup":
        return ~np.isnan(data.p2)
    raise ValueError(f"unknown selection rule kind {rule.kind!r}")


def select(rule: SelectionRule, data: StudyPairData) -> tuple[str, ...]:
    """The follow-up set chosen by ``rule``, as ids in input order."""
    mask = _select_mask(rule, data, data.p1)
    ids = data.ids
    return tuple(ids[i] for i in np.flatnonzero(mask))


@dataclass(frozen=True)
class ValidityCounterexample:
    perturbed_id: str
    replacement_p1: float
    selection_before: tuple[str, ...]
    selection_after: tuple[str, ...]


@dataclass(frozen=True)
class ValidityProbeReport:
    rule_kind: str
    probed: int
    counterexamples: tuple[ValidityCounterexample, ...]

    @property
    def looks_valid(self) -> bool:
        return not self.counterexamples


def probe_validity(
    rule: SelectionRule,
    data: StudyPairData,
    grid_size: int = 16,
    seed: int = 0,
    max_probed: int = 200,
) -> ValidityProbeReport:
    """Empirically stress the validity condition of a selection rule.

    For each selected hypothesis, its primary p-value is replaced by a
    grid of values spanning (0, 1]; perturbations under which it drops out
    of the selection are ignored (the condition only constrains ones that
    keep it selected), and any remaining perturbation that changes the
    selected set is reported as a counterexample. Evidence, not proof: a
    clean report does not certify the rule. When more than ``max_probed``
    hypotheses are selected, a seeded subsample is probed.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    p1 = data.p1_array()
    base_mask = _select_mask(rule, data, p1)
    base = tuple(np.flatnonzero(base_mask).tolist())
    selected = list(base)
    if len(selected) > max_probed:
        rng = np.random.default_rng(seed)
        selected = sorted(rng.choice(selected, size=max_probed, replace=False).tolist())
    grid = np.linspace(0.0, 1.0, grid_size + 1)[1:]  # (0, 1], endpoint included
    ids = data.ids
    found: list[ValidityCounterexample] = []
    for j in selected:
        original = p1[j]
        for v in grid:
            p1[j] = v
            mask = _select_mask(rule, data, p1)
            if mask[j]:
                after = tuple(np.flatnonzero(mask).tolist())
                if after != base:
                    found.append(
                        ValidityCounterexample(
                            perturbed_id=ids[j],
                            replacement_p1=float(v),
                            selection_before=tuple(ids[i] for i in base),
                            selection_after=tuple(ids[i] for i in after),
                        )
                    )
        p1[j] = original
    return ValidityProbeReport(
        rule_kind=rule.kind, probed=len(selected), counterexamples=tuple(found)
    )
