"""Selection rules producing the follow-up set from primary-study
p-values, plus an empirical probe for rule validity.

A rule is *valid* when perturbing the p-value of a selected hypothesis,
in any way that keeps it selected, cannot change the selected set. The
step-up, fixed-count, and fixed-threshold rules here all have this
property; adaptive rules that estimate the null fraction do not and are
deliberately not offered.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .data import StudyPairData
from .errors import DataError, ParameterError
from .params import check_count, check_levels


def bh_reject(pvalues, q: float) -> set[int]:
    """Indices rejected by the Benjamini-Hochberg step-up procedure at
    level q."""
    check_levels(None, q)
    p = np.asarray(pvalues, dtype=float)[None]
    return set(np.flatnonzero(kernels.bh_rows(p, q, p.size)[0]).tolist())


# the parameter each kind reads; each kind needs its own, except that a
# level-less bh or bonferroni rule takes a procedure's primary-stage level
_READS = {"bh": "level", "bonferroni": "level", "top_k": "k", "fixed_threshold": "threshold",
          "explicit": "ids", "followup": None}


@dataclass(frozen=True)
class SelectionRule:
    """Tagged rule mapping primary-study p-values to the follow-up set.

    Kinds: ``bh`` (step-up at a level), ``bonferroni`` (p1 <= level/m),
    ``top_k`` (k smallest p1, input-order tie-break), ``fixed_threshold``
    (p1 <= t), ``explicit`` (caller-supplied ids, any iterable but a str,
    kept as a frozenset: for selections whose rule used information outside
    the dataset), and ``followup`` (every row with a follow-up p-value). A
    ``bh`` or ``bonferroni`` rule without a level runs at the primary-stage
    level of the procedure direction that uses it (see :meth:`at_level`).
    """

    kind: str
    level: float | None = None
    k: int | None = None
    threshold: float | None = None
    ids: frozenset[str] | None = None

    def __post_init__(self):
        if self.kind not in _READS:
            raise ParameterError(f"unknown selection rule kind {self.kind!r}")
        field = _READS[self.kind]
        for name in ("level", "k", "threshold", "ids"):
            if name != field and getattr(self, name) is not None:
                raise ParameterError(f"{self.kind} selection does not read {name}")
        if field not in (None, "level") and getattr(self, field) is None:
            raise ParameterError(f"{self.kind} selection needs {field}")
        if self.k is not None:
            check_count("k", self.k, 1)
        for name in ("level", "threshold"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < 1.0:
                raise ParameterError(f"{self.kind} selection needs {name} in (0, 1), got {value}")
        if isinstance(self.ids, str):  # an iterable of its characters
            raise ParameterError(f"explicit selection needs a collection of ids, got {self.ids!r}")
        if self.ids is not None:
            object.__setattr__(self, "ids", frozenset(self.ids))

    @staticmethod
    def bh_at_level(level: float) -> "SelectionRule":
        # only the benchmark's traced probes call this; ROADMAP item 3 deletes it
        return SelectionRule("bh", level=level)

    @staticmethod
    def followed_up() -> "SelectionRule":
        # only the benchmark's traced probes call this; ROADMAP item 3 deletes it
        return SelectionRule("followup")

    def at_level(self, level: float) -> "SelectionRule":
        """The rule as run by a procedure direction whose primary-stage
        level is ``level``: a level-less ``bh`` or ``bonferroni`` rule
        takes that level, and any other rule is unchanged."""
        if self.kind in ("bh", "bonferroni") and self.level is None:
            return replace(self, level=level)
        return self


ROW_KINDS = ("bh", "bonferroni", "top_k", "fixed_threshold")


def require_row_kind(rule: SelectionRule, m: int) -> None:
    """Refuses a rule that :func:`select_rows` cannot make from the p1 of a family of m."""
    if rule.kind not in ROW_KINDS:
        raise ParameterError(
            f"{rule.kind} selection is not made from primary p-values alone; "
            f"expected one of {', '.join(ROW_KINDS)}"
        )
    if rule.kind == "top_k" and rule.k > m:
        raise DataError(f"top_k selection asks for {rule.k} of {m} hypotheses")


def _require_level(rule: SelectionRule) -> None:
    """Refuses a level-less ``bh`` or ``bonferroni`` rule."""
    if rule.kind in ("bh", "bonferroni") and rule.level is None:
        raise ParameterError(
            f"{rule.kind} selection without a level runs only inside a "
            "procedure, at its primary-stage level"
        )


def select_rows(rule: SelectionRule, p1: np.ndarray, m: int) -> np.ndarray:
    """Selection mask of a rule of one of the ``ROW_KINDS`` over (n, k)
    primary p-values, each row listing k members of a family of m."""
    require_row_kind(rule, m)
    _require_level(rule)
    if rule.kind == "bh":
        return kernels.bh_rows(p1, rule.level, m)
    if rule.kind == "bonferroni":
        return p1 <= rule.level / m
    if rule.kind == "fixed_threshold":
        return p1 <= rule.threshold
    return kernels.top_k_rows(p1, rule.k)


def _select_mask(rule: SelectionRule, data: StudyPairData, p1: np.ndarray) -> np.ndarray:
    if rule.kind == "explicit":
        ids = data.ids.tolist()  # as Python str: numpy's stop at a NUL
        unknown = sorted(rule.ids.difference(ids))
        if unknown:
            shown = f"{unknown[:3]}..." if len(unknown) > 3 else f"{unknown}"
            raise DataError(f"explicit selection names ids absent from the dataset: {shown}")
        return np.fromiter(map(rule.ids.__contains__, ids), bool, len(ids))
    if rule.kind == "followup":
        return ~np.isnan(data.p2)
    return select_rows(rule, p1[None], data.m)[0]


def select(rule: SelectionRule, data: StudyPairData) -> tuple[str, ...]:
    """The follow-up set chosen by ``rule``, as ids in input order."""
    return tuple(data.ids[_select_mask(rule, data, data.p1)].tolist())


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


_MAX_PROBED = 200  # selected hypotheses probe_validity perturbs at most


def _check_probe(rule: SelectionRule, grid_size: int, seed: int) -> None:
    """Checks :func:`probe_validity`'s arguments but its data."""
    _require_level(rule)
    check_count("grid_size", grid_size, 2)
    check_count("seed", seed, 0)


def probe_validity(
    rule: SelectionRule,
    data: StudyPairData,
    grid_size: int = 16,
    seed: int = 0,
) -> ValidityProbeReport:
    """Empirically stress the validity condition of a selection rule.

    For each selected hypothesis, its primary p-value is replaced by a
    grid of values spanning (0, 1]; perturbations under which it drops out
    of the selection are ignored (the condition only constrains ones that
    keep it selected), and any remaining perturbation that changes the
    selected set is reported as a counterexample. Evidence, not proof: a
    clean report does not certify the rule. When more than ``_MAX_PROBED``
    hypotheses are selected, a seeded subsample is probed.
    """
    _check_probe(rule, grid_size, seed)
    p1 = data.p1.copy()
    base_mask = _select_mask(rule, data, p1)
    selected = np.flatnonzero(base_mask).tolist()
    before = tuple(data.ids[base_mask].tolist())
    if len(selected) > _MAX_PROBED:
        rng = np.random.default_rng(seed)
        selected = sorted(rng.choice(selected, size=_MAX_PROBED, replace=False).tolist())
    grid = np.linspace(0.0, 1.0, grid_size + 1)[1:]  # (0, 1], endpoint included
    found: list[ValidityCounterexample] = []
    for j in selected:
        original = p1[j]
        for v in grid:
            p1[j] = v
            mask = _select_mask(rule, data, p1)
            if mask[j] and not np.array_equal(mask, base_mask):
                after = tuple(data.ids[mask].tolist())
                found.append(ValidityCounterexample(data.ids[j], float(v), before, after))
        p1[j] = original
    return ValidityProbeReport(
        rule_kind=rule.kind, probed=len(selected), counterexamples=tuple(found)
    )
