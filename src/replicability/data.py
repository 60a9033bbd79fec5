"""Core domain types: the two-study dataset, built from columns of ids and
p-values, its validation (the first fault, or None), and discovery
reports.

All types are immutable value objects after construction and safe to share
across threads. Hypothesis order is preserved from the input everywhere;
set-valued outputs are reported in input order for determinism.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
from numpy.dtypes import StringDType

from .errors import DataError, ParameterError

# Truth states as (primary, follow-up): I00 null in both studies, I01 and I10
# non-null only in the follow-up and only in the primary, I11 non-null in
# both (the replicable signals). Simulated truth is uint8 codes into this.
TRUTH_LABELS = ("I00", "I01", "I10", "I11")


@dataclass(frozen=True)
class HypothesisRecord:
    """One row of :attr:`StudyPairData.records`: a hypothesis's label,
    primary-study p-value and follow-up p-value, None if it was not
    followed up."""

    id: str
    p1: float
    p2: float | None = None


class RowView(Sequence):
    """Read-only rows of a columnar table: row ``i`` is ``build(i)``, made
    when it is read."""

    def __init__(self, n: int, build: Callable[[int], object]):
        self._n, self._build = n, build

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        rows = range(self._n)[i]  # bounds-checked, negative indices resolved
        return tuple(map(self._build, rows)) if isinstance(i, slice) else self._build(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


# the id column's dtype: UTF-8 with short ids inline, refusing a non-str
ID = StringDType(coerce=False)


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``: kept if it is one that owns its data."""
    kept = type(values) is np.ndarray and values.dtype == dtype
    if not (kept and values.flags.owndata and not values.flags.writeable):
        values = np.array(values, dtype=dtype)
        values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class StudyPairData:
    """A family of hypotheses tested in a primary and a follow-up study.

    Built from columns, ``StudyPairData(ids, p1, p2)``, and stored as
    read-only arrays: ``ids`` of :data:`ID` strings (a non-str id is a
    ValueError), which numpy compares only up to a NUL, so compare them as
    Python str (``ids.tolist()``), and ``p1`` and ``p2`` of float64. A
    column that already is one and owns its data is kept, any other is
    copied. NaN in ``p2`` marks a hypothesis that was not followed up.

    ``m_declared`` overrides the family size when the dataset lists only a
    subset of the tested hypotheses (e.g. only the ones followed up out of
    millions screened). ``r1_declared`` likewise overrides the follow-up
    set size when only a subset of followed-up rows is available. Each is
    None or an integer (a bool or a float is a ParameterError); its range
    is checked by :func:`validate_dataset`.
    """

    _ids: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    m_declared: int | None = None
    r1_declared: int | None = None

    def __init__(self, ids, p1, p2, m_declared: int | None = None, r1_declared: int | None = None):
        ids, p1, p2 = _column(ids, ID), _column(p1, float), _column(p2, float)
        if not p1.shape == p2.shape == ids.shape == (ids.size,):
            raise ValueError(f"columns differ in length: {ids.size}, {p1.shape}, {p2.shape}")
        for name, value in (("m_declared", m_declared), ("r1_declared", r1_declared)):
            if value is not None and (isinstance(value, bool) or not isinstance(value, Integral)):
                raise ParameterError(f"{name} must be an integer or None, got {value!r}")
        fields = dict(_ids=ids, p1=p1, p2=p2, m_declared=m_declared, r1_declared=r1_declared)
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StudyPairData):
            return NotImplemented
        return (
            self.m_declared == other.m_declared
            and self.r1_declared == other.r1_declared
            and np.array_equal(self.p1, other.p1)
            and np.array_equal(self.p2, other.p2, equal_nan=True)
            and self.ids.tolist() == other.ids.tolist()
        )

    @property
    def m(self) -> int:
        """Effective family size; DataError if empty: no procedure runs on it."""
        m = self.m_declared if self.m_declared is not None else len(self.ids)
        if m < 1:
            raise DataError(f"the family size m must be positive, got {m}")
        return m

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def records(self) -> Sequence[HypothesisRecord]:
        ids, p1, p2 = self.ids, self.p1, self.p2

        def record(i: int) -> HypothesisRecord:
            follow = float(p2[i])
            return HypothesisRecord(ids[i], float(p1[i]), None if follow != follow else follow)

        return RowView(len(ids), record)

    def p1_array(self) -> np.ndarray:
        """A writable copy of the primary p-values."""
        return self.p1.copy()

    @property
    def r1_listed(self) -> int:
        """Number of rows carrying a follow-up p-value."""
        return int(np.count_nonzero(~np.isnan(self.p2)))

    def swap_studies(self, what: str = "swapping the study roles") -> "StudyPairData":
        """Exchange the roles of the two studies, if :meth:`require_complete`
        passes; ``what`` names the swap in its refusal."""
        self.require_complete(what)
        return StudyPairData(self.ids, self.p2, self.p1, self.m_declared)

    def require_complete(self, what: str) -> None:
        missing = np.flatnonzero(np.isnan(self.p2))
        if missing.size:
            raise DataError(
                f"{what} requires follow-up p-values for every hypothesis; "
                f"missing for {missing.size} record(s), first: {self.ids[missing[0]]!r}"
            )
        if self.m_declared is not None and self.m_declared != len(self.ids):
            raise DataError(
                f"{what} requires the full family; dataset lists "
                f"{len(self.ids)} rows but declares m={self.m_declared}"
            )


@dataclass(frozen=True)
class ValidationIssue:
    """One problem: ``field`` is ``id``, ``p1``, ``p2``, ``m`` or ``r1``,
    and ``row`` the record's position for per-record problems."""

    where: str
    message: str
    field: str = ""
    row: int | None = None


# rows per slice in validation: no temporary spans a whole column
_SLICE = 1 << 16


def _slices(n: int) -> Iterator[slice]:
    return (slice(at, at + _SLICE) for at in range(0, n, _SLICE))


def id_hashes(ids: Sequence[str]) -> np.ndarray:
    """The ``hash`` of each id, as an int64 array."""
    return np.fromiter(map(hash, ids), np.int64, len(ids))


def _may_repeat(hashes: np.ndarray) -> bool:
    """Whether two ids may be equal, from their hashes, sorted in place."""
    hashes.sort()
    return any((hashes[1:][s] == hashes[:-1][s]).any() for s in _slices(len(hashes) - 1))


def validate_dataset(data: StudyPairData) -> ValidationIssue | None:
    """The first fault of a dataset, or None if it is valid.

    P-values must lie in [0, 1] (NaN or infinite values do not; a NaN
    ``p2`` is an absent follow-up value), ids be non-empty and unique
    (repeats are found by sorting their hashes) and the family non-empty.
    Faults are ordered by row, within a row as id, ``p1``, ``p2``; the
    ``m`` and then the ``r1`` override come after every row. Never raises.
    """
    return _first_issue(data, id_hashes(data.ids.tolist()))


def _first_issue(data: StudyPairData, hashes: np.ndarray) -> ValidationIssue | None:
    """:func:`validate_dataset`, given the :func:`id_hashes` of the dataset's
    ids, which it sorts in place: the ids are scanned for an empty id or a
    repeat only if the hashes hold an empty id's hash or a repeat."""
    ids, p1, p2 = data.ids, data.p1, data.p2
    bad = None  # the first row with a p-value out of range
    for s in _slices(len(ids)):
        rows = np.flatnonzero(~((p1[s] >= 0.0) & (p1[s] <= 1.0)) | (p2[s] < 0.0) | (p2[s] > 1.0))
        if rows.size:
            bad = s.start + int(rows[0])
            break
    # an id fault matters only up to the first row with a bad p-value
    end = len(ids) if bad is None else bad + 1
    empty = any((hashes[s] == hash("")).any() for s in _slices(len(hashes)))
    if bad is not None or empty or _may_repeat(hashes):
        seen: set[str] = set()
        for i, rid in enumerate(ids[:end].tolist()):
            if not rid or rid in seen:
                message = "duplicate id" if rid else "empty id"
                return ValidationIssue(f"record {i} ({rid!r})", message, "id", i)
            seen.add(rid)
    if bad is not None:
        name, col = ("p1", p1) if not 0.0 <= p1[bad] <= 1.0 else ("p2", p2)
        message = f"{name} out of range: {float(col[bad])!r}"
        return ValidationIssue(f"record {bad} ({ids[bad]!r})", message, name, bad)
    m_decl, r1_decl, n = data.m_declared, data.r1_declared, len(ids)
    if m_decl is None and n == 0:
        return ValidationIssue("family", "no rows listed and no m declared", "m")
    if m_decl is not None and m_decl < 1:
        return ValidationIssue("m override", "must be positive", "m")
    if m_decl is not None and m_decl < n:
        message = f"declared family size {m_decl} is smaller than the {n} rows listed"
        return ValidationIssue("m override", message, "m")
    if r1_decl is None:
        return None
    listed = data.r1_listed
    if r1_decl < 1:
        message = "must be positive"
    elif r1_decl < listed:
        message = (
            f"declared follow-up count {r1_decl} is smaller than the {listed} "
            "follow-up rows listed"
        )
    elif r1_decl > data.m:
        message = f"declared follow-up count {r1_decl} exceeds the family size m={data.m}"
    else:
        return None
    return ValidationIssue("r1 override", message, "r1")


@dataclass(frozen=True, eq=False)
class DiscoveryReport:
    """Outcome of a replicability procedure run, as columns of dataset
    positions into ``ids``, the dataset's id column (compare its ids as
    Python str, see :class:`StudyPairData`).

    ``rejected_rows`` ascends and is a subset of the followed-up rows;
    ``rejected_ids`` reads it as ids. ``scored_rows`` are the rows the run
    scores, none by default: the i-th, ``ids[scored_rows[i]]``, has the
    two-study statistic ``z[i]`` and the adjusted p-value ``adjusted[i]``,
    at most 1, and at most the run's level exactly when the row is rejected
    (the first direction's level and rejections in symmetric and oracle runs).
    ``primary_threshold`` / ``followup_threshold`` are the realized
    cut-offs applied to p1 / p2, the second 0.0 when R1 is 0: r2*q1/m and
    r2*(q - q1)/R1 at the effective levels for FDR (the first direction's
    for the symmetric and oracle runs), alpha1/m and (alpha - alpha1)/R1
    for Bonferroni FWER, and for Holm the last step-down thresholds its
    stages cleared, alpha1/(m - k1 + 1) and (alpha - alpha1)/(R1 - k2 + 1)
    with k1, k2 the entries each passed, at least 1; r2*q/m for both stages
    of a step-up baseline, and k1*q/m, r2*q/k1 for the naive one.
    ``adjusted_is_upper_bound`` marks the adjusted values as upper-bound
    estimates when the dataset lists only part of the follow-up set.
    """

    procedure: str
    ids: np.ndarray
    rejected_rows: np.ndarray
    r1: int
    primary_threshold: float
    followup_threshold: float
    scored_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    z: np.ndarray = field(default_factory=lambda: np.zeros(0))
    adjusted: np.ndarray = field(default_factory=lambda: np.zeros(0))
    adjusted_is_upper_bound: bool = False

    @property
    def rejected_ids(self) -> tuple[str, ...]:
        return tuple(self.ids[self.rejected_rows].tolist())

    @property
    def r2(self) -> int:
        return len(self.rejected_rows)
