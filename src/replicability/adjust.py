"""Ranked tables of replicability adjusted p-values.

Builds the reporting layer on top of the adjustment operations: one row
per followed-up hypothesis with its two-study statistic and adjusted
value, optionally alongside the dependence-corrected variant computed
from harmonically rescaled p-values.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import RowView, StudyPairData
from .errors import ParameterError
from .params import Dependence, check_levels
from .procedures import _adjust_columns, _check_at_most_t, _gather_selected, _level_divisors
from .selection import SelectionRule


@dataclass(frozen=True)
class AdjustedRow:
    """One row of :attr:`AdjustedTable.rows`, a followed-up hypothesis."""

    id: str
    p1: float
    p2: float
    z_value: float
    adjusted_p: float
    adjusted_p_modified: float | None = None


@dataclass(frozen=True, eq=False)
class AdjustedTable:
    """The followed-up hypotheses as columns in table order: ascending
    adjusted value, ties by id compared as Python ``str``. ``ids`` is the
    dataset's string column (:data:`~replicability.data.ID`), taken at those
    rows, so compare its ids as ``str`` (``ids.tolist()``); ``p1``, ``p2``,
    ``z``, ``adjusted`` and ``modified`` are float arrays; ``modified`` is
    None outside the dependence-corrected modes and for an empty table.
    ``rows`` reads the same table as :class:`AdjustedRow` records, each
    built when it is read."""

    ids: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    z: np.ndarray
    adjusted: np.ndarray
    modified: np.ndarray | None
    adjusted_is_upper_bound: bool = False

    @property
    def rows(self) -> Sequence[AdjustedRow]:
        def row(i: int) -> AdjustedRow:
            modified = None if self.modified is None else float(self.modified[i])
            return AdjustedRow(
                self.ids[i], float(self.p1[i]), float(self.p2[i]), float(self.z[i]),
                float(self.adjusted[i]), modified,
            )

        return RowView(len(self.ids), row)


def _check_arguments(c: float, flavor: str, mode, t, q) -> Dependence:
    """Checks :func:`build_adjusted_table`'s arguments but its data; returns the mode."""
    if not 0.0 < c < 1.0:
        raise ParameterError(f"c must lie in (0, 1), got {c}")
    if flavor not in ("bonferroni", "fdr"):
        raise ParameterError(f"unknown adjustment flavor {flavor!r}")
    mode = Dependence(mode)
    if mode is not Dependence.ARBITRARY_PRIMARY_ITEM2:
        check_levels(None, c, mode=mode, t=t)  # c is checked above: this refuses a t
        if q is not None:
            raise ParameterError(f"{mode.value} does not read q; only the thresholded mode does")
    elif q is None:
        raise ParameterError("the thresholded mode rescales p1 by c*q/q1_tilde, which needs q")
    else:
        check_levels(c * q, q, mode=mode, t=t)
    return mode


def build_adjusted_table(
    data: StudyPairData,
    c: float,
    flavor: str = "fdr",
    mode: Dependence = Dependence.INDEPENDENT,
    t: float | None = None,
    q: float | None = None,
) -> AdjustedTable:
    """Adjusted p-value table over the followed-up hypotheses.

    For the dependence-corrected modes an extra column is added, computed
    with p1 replaced by min(H_m * p1, 1) (and p2 by min(H_R1 * p2, 1) when
    both studies are dependence-corrected). The thresholded mode rescales
    p1 by q1/q1_tilde instead, which depends on the run level: it needs
    ``q`` (so q1 = c*q) and the selection threshold ``t``, checked as the
    levels (c*q, q) of a run, and refuses a followed-up p1 above ``t`` as a
    run does. No other mode reads them, and each refuses a given q or t.

    Rescaled p-values are capped at 1 before the statistic is formed; an
    adjusted value above 1 is meaningless, so only hopeless rows are
    affected.
    """
    mode = _check_arguments(c, flavor, mode, t, q)
    idx, p1, p2, r1 = _gather_selected(data, SelectionRule("followup"), "adjust")
    m = data.m
    z, adjusted = _adjust_columns(p1, p2, m, r1, c, flavor)
    modified: np.ndarray | None = None
    if idx.size and mode not in (Dependence.INDEPENDENT, Dependence.PRDS_FOLLOWUP):
        if mode is Dependence.ARBITRARY_PRIMARY_ITEM2:
            _check_at_most_t(p1, True, t)
        d1, d2 = _level_divisors(None if q is None else c * q, mode, t, m, r1)
        p1_mod, p2_mod = np.minimum(d1 * p1, 1.0), np.minimum(d2 * p2, 1.0)
        _, modified = _adjust_columns(p1_mod, p2_mod, m, r1, c, flavor)
    # ties sorted by the ids as str objects: numpy compares strings only up to a NUL
    order = np.lexsort((np.array(data.ids[idx].tolist(), dtype=object), adjusted))
    return AdjustedTable(
        ids=data.ids[idx[order]],
        p1=p1[order],
        p2=p2[order],
        z=z[order],
        adjusted=adjusted[order],
        modified=None if modified is None else modified[order],
        adjusted_is_upper_bound=r1 > idx.size,
    )
