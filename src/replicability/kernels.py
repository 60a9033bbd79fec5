"""Step-up and step-down kernels: the only code that sorts p-values or
statistics to find how many to reject.

Each mask kernel maps an (n, k) array, one family per row, to an (n, k)
rejection mask. The simulator passes chunks of repetitions and the
library passes one row. An entry set to inf lies outside the family its
row's procedure sees, and is never rejected. Every kernel rejects all
entries at or below its row's realized cut-off, so ties are handled the
same way everywhere.
"""

from __future__ import annotations

import numpy as np


def _at_or_below(stat: np.ndarray, ordered: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Per row, the entries at or below the row's count-th smallest value;
    none where count is 0."""
    kth = np.take_along_axis(ordered, np.maximum(count - 1, 0)[:, None], axis=1)
    return (stat <= kth) & (count > 0)[:, None]


def step_up_rows(stat: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Per row, reject up to the largest rank whose sorted value is at most
    the rank's threshold."""
    if stat.shape[1] == 0:
        return np.zeros(stat.shape, dtype=bool)
    ordered = np.sort(stat, axis=1)
    passing = ordered <= thresholds
    last = stat.shape[1] - np.argmax(passing[:, ::-1], axis=1)
    return _at_or_below(stat, ordered, np.where(passing.any(axis=1), last, 0))


def packed_rows(chosen: np.ndarray, columns, fill: float, rows) -> np.ndarray:
    """``rows`` on each row's chosen entries only: those of each (n, k) array
    of ``columns`` are packed to the left of an (n, max count) array, padded
    with ``fill``, and the mask rows(slots, *packed) is scattered back to
    (n, k); ``slots`` marks the packed entries."""
    count = np.count_nonzero(chosen, axis=1)
    slots = np.arange(count.max(initial=0)) < count[:, None]
    # both list entries row by row, so a row's i-th chosen entry goes to slot i
    src, dst = np.flatnonzero(chosen), np.flatnonzero(slots)
    packed = np.full((len(columns), slots.size), fill)
    for out, column in zip(packed, columns):
        out[dst] = column.ravel()[src]
    packed_mask = rows(slots, *packed.reshape((len(columns),) + slots.shape))
    mask = np.zeros(chosen.size, dtype=bool)
    mask[src] = packed_mask.ravel()[dst]
    return mask.reshape(chosen.shape)


def bh_rows(p: np.ndarray, q: float, m_eff) -> np.ndarray:
    """Benjamini-Hochberg step-up at level q per row, with thresholds
    i*q/m_eff over a family of ``m_eff`` (one value, or an (n, 1) column
    of one per row) that may be larger than the row. Only entries at or
    below the last threshold can pass, so only they are stepped up, packed
    with inf padding."""
    if p.size == 0:
        return np.zeros(p.shape, dtype=bool)
    chosen = p <= q * p.shape[1] / m_eff  # the last threshold, computed alike

    def step_up(slots, packed):
        return step_up_rows(packed, q * np.arange(1, packed.shape[1] + 1) / m_eff)

    return packed_rows(chosen, (p,), np.inf, step_up)


def holm_rows(p: np.ndarray, level: float, m_eff) -> np.ndarray:
    """Holm's step-down per row over a family of ``m_eff`` (one value, or
    an (n, 1) column of one per row); family members missing from a row
    rank after the listed ones."""
    if p.shape[1] == 0:
        return np.zeros(p.shape, dtype=bool)
    ordered = np.sort(p, axis=1)
    ok = ordered <= level / np.maximum(m_eff - np.arange(p.shape[1]), 1)
    first_fail = np.where(ok.all(axis=1), p.shape[1], np.argmin(ok, axis=1))
    return _at_or_below(p, ordered, first_fail)


def top_k_rows(p: np.ndarray, k: int) -> np.ndarray:
    """The k smallest entries per row, ties broken by position."""
    mask = np.zeros(p.shape, dtype=bool)
    np.put_along_axis(mask, np.argsort(p, axis=1, kind="stable")[:, :k], True, axis=1)
    return mask


def stepup_adjust(z: np.ndarray) -> np.ndarray:
    """Step-up adjusted values of a statistic on the rank scale: the i-th
    smallest z becomes the minimum of z_(j)/j over ranks j >= i. Values at
    most 1 are exactly the rejections of :func:`step_up_rows` at
    thresholds 1, 2, ..., k."""
    order = np.argsort(z, kind="stable")
    ranks = np.arange(1, z.size + 1, dtype=float)
    out = np.empty(z.size)
    out[order] = np.minimum.accumulate((z[order] / ranks)[::-1])[::-1]
    return out
