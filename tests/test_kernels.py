import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from procedure_oracles import bh_mask, holm_fwer_mask, stepup_on_rank_scale
from replicability import kernels

LEVELS = st.sampled_from([0.01, 0.05, 0.2])


@st.composite
def padded_rows(draw):
    """Finite p-values (snapped to a coarse grid half the time, for ties
    and values at a threshold), scattered among inf entries that lie
    outside the family, and a family size at least the finite count.
    Returns the row, its finite-entry mask and the family size."""
    k = draw(st.integers(0, 30))
    p = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    if draw(st.booleans()):
        p = np.round(p * 200) / 4000  # k/m-scale grid values, many tied
    p *= draw(st.sampled_from([1.0, 1e-4]))  # small: every entry rejected
    pad = draw(st.integers(0, 10))
    row = np.concatenate([p, np.full(pad, np.inf)])
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(row.size)
    return row[order], order < k, max(k + draw(st.integers(0, 12)), 1)


def _on_family(mask: np.ndarray, finite: np.ndarray, expected: np.ndarray) -> bool:
    return not mask[~finite].any() and np.array_equal(mask[finite], expected)


@settings(max_examples=400, deadline=None)
@given(case=padded_rows(), level=LEVELS)
def test_mask_kernels_match_references(case, level):
    """On one row, each kernel rejects what its one-dimensional reference
    rejects over the finite entries, and never an inf entry, also when the
    row is longer than the family."""
    row, finite, m = case
    listed = row[finite]
    assert _on_family(kernels.bh_rows(row[None], level, m)[0], finite,
                      bh_mask(listed, level, m))
    assert _on_family(kernels.holm_rows(row[None], level, m)[0], finite,
                      holm_fwer_mask(listed, level, m))
    z = row * m / level
    assert _on_family(kernels.step_up_rows(z[None], np.arange(1.0, z.size + 1))[0], finite,
                      stepup_on_rank_scale(listed * m / level))


@settings(max_examples=200, deadline=None)
@given(z=st.lists(st.floats(0.0, 50.0), max_size=40), snap=st.booleans())
def test_adjusted_values_reproduce_the_step_up(z, snap):
    z = np.array(z)
    if snap:
        z = np.ceil(z)  # integers: ties, and values exactly at a rank
    rejected = kernels.step_up_rows(z[None], np.arange(1.0, z.size + 1))[0]
    assert np.array_equal(kernels.stepup_adjust(z) <= 1.0, rejected)
    assert np.array_equal(rejected, stepup_on_rank_scale(z))


@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.5]), min_size=1, max_size=20),
       k=st.integers(1, 20))
def test_top_k_takes_the_first_of_tied_values(p, k):
    p = np.array(p)
    mask = kernels.top_k_rows(p[None], k)[0]
    expected = np.zeros(p.size, dtype=bool)
    expected[sorted(range(p.size), key=lambda j: (p[j], j))[:k]] = True
    assert np.array_equal(mask, expected)


@settings(max_examples=200, deadline=None)
@given(case=padded_rows())
def test_stepdown_adjusted_values_match_a_loop(case):
    """Each listed value's Holm adjusted value is the largest (n - j)*p over
    the values sorted before it and itself (ties by position), with the
    family's unlisted members ranked last."""
    row, finite, n = case
    p = row[finite]
    order = sorted(range(p.size), key=lambda i: (p[i], i))
    expected, running = np.empty(p.size), 0.0
    for j, i in enumerate(order):
        running = max(running, (n - j) * p[i])
        expected[i] = running
    assert np.array_equal(kernels.stepdown_adjust(p, n), expected)
