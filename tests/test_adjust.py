import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _followup_instance, make_data, random_instance
from replicability.adjust import AdjustedRow, build_adjusted_table
from replicability.data import StudyPairData
from replicability.datasets import load_crohns_disease, load_hippocampal_volume
from replicability.errors import DataError, ParameterError
from replicability.numeric import harmonic, solve_q1_tilde_thresholded
from replicability.procedures import (
    Dependence,
    _adjust_columns,
    fdr_two_stage,
    fwer_two_stage,
    FwerMethod,
)
from replicability.selection import SelectionRule


def test_empty_followup_set_gives_empty_table():
    data = make_data([0.1, 0.2], [None, None])
    table = build_adjusted_table(data, c=0.5)
    assert table.ids.tolist() == []


def test_rows_sorted_by_adjusted_then_id():
    rng = np.random.default_rng(1)
    data, _, _, _ = random_instance(rng, max_m=40)
    table = build_adjusted_table(data, c=0.5, flavor="fdr")
    keys = list(zip(table.adjusted.tolist(), table.ids))
    assert keys == sorted(keys)


# ids that numpy's fixed-width strings would confuse or reorder: prefixes,
# trailing "\x00" and non-ASCII code points
_ID_BASES = st.text(st.sampled_from("ab\x00é\u4e2d\U0001f600"), min_size=1, max_size=3)
_ID_SUFFIXES = st.sampled_from(["", "\x00", "\x00\x00", "a", "é"])


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.tuples(_ID_BASES, _ID_SUFFIXES).map("".join), min_size=1, max_size=30,
                 unique=True),
    data=st.data(),
    flavor=st.sampled_from(["fdr", "bonferroni"]),
    mode=st.sampled_from([Dependence.INDEPENDENT, Dependence.ARBITRARY_BOTH]),
)
def test_table_order_is_adjusted_then_python_id_order(ids, data, flavor, mode):
    """Large p-values tie many rows at adjusted = 1, so the id breaks them."""
    n = len(ids)
    pvalue = st.sampled_from([1e-6, 1e-3, 0.02, 0.5, 1.0])
    p1 = data.draw(st.lists(pvalue, min_size=n, max_size=n))
    p2 = data.draw(st.lists(pvalue, min_size=n, max_size=n))
    table = build_adjusted_table(
        StudyPairData(ids, p1, p2), c=0.5, flavor=flavor, mode=mode
    )
    keys = list(zip(table.adjusted.tolist(), table.ids))
    assert sorted(table.ids) == sorted(ids)
    assert keys == sorted(keys)


def test_bonferroni_flavor_matches_hippocampal_column():
    data = load_hippocampal_volume()
    table = build_adjusted_table(data, c=0.2, flavor="bonferroni")
    by_id = dict(zip(table.ids, table.adjusted.tolist()))
    assert by_id["DPP4"] == pytest.approx(1.0)
    assert by_id["ASTN2"] == pytest.approx(1.0)
    assert by_id["MSRB3"] == pytest.approx(0.06875, rel=1e-6)
    assert by_id["WIF1"] == pytest.approx(0.2750, rel=1e-6)
    assert by_id["HRK"] == pytest.approx(0.6000, rel=1e-6)


def test_harmonic_modified_column_crohns_top_row():
    data = load_crohns_disease()
    table = build_adjusted_table(
        data, c=0.8, flavor="fdr", mode=Dependence.ARBITRARY_PRIMARY_ITEM1
    )
    assert table.ids[0] == "chr1:67417979"
    assert table.adjusted[0] == pytest.approx(2.53e-28, rel=0.03)
    assert table.modified[0] == pytest.approx(3.53e-27, rel=0.03)
    assert table.adjusted_is_upper_bound


def test_rows_view_reads_the_columns():
    """``rows`` builds each record from the columns when it is read."""
    table = build_adjusted_table(
        load_crohns_disease(), c=0.8, flavor="fdr", mode=Dependence.ARBITRARY_PRIMARY_ITEM1
    )
    columns = (table.p1, table.p2, table.z, table.adjusted, table.modified)
    assert list(table.rows) == [
        AdjustedRow(rid, *(float(col[i]) for col in columns)) for i, rid in enumerate(table.ids)
    ]
    plain = build_adjusted_table(load_hippocampal_volume(), c=0.5)
    assert [row.adjusted_p_modified for row in plain.rows] == [None] * len(plain.ids)


def test_no_modified_column_for_independent_mode():
    data = load_hippocampal_volume()
    table = build_adjusted_table(data, c=0.5, flavor="fdr")
    assert table.modified is None


def test_unknown_flavor_is_parameter_error():
    with pytest.raises(ParameterError, match="holm"):
        build_adjusted_table(load_hippocampal_volume(), c=0.5, flavor="holm")


def test_item2_mode_needs_q_and_t():
    data = load_crohns_disease()
    with pytest.raises(DataError):
        build_adjusted_table(
            data, c=0.8, flavor="fdr", mode=Dependence.ARBITRARY_PRIMARY_ITEM2
        )
    table = build_adjusted_table(
        data,
        c=0.8,
        flavor="fdr",
        mode=Dependence.ARBITRARY_PRIMARY_ITEM2,
        t=5e-5,
        q=0.05,
    )
    assert table.modified is not None


def test_item2_refuses_followed_up_p1_above_t():
    item2 = Dependence.ARBITRARY_PRIMARY_ITEM2
    data = make_data([1e-4, 2e-4, 0.5], [1e-3, 2e-3, None])
    assert build_adjusted_table(data, 0.5, "fdr", item2, t=2e-4, q=0.05).modified is not None
    with pytest.raises(DataError, match="at most t=0.00019"):
        build_adjusted_table(data, 0.5, "fdr", item2, t=1.9e-4, q=0.05)
    # the same refusal, with the same message, as a run of the procedure
    data = load_hippocampal_volume()
    with pytest.raises(DataError, match="at most t=1e-09") as table_error:
        build_adjusted_table(data, 0.5, "fdr", item2, t=1e-9, q=0.05)
    with pytest.raises(DataError) as run_error:
        fdr_two_stage(data, SelectionRule("followup"), 0.025, 0.05, item2, 1e-9)
    assert str(table_error.value) == str(run_error.value)


@pytest.mark.parametrize("given", [{"t": 5e-5}, {"q": 0.05}, {"t": 5e-5, "q": 0.05}])
@pytest.mark.parametrize(
    "mode", [mode for mode in Dependence if mode is not Dependence.ARBITRARY_PRIMARY_ITEM2]
)
def test_t_and_q_refused_outside_item2(mode, given):
    with pytest.raises(ParameterError, match=f"does not read {next(iter(given))};"):
        build_adjusted_table(load_crohns_disease(), 0.8, "fdr", mode, **given)


def test_fdr_duality_on_random_instances():
    # thresholding the fdr-flavor table at q reproduces the procedure run
    rng = np.random.default_rng(2)
    for _ in range(100):
        data, q1, q, _ = random_instance(rng, max_m=60)
        table = build_adjusted_table(data, c=q1 / q, flavor="fdr")
        flagged = {rid for rid, v in zip(table.ids, table.adjusted) if v <= q}
        run = fdr_two_stage(data, SelectionRule("followup"), q1, q)
        assert flagged == set(run.rejected_ids)


def test_bonferroni_duality_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(100):
        data, a1, a, _ = random_instance(rng, max_m=60)
        table = build_adjusted_table(data, c=a1 / a, flavor="bonferroni")
        flagged = {rid for rid, v in zip(table.ids, table.adjusted) if v <= a}
        run = fwer_two_stage(
            data, SelectionRule("followup"), a1, a, FwerMethod.BONFERRONI
        )
        assert flagged == set(run.rejected_ids)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fdr_duality_on_followup_instances(seed):
    # the duality above, on follow-up sets where every rejection count occurs
    data, q1, q, _ = _followup_instance(np.random.default_rng(seed), Dependence.INDEPENDENT)
    table = build_adjusted_table(data, c=q1 / q, flavor="fdr")
    flagged = {rid for rid, v in zip(table.ids, table.adjusted) if v <= q}
    run = fdr_two_stage(data, SelectionRule("followup"), q1, q)
    assert flagged == set(run.rejected_ids)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bonferroni_duality_on_followup_instances(seed):
    data, a1, a, _ = _followup_instance(np.random.default_rng(seed), Dependence.INDEPENDENT)
    table = build_adjusted_table(data, c=a1 / a, flavor="bonferroni")
    flagged = {rid for rid, v in zip(table.ids, table.adjusted) if v <= a}
    run = fwer_two_stage(data, SelectionRule("followup"), a1, a, FwerMethod.BONFERRONI)
    assert flagged == set(run.rejected_ids)


def test_modified_duality_matches_modified_run():
    rng = np.random.default_rng(4)
    for _ in range(50):
        data, q1, q, _ = random_instance(rng, max_m=50)
        table = build_adjusted_table(
            data, c=q1 / q, flavor="fdr", mode=Dependence.ARBITRARY_PRIMARY_ITEM1
        )
        flagged = {rid for rid, v in zip(table.ids, table.modified) if v <= q}
        run = fdr_two_stage(
            data, SelectionRule("followup"), q1, q, Dependence.ARBITRARY_PRIMARY_ITEM1
        )
        assert flagged == set(run.rejected_ids)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from([
        Dependence.ARBITRARY_PRIMARY_ITEM1,
        Dependence.ARBITRARY_PRIMARY_ITEM2,
        Dependence.ARBITRARY_BOTH,
    ]),
)
def test_modified_duality_on_followup_instances(seed, mode):
    # thresholding the dependence-corrected column at q reproduces the run
    # under the same correction
    data, q1, q, t = _followup_instance(np.random.default_rng(seed), mode)
    level = q if mode is Dependence.ARBITRARY_PRIMARY_ITEM2 else None  # read only by item 2
    table = build_adjusted_table(data, q1 / q, "fdr", mode, t, level)
    flagged = {rid for rid, v in zip(table.ids, table.modified) if v <= q}
    run = fdr_two_stage(data, SelectionRule("followup"), q1, q, mode, t)
    assert flagged == set(run.rejected_ids)


def test_prescale_capped_at_one():
    data = make_data([0.9, 1e-8], [0.01, 0.001], m_declared=100)
    table = build_adjusted_table(
        data, c=0.5, flavor="fdr", mode=Dependence.ARBITRARY_PRIMARY_ITEM1
    )
    assert (table.modified <= 1.0).all()


_MODIFIED_MODES = [
    Dependence.ARBITRARY_PRIMARY_ITEM1,
    Dependence.ARBITRARY_PRIMARY_ITEM2,
    Dependence.ARBITRARY_BOTH,
]


def _modified_by_mode(table, data, c, flavor, mode, t, q):
    """The modified column of ``table`` written out per mode: p1 scaled by
    H_m, or by c*q/q1_tilde under the thresholded mode, and p2 by H_R1
    under ``arbitrary_both``, each capped at 1."""
    m = data.m
    r1 = data.r1_declared if data.r1_declared is not None else len(table.ids)
    if mode is Dependence.ARBITRARY_PRIMARY_ITEM2:
        scale1 = c * q / solve_q1_tilde_thresholded(c * q, m, t)
    else:
        scale1 = harmonic(m)
    p2 = table.p2
    if mode is Dependence.ARBITRARY_BOTH:
        p2 = np.minimum(harmonic(r1) * p2, 1.0)
    return _adjust_columns(np.minimum(scale1 * table.p1, 1.0), p2, m, r1, c, flavor)[1]


@pytest.mark.parametrize("flavor", ["fdr", "bonferroni"])
@pytest.mark.parametrize("mode", _MODIFIED_MODES, ids=lambda mode: mode.value)
@pytest.mark.parametrize("load, c, t", [
    (load_crohns_disease, 0.8, 5e-5), (load_hippocampal_volume, 0.5, 1e-7),
], ids=["crohns", "hippocampal"])
def test_modified_column_is_the_per_mode_formula_on_fixtures(load, c, t, mode, flavor):
    data = load()
    t, q = (t, 0.05) if mode is Dependence.ARBITRARY_PRIMARY_ITEM2 else (None, None)
    table = build_adjusted_table(data, c, flavor, mode, t, q)
    expected = _modified_by_mode(table, data, c, flavor, mode, t, q)
    assert np.array_equal(table.modified, expected)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(_MODIFIED_MODES),
    flavor=st.sampled_from(["fdr", "bonferroni"]),
)
def test_modified_column_is_the_per_mode_formula_on_random_tables(seed, mode, flavor):
    data, q1, q, t = _followup_instance(np.random.default_rng(seed), mode)
    level = q if mode is Dependence.ARBITRARY_PRIMARY_ITEM2 else None  # read only by item 2
    table = build_adjusted_table(data, q1 / q, flavor, mode, t, level)
    expected = _modified_by_mode(table, data, q1 / q, flavor, mode, t, level)
    assert np.array_equal(table.modified, expected)
