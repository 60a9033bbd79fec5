import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_data
from replicability.errors import DataError, ParameterError
from replicability.selection import (
    SelectionRule,
    bh_reject,
    probe_validity,
    select,
    select_rows,
)


def bh_scan_oracle(pvalues, q):
    """Direct transcription of the step-up definition."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    k_star = 0
    for rank, i in enumerate(order, start=1):
        if pvalues[i] <= rank * q / m:
            k_star = rank
    return set(order[:k_star])


class TestBhReject:
    def test_basic(self):
        got = bh_reject([0.01, 0.02, 0.04, 0.9], 0.05)
        assert got == {0, 1}
        assert got == bh_scan_oracle([0.01, 0.02, 0.04, 0.9], 0.05)

    def test_single_hypothesis(self):
        assert bh_reject([0.04], 0.05) == {0}

    def test_all_ones(self):
        assert bh_reject([1.0, 1.0, 1.0], 0.05) == set()

    def test_empty(self):
        assert bh_reject([], 0.05) == set()

    def test_matches_scan_oracle_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = rng.integers(1, 40)
            p = np.where(
                rng.random(n) < 0.4, rng.random(n) * 0.02, rng.random(n)
            )
            q = float(rng.uniform(0.01, 0.3))
            assert bh_reject(p, q) == bh_scan_oracle(p.tolist(), q)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=25),
        st.integers(min_value=0, max_value=24),
        st.floats(min_value=0.01, max_value=0.3),
    )
    def test_monotone_in_pvalues(self, pvals, j, q):
        # lowering any single p-value never shrinks the rejection set
        j = j % len(pvals)
        before = bh_reject(pvals, q)
        lowered = list(pvals)
        lowered[j] = lowered[j] / 2.0
        after = bh_reject(lowered, q)
        assert before <= after


class TestSelect:
    def test_fixed_threshold(self):
        data = make_data([1e-6, 4e-5, 5e-5, 6e-5, 0.2])
        rule = SelectionRule("fixed_threshold", threshold=5e-5)
        assert select(rule, data) == ("h0", "h1", "h2")

    def test_top_k_all(self):
        data = make_data([0.5, 0.1, 0.9])
        assert select(SelectionRule("top_k", k=3), data) == ("h0", "h1", "h2")

    def test_top_k_ties_by_input_order(self):
        data = make_data([0.2, 0.1, 0.2, 0.3])
        assert select(SelectionRule("top_k", k=2), data) == ("h0", "h1")

    def test_top_k_beyond_family(self):
        data = make_data([0.5, 0.6])
        with pytest.raises(DataError):
            select(SelectionRule("top_k", k=3), data)

    def test_bh_delegates(self):
        p = [0.001, 0.004, 0.2, 0.6]
        data = make_data(p)
        rule = SelectionRule("bh", level=0.05)
        got = set(select(rule, data))
        expected = {f"h{i}" for i in bh_reject(p, 0.05)}
        assert got == expected

    def test_bonferroni_rule(self):
        data = make_data([0.01 / 4, 0.5, 0.9, 0.02], m_declared=4)
        assert select(SelectionRule("bonferroni", level=0.01), data) == ("h0",)

    def test_explicit_rule(self):
        data = make_data([0.5, 0.6, 0.7])
        assert select(SelectionRule("explicit", ids={"h2", "h0"}), data) == ("h0", "h2")

    def test_explicit_unknown_id(self):
        data = make_data([0.5])
        with pytest.raises(DataError):
            select(SelectionRule("explicit", ids={"nope"}), data)

    def test_explicit_ids_kept_as_a_frozenset(self):
        rule = SelectionRule("explicit", ids=["a", "b"])
        assert rule == SelectionRule("explicit", ids=frozenset({"a", "b"}))
        assert type(rule.ids) is frozenset
        assert hash(rule) == hash(SelectionRule("explicit", ids=("b", "a", "b")))

    @pytest.mark.parametrize("kind, field", [
        ("fixed_threshold", "threshold"), ("top_k", "k"), ("explicit", "ids"),
    ])
    def test_rule_without_its_parameter_refused(self, kind, field):
        with pytest.raises(DataError, match=f"needs {field}"):
            SelectionRule(kind)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(kind="bogus"), "unknown selection rule kind 'bogus'"),
        (dict(kind="bh", level=0.1, k=3), "bh selection does not read k"),
        (dict(kind="bonferroni", threshold=0.1), "bonferroni selection does not read threshold"),
        (dict(kind="top_k", k=2, threshold=0.3), "top_k selection does not read threshold"),
        (dict(kind="fixed_threshold", threshold=0.1, level=0.2),
         "fixed_threshold selection does not read level"),
        (dict(kind="explicit", ids=frozenset("a"), k=1), "explicit selection does not read k"),
        (dict(kind="followup", level=0.5), "followup selection does not read level"),
        (dict(kind="followup", ids=frozenset("a")), "followup selection does not read ids"),
        (dict(kind="explicit", ids="ab"), "explicit selection needs a collection of ids, got 'ab'"),
    ])
    def test_unknown_kind_or_unread_parameter_refused(self, kwargs, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            SelectionRule(**kwargs)

    def test_out_of_range_level_refused(self):
        with pytest.raises(DataError, match="level in"):
            SelectionRule("bh", level=2.0)

    def test_out_of_range_threshold_refused(self):
        with pytest.raises(DataError, match="threshold in"):
            SelectionRule("fixed_threshold", threshold=5.0)

    def test_fractional_k_refused(self):
        with pytest.raises(DataError, match="k must be an integer of at least 1, got 2.5"):
            SelectionRule("top_k", k=2.5)

    def test_followed_up_rule(self):
        data = make_data([0.1, 0.2, 0.3], p2=[0.5, None, 0.7])
        assert select(SelectionRule("followup"), data) == ("h0", "h2")

    @pytest.mark.parametrize(
        "rule", [SelectionRule("followup"), SelectionRule("explicit", ids={"a"})],
        ids=["followup", "explicit"],
    )
    def test_select_rows_refuses_a_rule_not_made_from_p1(self, rule):
        # these rules read the dataset, so no mask over p1 rows stands for them
        with pytest.raises(ParameterError, match=f"^{rule.kind} selection is not made"):
            select_rows(rule, np.zeros((1, 3)), 3)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        p = rng.random(30)
        data = make_data(p)
        rule = SelectionRule("bh", level=0.2)
        assert select(rule, data) == select(rule, data)


class TestProbeValidity:
    def test_bh_rule_clean(self):
        rng = np.random.default_rng(5)
        p = np.concatenate([rng.random(15) * 0.01, rng.random(15)])
        data = make_data(p)
        report = probe_validity(SelectionRule("bh", level=0.2), data, grid_size=12, seed=1)
        assert report.counterexamples == ()

    def test_fixed_threshold_clean(self):
        rng = np.random.default_rng(6)
        data = make_data(rng.random(20))
        report = probe_validity(
            SelectionRule("fixed_threshold", threshold=0.5), data, grid_size=12, seed=1
        )
        assert report.counterexamples == ()

    def test_top_k_clean(self):
        rng = np.random.default_rng(7)
        data = make_data(rng.random(20))
        report = probe_validity(SelectionRule("top_k", k=5), data, grid_size=12, seed=1)
        assert report.counterexamples == ()

    def test_median_coupled_rule_caught(self, median_rule):
        data = make_data([0.5, 0.4, 1.0])
        report = probe_validity(median_rule, data, grid_size=16, seed=1)
        assert report.counterexamples
        assert any(ce.perturbed_id for ce in report.counterexamples)

    def test_large_selection_probes_a_seeded_subsample(self, median_rule):
        data = make_data(np.random.default_rng(8).random(400) * 0.8)
        assert len(select(median_rule, data)) > 200

        def counterexamples(seed):
            report = probe_validity(median_rule, data, grid_size=4, seed=seed)
            assert report.probed == 200
            return report.counterexamples

        first = counterexamples(1)
        assert first and first == counterexamples(1)
        assert {c.perturbed_id for c in first} != {c.perturbed_id for c in counterexamples(2)}

    @pytest.mark.parametrize("rule", ["median", "bh"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_counterexamples_replay(self, median_rule, rule, seed):
        # each counterexample is the selection before, and the selection
        # with the perturbed row's p1 at the replacement value after
        p = np.random.default_rng(8).random(400) * 0.8
        p[:60] *= 1e-3  # BH selects about 60 rows, the median rule over 200
        data = make_data(p)
        rule = median_rule if rule == "median" else SelectionRule("bh", level=0.3)
        report = probe_validity(rule, data, grid_size=4, seed=seed)
        assert (report.counterexamples == ()) == (rule is not median_rule)
        ids = data.ids.tolist()
        for ce in report.counterexamples:
            assert ce.selection_before == select(rule, data)
            assert ce.perturbed_id in ce.selection_after
            p1 = data.p1.copy()
            p1[ids.index(ce.perturbed_id)] = ce.replacement_p1
            assert ce.selection_after == select(rule, make_data(p1))

    def test_grid_size_validation(self):
        data = make_data([0.1])
        with pytest.raises(ValueError):
            probe_validity(SelectionRule("top_k", k=1), data, grid_size=1)

    @pytest.mark.parametrize("grid_size", [2.5, "16"])
    def test_grid_size_must_be_an_integer(self, grid_size):
        data = make_data([0.1])
        with pytest.raises(ParameterError, match="grid_size must be an integer"):
            probe_validity(SelectionRule("top_k", k=1), data, grid_size=grid_size)

    @pytest.mark.parametrize("n", [20, 500])  # all probed, and a seeded subsample
    @pytest.mark.parametrize("seed", [-1, 1.5, "1", None])
    def test_seed_must_be_a_non_negative_integer(self, n, seed):
        data = make_data(np.linspace(0.001, 0.4, n))
        rule = SelectionRule("fixed_threshold", threshold=0.5)
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            probe_validity(rule, data, grid_size=2, seed=seed)
