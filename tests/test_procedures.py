from dataclasses import fields
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import _followup_instance, make_data, random_instance
from procedure_oracles import directed_fdr_full_width
from replicability.adjust import build_adjusted_table
from replicability.data import StudyPairData
from replicability.datasets import load_crohns_disease, load_hippocampal_volume
from replicability.errors import ApplicabilityError, DataError, ParameterError, ReplicabilityError
from replicability.numeric import harmonic, solve_q1_tilde_thresholded
from replicability.params import check_levels
from replicability.procedures import (
    Dependence,
    FwerMethod,
    Procedure,
    _directed_fdr_rows,
    _level_divisors,
    fdr_symmetric,
    fdr_two_stage,
    fdr_two_stage_rscan,
    fisher_combined_pvalues,
    fwer_two_stage,
)
from replicability.selection import SelectionRule, select

FOLLOWUP = SelectionRule.followed_up()
PARTIAL_CONJUNCTION = Procedure(kind="partial_conjunction", q=0.05)
NAIVE = Procedure(kind="naive_bh_bh", q=0.05)
FISHER = Procedure(kind="fisher_meta", q=0.05)


def _oracle(data, rule, f00, f01, q, w1=1.0, mode=Dependence.INDEPENDENT, t=None):
    """The oracle procedure at the calibrated levels of (f00, f01)."""
    oracle = Procedure(kind="oracle", q=q, w1=w1, mode=mode, t=t, selection=rule)
    return oracle.run(data, (f00, f01))


def _adjusted(data: StudyPairData, c: float, flavor: str) -> dict[str, float]:
    """The adjusted p-value of each followed-up row, by id."""
    table = build_adjusted_table(data, c, flavor)
    return dict(zip(table.ids, table.adjusted.tolist()))


def _flagged(report, q: float) -> set[str]:
    """Ids of the scored rows whose reported adjusted value is at most q."""
    return {report.ids[i] for i in report.scored_rows[report.adjusted <= q].tolist()}


def _report_fields(report) -> dict:
    """Every field of a report, with its columns as lists."""
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def _completed(data: StudyPairData, rng: np.random.Generator) -> StudyPairData:
    """``data`` with a uniform p2 drawn for every row not followed up."""
    p2 = np.where(np.isnan(data.p2), rng.random(data.m), data.p2)
    return StudyPairData(data.ids, data.p1, p2)


class TestFwerTwoStage:
    def test_hippocampal_screen_level_pair_1(self):
        data = load_hippocampal_volume()
        report = fwer_two_stage(data, FOLLOWUP, 0.025, 0.05)
        assert report.rejected_ids == ("MSRB3",)
        assert report.r1 == 5
        assert report.primary_threshold == pytest.approx(0.025 / 2.5e6)
        assert report.followup_threshold == pytest.approx(0.005)

    def test_hippocampal_screen_level_pair_2(self):
        data = load_hippocampal_volume()
        report = fwer_two_stage(data, FOLLOWUP, 0.04, 0.05)
        assert report.rejected_ids == ("MSRB3",)

    def test_all_ones_rejects_nothing(self):
        data = make_data([1.0, 1.0], [1.0, 1.0])
        assert fwer_two_stage(data, FOLLOWUP, 0.025, 0.05).rejected_ids == ()

    def test_empty_selection_rejects_nothing(self):
        data = make_data([0.5, 0.6], [0.01, 0.02])
        report = fwer_two_stage(data, SelectionRule.bh_at_level(0.01), 0.025, 0.05)
        assert report.rejected_ids == () and report.r1 == 0

    def test_missing_followup_is_data_error(self):
        data = make_data([1e-9, 1e-9], [0.001, None])
        with pytest.raises(DataError):
            fwer_two_stage(data, SelectionRule("top_k", k=2), 0.025, 0.05)

    def test_holm_at_least_bonferroni(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            data, a1, a, _ = random_instance(rng, max_m=60)
            bonf = fwer_two_stage(data, FOLLOWUP, a1, a, FwerMethod.BONFERRONI)
            holm = fwer_two_stage(data, FOLLOWUP, a1, a, FwerMethod.HOLM)
            assert set(bonf.rejected_ids) <= set(holm.rejected_ids)

    def test_holm_reports_the_last_step_down_thresholds_it_cleared(self):
        # both stages pass a and b: Holm's second step 0.025/(4 - 2 + 1),
        # not Bonferroni's 0.025/4, which b's 0.008 lies above; b's adjusted
        # value is Holm's, 3*0.008/0.5 in each stage, at most alpha, while
        # its z stays Bonferroni's statistic 4*0.008/0.5
        data = StudyPairData(list("abcd"), [0.001, 0.008, 0.5, 0.9], [0.001, 0.008, 0.5, 0.9])
        report = fwer_two_stage(data, SelectionRule("followup"), 0.025, 0.05, "holm")
        assert report.rejected_ids == ("a", "b")
        assert report.primary_threshold == report.followup_threshold == 0.025 / 3
        assert report.adjusted[1] == pytest.approx(0.048)
        assert report.z[1] == pytest.approx(0.064)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), method=st.sampled_from(list(FwerMethod)))
    def test_self_consistency_on_followup_instances(self, seed, method):
        # the rejections are exactly the followed rows at or below both
        # reported thresholds, on follow-up sets where Holm steps down far
        rng = np.random.default_rng(seed)
        data, alpha1, alpha, _ = _followup_instance(rng, Dependence.INDEPENDENT)
        report = fwer_two_stage(data, FOLLOWUP, alpha1, alpha, method)
        followed = ~np.isnan(data.p2)
        passes = followed & (data.p1 <= report.primary_threshold)
        passes &= data.p2 <= report.followup_threshold
        assert set(np.asarray(data.ids)[passes]) == set(report.rejected_ids)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_holm_rejects_exactly_the_rows_adjusted_to_at_most_alpha(self, seed):
        # the FWER twin of the FDR duality: under Holm a scored row's
        # adjusted value is at most alpha exactly when it is rejected, also
        # with p-values placed on a step-down threshold of either stage;
        # Bonferroni's adjusted column stays its statistic, capped at 1
        rng = np.random.default_rng(seed)
        data, alpha1, alpha, _ = _followup_instance(rng, Dependence.INDEPENDENT)
        p1, p2 = data.p1.copy(), data.p2.copy()
        followed = np.flatnonzero(~np.isnan(p2))
        k = followed.size
        for p, level, n in ((p1, alpha1, data.m), (p2, alpha - alpha1, k)):
            on = followed[rng.random(k) < 0.5]
            p[on] = level / (n - rng.integers(0, k, size=on.size))
        data = StudyPairData(data.ids.tolist(), p1, p2)
        holm = fwer_two_stage(data, FOLLOWUP, alpha1, alpha, FwerMethod.HOLM)
        assert _flagged(holm, alpha) == set(holm.rejected_ids)
        bonf = fwer_two_stage(data, FOLLOWUP, alpha1, alpha, FwerMethod.BONFERRONI)
        assert np.array_equal(bonf.adjusted, np.minimum(bonf.z, 1.0))

    def test_level_validation(self):
        data = make_data([0.5], [0.5])
        with pytest.raises(ValueError):
            fwer_two_stage(data, FOLLOWUP, 0.05, 0.05)

    def test_unknown_method_is_parameter_error(self):
        data = make_data([0.5], [0.5])
        with pytest.raises(ParameterError, match="'hollm' is not a valid FwerMethod"):
            fwer_two_stage(data, FOLLOWUP, 0.025, 0.05, method="hollm")

    def test_bad_level_with_levelless_rule_is_a_level_error(self):
        data = make_data([0.5], [0.5])
        for rule in (SelectionRule("bh"), SelectionRule("bonferroni")):
            with pytest.raises(ValueError, match="levels"):
                fwer_two_stage(data, rule, 1.5, 2.0)
            with pytest.raises(ValueError, match="levels"):
                fdr_two_stage(data, rule, 1.5, 2.0)


class TestBonfAdjust:
    # published adjusted columns for the hippocampal example; the two cells
    # where the published table disagrees with the max formula (ASTN2 at
    # c=0.5/0.8, MSRB3 at c=0.8) are pinned to the formula value instead.
    def test_c02_column(self):
        data = load_hippocampal_volume()
        got = _adjusted(data, 0.2, "bonferroni")
        expected = {"DPP4": 1.0, "ASTN2": 1.0, "MSRB3": 0.06875, "WIF1": 0.2750, "HRK": 0.6000}
        assert got == pytest.approx(expected, rel=5e-4)

    def test_c05_column_excluding_astn2(self):
        data = load_hippocampal_volume()
        got = _adjusted(data, 0.5, "bonferroni")
        assert got["DPP4"] == pytest.approx(1.0)
        assert got["MSRB3"] == pytest.approx(0.0275, rel=5e-4)
        assert got["WIF1"] == pytest.approx(0.1100, rel=5e-4)
        assert got["HRK"] == pytest.approx(0.2400, rel=5e-4)
        # ASTN2's published 0.5000 comes from the primary term only; the
        # max formula saturates at 1 because 5*0.2/0.5 = 2.
        assert got["ASTN2"] == pytest.approx(1.0)

    def test_msrb3_c02_value(self):
        data = load_hippocampal_volume()
        got = _adjusted(data, 0.2, "bonferroni")
        assert got["MSRB3"] == pytest.approx(0.06875, rel=1e-6)

    def test_zero_pvalues(self):
        data = make_data([0.0], [0.0])
        assert _adjusted(data, 0.5, "bonferroni")["h0"] == 0.0

    def test_rejection_duality_with_bonferroni_run(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            data, a1, a, _ = random_instance(rng, max_m=50)
            report = fwer_two_stage(data, FOLLOWUP, a1, a, FwerMethod.BONFERRONI)
            adjusted = _adjusted(data, a1 / a, "bonferroni")
            by_threshold = {rid for rid, v in adjusted.items() if v <= a}
            assert by_threshold == set(report.rejected_ids)


class TestFdrTwoStage:
    def test_synthetic_fixed_point(self):
        # exhaustive scan of the fixed-point definition gives R2 = 1 here
        data = make_data([0.001, 0.002, 0.5, 0.6], [0.001, 0.04, None, None])
        rule = SelectionRule("explicit", ids={"h0", "h1"})
        report = fdr_two_stage(data, rule, 0.025, 0.05)
        assert report.rejected_ids == ("h0",)
        assert report.r2 == 1
        oracle = fdr_two_stage_rscan(data, rule, 0.025, 0.05)
        assert oracle.rejected_ids == report.rejected_ids
        # h2's p1 lies exactly on the stage-3 threshold 3*q1/m, where
        # z = m*p1/q1 rounds to 3.0000000000000004: the definition keeps it
        p1 = [1e-4, 0.5, 0.025 * 3 / 4, 1e-4]
        data = make_data(p1, [0.00625, None, 0.00625, 0.00625])
        report = fdr_two_stage(data, FOLLOWUP, 0.025, 0.05)
        assert report.rejected_ids == ("h0", "h2", "h3")
        assert fdr_two_stage_rscan(data, FOLLOWUP, 0.025, 0.05).rejected_ids == report.rejected_ids
        # the simulator's kernel, selecting the same three rows
        mask = _directed_fdr_rows(
            np.array([p1]), np.full((1, 4), 0.00625),
            SelectionRule("fixed_threshold", threshold=0.02), 4, 0.025, 0.05,
            Dependence.INDEPENDENT, None,
        )
        assert mask[0].tolist() == [True, False, True, True]

    def test_crohns_unmodified_rejects_all_36(self):
        data = load_crohns_disease()
        report = fdr_two_stage(data, SelectionRule("fixed_threshold", threshold=5e-5), 0.04, 0.05)
        assert report.r2 == 36
        assert report.r1 == 126
        assert report.adjusted_is_upper_bound

    def test_crohns_harmonic_modification_rejects_21(self):
        data = load_crohns_disease()
        report = fdr_two_stage(
            data,
            SelectionRule("fixed_threshold", threshold=5e-5),
            0.04,
            0.05,
            Dependence.ARBITRARY_PRIMARY_ITEM1,
        )
        assert report.r2 == 21

    def test_crohns_thresholded_modification_rejects_23(self):
        data = load_crohns_disease()
        report = fdr_two_stage(
            data,
            SelectionRule("fixed_threshold", threshold=5e-5),
            0.04,
            0.05,
            Dependence.ARBITRARY_PRIMARY_ITEM2,
            t=5e-5,
        )
        assert report.r2 == 23

    def test_prds_mode_identical_to_independent(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            data, q1, q, _ = random_instance(rng, max_m=50)
            a = fdr_two_stage(data, FOLLOWUP, q1, q, Dependence.INDEPENDENT)
            b = fdr_two_stage(data, FOLLOWUP, q1, q, Dependence.PRDS_FOLLOWUP)
            assert a.rejected_ids == b.rejected_ids

    def test_modified_modes_nest_inside_independent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            data, q1, q, _ = random_instance(rng, max_m=60)
            base = set(fdr_two_stage(data, FOLLOWUP, q1, q).rejected_ids)
            item1 = set(
                fdr_two_stage(
                    data, FOLLOWUP, q1, q, Dependence.ARBITRARY_PRIMARY_ITEM1
                ).rejected_ids
            )
            both = set(
                fdr_two_stage(
                    data, FOLLOWUP, q1, q, Dependence.ARBITRARY_BOTH
                ).rejected_ids
            )
            assert item1 <= base
            assert both <= item1

    def test_self_consistency(self):
        rng = np.random.default_rng(6)
        instances = [random_instance(rng, max_m=60)[:3] for _ in range(100)]
        # h2's p1 on the stage-3 threshold 3*q1/m, where z rounds: up to
        # 3.0000000000000004 (h2 rejected), and one ulp above it down to
        # exactly 3 (h2 not rejected)
        instances.append((
            make_data([1e-4, 0.5, 0.025 * 3 / 4, 1e-4], [0.00625, None, 0.00625, 0.00625]),
            0.025, 0.05,
        ))
        instances.append((
            make_data([1e-4, 1e-4, 0.015000000000000001, 0.9], [1e-3, 1e-3, 1e-3, None]),
            0.02, 0.04,
        ))
        for data, q1, q in instances:
            report = fdr_two_stage(data, FOLLOWUP, q1, q)
            p1, p2 = (dict(zip(data.ids.tolist(), col.tolist())) for col in (data.p1, data.p2))
            expected = {
                rid
                for rid in select(FOLLOWUP, data)
                if p1[rid] <= report.primary_threshold
                and p2[rid] <= report.followup_threshold
            }
            assert expected == set(report.rejected_ids)
            assert len(report.rejected_ids) == report.r2
            # report-level duality: rejected iff reported adjusted <= q
            assert _flagged(report, q) == set(report.rejected_ids)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(Dependence)))
    def test_self_consistency_on_followup_instances(self, seed, mode):
        # the check above, on follow-up sets where every rejection count occurs
        data, q1, q, t = _followup_instance(np.random.default_rng(seed), mode)
        report = fdr_two_stage(data, FOLLOWUP, q1, q, mode, t)
        followed = ~np.isnan(data.p2)
        passes = followed & (data.p1 <= report.primary_threshold)
        passes &= data.p2 <= report.followup_threshold
        assert set(np.asarray(data.ids)[passes]) == set(report.rejected_ids)
        assert len(report.rejected_ids) == report.r2
        assert _flagged(report, q) == set(report.rejected_ids)

    def test_monotone_in_pvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            data, q1, q, _ = random_instance(rng, max_m=40)
            before = set(fdr_two_stage(data, FOLLOWUP, q1, q).rejected_ids)
            j = int(rng.integers(0, len(data.ids)))
            p1, p2 = data.p1_array(), data.p2.copy()
            p1[j] /= 3.0
            p2[j] /= 3.0
            after = set(
                fdr_two_stage(StudyPairData(data.ids, p1, p2), FOLLOWUP, q1, q).rejected_ids
            )
            assert before <= after

    def test_rejections_within_selection(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            data, q1, q, _ = random_instance(rng, max_m=40)
            rule = SelectionRule.bh_at_level(q1)
            report = fdr_two_stage(data, rule, q1, q)
            assert set(report.rejected_ids) <= set(select(rule, data))

    def test_declared_r1_below_selected_count_is_data_error(self):
        data = make_data([1e-3, 2e-3, 0.5], [0.01, 0.02, None], r1_declared=1)
        with pytest.raises(DataError, match="declared follow-up count 1"):
            fdr_two_stage(data, FOLLOWUP, 0.025, 0.05)

    def test_item2_needs_threshold_compatible_selection(self):
        data = make_data([1e-3, 1e-8], [0.01, 0.01], m_declared=10000)
        with pytest.raises(DataError):
            fdr_two_stage(
                data, FOLLOWUP, 0.04, 0.05, Dependence.ARBITRARY_PRIMARY_ITEM2, t=1e-7
            )

    def test_item2_applicability_bound(self):
        data = make_data([1e-3], [0.01], m_declared=100)
        with pytest.raises(ApplicabilityError):
            fdr_two_stage(
                data, FOLLOWUP, 0.04, 0.05, Dependence.ARBITRARY_PRIMARY_ITEM2, t=0.01
            )

    def test_empty_selection(self):
        data = make_data([0.9, 0.8], [0.9, 0.9])
        report = fdr_two_stage(data, SelectionRule("fixed_threshold", threshold=0.01), 0.025, 0.05)
        assert report.rejected_ids == ()
        assert report.r1 == 0


@settings(max_examples=300, deadline=None)
@given(
    q1=st.floats(1e-6, 0.5),
    q_share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    m=st.integers(1, 10**7),
    t_share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    draw=st.data(),
)
def test_level_divisors_give_each_level_bit_for_bit(q1, q_share, m, t_share, draw):
    # q1/d1 and (q - q1)/d2 are the levels H_m, the thresholded level and
    # H_R1 give: dividing by d1 = q1/q1_tilde returns q1_tilde itself
    q = q1 + q_share * (1.0 - q1)
    bound = q1 / (1.0 + harmonic(m - 1))  # the thresholded level's applicability bound
    t = t_share * bound
    assume(q1 < q < 1.0 and 0.0 < t < bound)
    count = draw.draw(st.integers(0, m))
    column = np.array(draw.draw(st.lists(st.integers(0, m), min_size=1, max_size=4)))[:, None]
    item1, item2, both = (Dependence.ARBITRARY_PRIMARY_ITEM1,
                          Dependence.ARBITRARY_PRIMARY_ITEM2, Dependence.ARBITRARY_BOTH)
    d1, d2 = _level_divisors(q1, item2, t, m, count)
    assert q1 / d1 == solve_q1_tilde_thresholded(q1, m, t) and d2 == 1.0
    assert _level_divisors(q1, item1, None, m, count) == (harmonic(m), 1.0)
    for r1 in (count, column):
        d1, d2 = _level_divisors(q1, both, None, m, r1)
        h_r1 = np.array([harmonic(max(r, 1)) for r in np.ravel(r1)]).reshape(np.shape(r1))
        assert q1 / d1 == q1 / harmonic(m)
        assert np.shape(d2) == np.shape(r1) and np.array_equal((q - q1) / d2, (q - q1) / h_r1)
    for mode in (Dependence.INDEPENDENT, Dependence.PRDS_FOLLOWUP):
        assert _level_divisors(q1, mode, None, m, column) == (1.0, 1.0)


class TestStepUpEquivalences:
    def test_sort_path_equals_rscan_and_adjust_duality(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            data, q1, q, _ = random_instance(rng, max_m=80, max_r1=40)
            fast = fdr_two_stage(data, FOLLOWUP, q1, q)
            slow = fdr_two_stage_rscan(data, FOLLOWUP, q1, q)
            assert fast.rejected_ids == slow.rejected_ids
            adjusted = _adjusted(data, q1 / q, "fdr")
            by_threshold = {rid for rid, v in adjusted.items() if v <= q}
            assert by_threshold == set(fast.rejected_ids)

    def test_rscan_agrees_under_modified_modes(self):
        rng = np.random.default_rng(10)
        for mode, t in [
            (Dependence.ARBITRARY_PRIMARY_ITEM1, None),
            (Dependence.ARBITRARY_BOTH, None),
        ]:
            for _ in range(50):
                data, q1, q, _ = random_instance(rng, max_m=50)
                fast = fdr_two_stage(data, FOLLOWUP, q1, q, mode, t)
                slow = fdr_two_stage_rscan(data, FOLLOWUP, q1, q, mode, t)
                assert fast.rejected_ids == slow.rejected_ids


class TestFdrAdjust:
    def test_crohns_top_rows(self):
        data = load_crohns_disease()
        by_id = _adjusted(data, 0.8, "fdr")
        assert by_id["chr1:67417979"] == pytest.approx(2.53e-28, rel=0.02)
        assert by_id["chr1:67414547"] == pytest.approx(9.69e-27, rel=0.02)

    def test_crohns_top_row_with_harmonic_prescale(self):
        data = load_crohns_disease()
        factor = harmonic(data.m)
        scaled = StudyPairData(
            data.ids, np.minimum(factor * data.p1, 1.0), data.p2,
            m_declared=data.m_declared, r1_declared=data.r1_declared,
        )
        scores = _adjusted(scaled, 0.8, "fdr")
        assert scores["chr1:67417979"] == pytest.approx(3.53e-27, rel=0.02)

    def test_single_zero(self):
        data = make_data([0.0], [0.0])
        assert _adjusted(data, 0.5, "fdr")["h0"] == 0.0


class TestSymmetric:
    def test_w1_one_is_directed_run(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            data, q1, q, _ = random_instance(rng, max_m=40)
            rule = SelectionRule.bh_at_level(q1)
            sym = fdr_symmetric(data, rule, 1.0, q1, q)
            directed = fdr_two_stage(data, rule, q1, q)
            assert sym.rejected_ids == directed.rejected_ids

    def test_w1_zero_is_reversed_run(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            data, q1, q, _ = random_instance(rng, max_m=40)
            rule = SelectionRule.bh_at_level(q1)
            sym = fdr_symmetric(data, rule, 0.0, q1, q)
            reversed_run = fdr_two_stage(data.swap_studies(), rule, q1, q)
            assert sym.rejected_ids == reversed_run.rejected_ids

    def test_half_weight_symmetric_under_swap(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            data, q1, q, _ = random_instance(rng, max_m=40)
            rule = SelectionRule.bh_at_level(0.5 * q1)
            a = fdr_symmetric(data, rule, 0.5, q1, q)
            b = fdr_symmetric(data.swap_studies(), rule, 0.5, q1, q)
            assert a.rejected_ids == b.rejected_ids

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_half_weight_symmetric_under_swap_on_followup_instances(self, seed):
        # the check above, on data where rejections are common
        rng = np.random.default_rng(seed)
        data, q1, q, _ = _followup_instance(rng, Dependence.INDEPENDENT)
        data = _completed(data, rng)
        rule = SelectionRule("bh")
        a = fdr_symmetric(data, rule, 0.5, q1, q)
        b = fdr_symmetric(data.swap_studies(), rule, 0.5, q1, q)
        assert a.rejected_ids == b.rejected_ids

    def test_requires_complete_data(self):
        data = make_data([0.1, 0.2], [0.3, None])
        with pytest.raises(DataError):
            fdr_symmetric(data, FOLLOWUP, 0.5, 0.025, 0.05)

    def test_forward_run_alone_takes_a_partial_family(self):
        """Only running both directions needs every row: at w1 = 1 the
        forward run reads Crohn's partial listing and keeps its upper-bound
        flag."""
        data = load_crohns_disease()
        sym = fdr_symmetric(data, FOLLOWUP, 1.0, 0.04, 0.05)
        directed = fdr_two_stage(data, FOLLOWUP, 0.04, 0.05)
        assert sym.rejected_ids == directed.rejected_ids
        assert sym.adjusted_is_upper_bound and directed.adjusted_is_upper_bound
        with pytest.raises(DataError, match="full family"):
            fdr_symmetric(data, FOLLOWUP, 0.5, 0.04, 0.05)


class TestBaselines:
    def test_partial_conjunction_trivials(self):
        assert PARTIAL_CONJUNCTION.run(make_data([1.0], [1.0])).rejected_ids == ()
        assert PARTIAL_CONJUNCTION.run(make_data([0.01], [0.03])).rejected_ids == ("h0",)

    def test_partial_conjunction_misses_strong_two_study_signal(self):
        # one very strong pair among a million hypotheses: the max p-value
        # 1.25e-4 cannot clear the step-up threshold q/m = 5e-8
        m = 10**6
        p1 = np.ones(m)
        p2 = np.ones(m)
        p1[0] = 0.025 / m
        p2[0] = 0.025 / 200.0
        data = make_data(p1, p2)
        report = PARTIAL_CONJUNCTION.run(data)
        assert report.rejected_ids == ()

    def test_naive_two_step(self):
        data = make_data([0.001, 0.002, 0.9], [0.001, 0.9, 0.9])
        report = Procedure(kind="naive_bh_bh", q=0.05, primary=1).run(data)
        assert report.rejected_ids == ("h0",)

    def test_naive_all_ones(self):
        data = make_data([1.0, 1.0], [1.0, 1.0])
        assert NAIVE.run(data).rejected_ids == ()

    def test_fisher_combined_values(self):
        assert fisher_combined_pvalues(np.array([1.0]), np.array([1.0]))[0] == 1.0
        combined = fisher_combined_pvalues(np.array([0.1]), np.array([0.1]))[0]
        assert combined == pytest.approx(0.0560518, abs=1e-4)

    def test_fisher_single_hypothesis_not_rejected(self):
        report = FISHER.run(make_data([0.1], [0.1]))
        assert report.rejected_ids == ()

    def test_fisher_zero_saturates(self):
        report = FISHER.run(make_data([0.0], [0.5]))
        assert report.z[0] == 0.0
        assert report.rejected_ids == ("h0",)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_report_duality_of_scored_reports(seed):
    # rejected iff the reported adjusted value is at most the level, for
    # the scored reports besides fdr_two_stage's
    rng = np.random.default_rng(seed)
    data, q1, q, _ = _followup_instance(rng, Dependence.INDEPENDENT)
    complete = _completed(data, rng)
    for report in (
        fwer_two_stage(data, FOLLOWUP, q1, q, FwerMethod.BONFERRONI),
        fwer_two_stage(data, FOLLOWUP, q1, q, FwerMethod.HOLM),
        Procedure(kind="partial_conjunction", q=q).run(complete),
        Procedure(kind="fisher_meta", q=q).run(complete),
    ):
        assert _flagged(report, q) == set(report.rejected_ids), report.procedure


# each run by the name of the library function it was before procedure kinds
EMPTY_FAMILY_RUNS = {
    "fdr_two_stage": partial(fdr_two_stage, rule=FOLLOWUP, q1=0.025, q=0.05),
    "fdr_two_stage_rscan": partial(fdr_two_stage_rscan, rule=FOLLOWUP, q1=0.025, q=0.05),
    "fwer_two_stage": partial(fwer_two_stage, rule=FOLLOWUP, alpha1=0.025, alpha=0.05),
    "fdr_symmetric": partial(fdr_symmetric, rule=FOLLOWUP, w1=0.5, q1=0.025, q=0.05),
    "oracle_calibrated_run": partial(_oracle, rule=FOLLOWUP, f00=0.9, f01=0.01, q=0.05),
    "baseline_partial_conjunction": PARTIAL_CONJUNCTION.run,
    "baseline_naive_bh_bh": NAIVE.run,
    "baseline_fisher_meta": FISHER.run,
    "build_adjusted_table": partial(build_adjusted_table, c=0.5),
}


@pytest.mark.parametrize("run", EMPTY_FAMILY_RUNS.values(), ids=EMPTY_FAMILY_RUNS)
@pytest.mark.parametrize("m_declared", [None, 0])
def test_empty_family_is_data_error(run, m_declared):
    with pytest.raises(DataError, match="family size m must be positive, got 0"):
        run(StudyPairData([], [], [], m_declared))


class TestOracleRun:
    def test_degenerate_fractions_run_at_q_2q(self):
        rng = np.random.default_rng(15)
        data, _, _, _ = random_instance(rng, max_m=40)
        rule = SelectionRule.followed_up()
        got = _oracle(data, rule, 0.0, 0.0, 0.05, 1.0)
        direct = fdr_two_stage(data, rule, 0.05, 0.10)
        assert got.rejected_ids == direct.rejected_ids

    def test_gwas_fractions_level(self):
        rng = np.random.default_rng(16)
        data, _, _, _ = random_instance(rng, max_m=40)
        report = _oracle(data, SelectionRule.followed_up(), 0.999, 0.00036, 0.05, 1.0)
        assert "q'=0.0477" in report.procedure

    def test_wider_gap_rejects_no_less(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            data, _, _, _ = random_instance(rng, max_m=40)
            qp = 0.04
            wide = fdr_two_stage(data, FOLLOWUP, qp, 2 * qp)
            narrow = fdr_two_stage(data, FOLLOWUP, qp, qp + 0.01)
            assert set(narrow.rejected_ids) <= set(wide.rejected_ids)

    def test_symmetric_weight(self):
        rng = np.random.default_rng(18)
        data, _, _, _ = random_instance(rng, max_m=40)
        report = _oracle(data, SelectionRule.bh_at_level(0.02), 0.9, 0.01, 0.05, 0.5)
        assert report.procedure.startswith("oracle")


# a complete family of 12, and per kind: its fields, then the label and the
# rejections that the library function of the kind gave on it before
# Procedure.run became its only entry point (oracle fractions (0.8, 0.05))
COMPLETE = make_data(
    [1e-5, 2e-4, 8e-4, 3e-3, 0.004, 0.02, 0.3, 0.6, 0.9, 1e-3, 0.5, 0.04],
    [2e-3, 1e-4, 0.2, 1e-3, 0.9, 0.01, 0.01, 5e-4, 0.7, 2e-4, 1e-5, 0.3],
)
# kind: (fields, label, rejected rows, (r1, primary and follow-up thresholds,
# upper-bound flag)) on COMPLETE; Holm reports the last step-down thresholds
# it cleared, 0.025/(12 - 4 + 1) and 0.025/(4 - 3 + 1)
KIND_RUNS = {
    "fdr": (
        dict(q1=0.025), "fdr_two_stage[independent]", (0, 1, 3, 9),
        (6, 0.008333333333333333, 0.016666666666666666, False),
    ),
    "fdr_symmetric": (
        dict(q1=0.025, w1=0.5), "fdr_symmetric[w1=0.5,independent]", (0, 1, 3, 9),
        (6, 0.004166666666666667, 0.008333333333333333, False),
    ),
    "fwer": (
        dict(q1=0.025, fwer_method="holm"), "fwer_two_stage[holm]", (0, 1, 9),
        (4, 0.002777777777777778, 0.0125, False),
    ),
    "partial_conjunction": (
        {}, "baseline_partial_conjunction", (0, 1, 3, 5, 9),
        (12, 0.020833333333333332, 0.020833333333333332, False),
    ),
    "naive_bh_bh": (
        dict(primary=2), "baseline_naive_bh_bh[primary=2]", (0, 1, 3, 5, 9),
        (8, 0.03333333333333333, 0.03125, False),
    ),
    "fisher_meta": (
        {}, "baseline_fisher_meta", (0, 1, 2, 3, 4, 5, 6, 7, 9, 10),
        (12, 0.041666666666666664, 0.041666666666666664, False),
    ),
    "oracle": (
        dict(w1=0.5), "oracle[q'=0.0467852,w1=0.5]", (0, 1, 3, 9),
        (6, 0.00779753303053692, 0.01559506606107384, False),
    ),
}


@pytest.mark.parametrize("kind", KIND_RUNS)
def test_each_kind_runs_and_refuses_as_its_library_function(kind):
    """``Procedure(kind).run`` labels, rejects and reports R1, the two
    thresholds and the upper-bound flag as the kind's library function
    did, and refuses what it refused, with the same error class:
    a level out of range, ``primary=3``, an incomplete family where the
    kind needs a complete one, and an oracle without its fractions."""
    fields_, label, rejected, summary = KIND_RUNS[kind]
    procedure = Procedure(kind=kind, q=0.05, **fields_)
    report = procedure.run(COMPLETE, (0.8, 0.05))
    assert report.procedure == label
    assert report.rejected_ids == tuple(f"h{i}" for i in rejected)
    thresholds = (report.primary_threshold, report.followup_threshold)
    assert (report.r1, *thresholds, report.adjusted_is_upper_bound) == summary
    with pytest.raises(ParameterError, match="level"):
        Procedure(kind=kind, **{**fields_, "q": 1.5})
    with pytest.raises(ParameterError, match="primary study must be 1 or 2, got 3"):
        Procedure(kind="naive_bh_bh", q=0.05, primary=3)
    partial_family = make_data([1e-4, 0.02, 0.5], [1e-3, 0.01, None])
    if kind in ("fdr", "fwer"):  # a follow-up of part of the family is their input
        assert procedure.run(partial_family, (0.8, 0.05)).procedure == label
    else:
        with pytest.raises(DataError, match="requires follow-up p-values") as refused:
            procedure.run(partial_family, (0.8, 0.05))
        assert refused.type is DataError
    if kind == "oracle":
        with pytest.raises(ParameterError, match="needs the fractions"):
            procedure.run(COMPLETE)


class TestProcedureParams:
    """``check_levels``, the one check of a procedure's levels."""

    def test_level_ordering_enforced(self):
        with pytest.raises(ValueError):
            check_levels(q1=0.05, q=0.05)

    def test_item2_requires_t(self):
        with pytest.raises(ValueError):
            check_levels(q1=0.01, q=0.05, mode=Dependence.ARBITRARY_PRIMARY_ITEM2)

    @pytest.mark.parametrize(
        "mode", [m for m in Dependence if m is not Dependence.ARBITRARY_PRIMARY_ITEM2],
        ids=lambda mode: mode.value,
    )
    def test_t_refused_outside_item2(self, mode):
        """A t that no other mode reads is refused, as ``adjust`` refuses it."""
        message = f"{mode.value} does not read t; only the thresholded mode does"
        with pytest.raises(ParameterError, match=message):
            check_levels(0.04, 0.05, mode=mode, t=5e-5)
        for run in self._entry_points():
            with pytest.raises(ParameterError, match=message):
                run(mode, 5e-5)

    @staticmethod
    def _entry_points():
        data, rule = load_crohns_disease(), SelectionRule("fixed_threshold", threshold=5e-5)
        return [
            partial(fdr_two_stage, data, rule, 0.04, 0.05),
            partial(fdr_two_stage_rscan, data, rule, 0.04, 0.05),
            partial(fdr_symmetric, data, rule, 1.0, 0.04, 0.05),
            partial(_oracle, data, rule, 0.999, 0.00036, 0.05, 1.0),
        ]

    @pytest.mark.parametrize("mode", list(Dependence), ids=lambda mode: mode.value)
    def test_mode_by_value_runs_as_the_member(self, mode):
        t = 5e-5 if mode is Dependence.ARBITRARY_PRIMARY_ITEM2 else None
        assert check_levels(0.04, 0.05, mode=mode.value, t=t) is mode
        for run in self._entry_points():
            assert _report_fields(run(mode.value, t)) == _report_fields(run(mode, t))

    def test_cli_alias_is_no_mode(self):
        with pytest.raises(ParameterError, match="'item1' is not a valid Dependence"):
            check_levels(0.04, 0.05, mode="item1")
        for run in self._entry_points():
            with pytest.raises(ParameterError, match="'item1' is not a valid Dependence"):
                run("item1")


def _rejected_or_refusal(*args):
    try:
        return set(fdr_two_stage(*args).rejected_ids)
    except DataError:
        return DataError


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bh=st.booleans(), mode=st.sampled_from(list(Dependence)))
def test_rejections_invariant_under_row_permutation(seed, bh, mode):
    rng = np.random.default_rng(seed)
    data, q1, q, t = _followup_instance(rng, mode)
    order = rng.permutation(len(data.ids))
    shuffled = StudyPairData([data.ids[i] for i in order], data.p1[order], data.p2[order])
    rule = SelectionRule.bh_at_level(q1) if bh else FOLLOWUP
    before = _rejected_or_refusal(data, rule, q1, q, mode, t)
    after = _rejected_or_refusal(shuffled, rule, q1, q, mode, t)
    assert after == before


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(list(Dependence)),
    study=st.sampled_from([1, 2]),
    shrink=st.sampled_from([0.0, 0.5, 0.999]),
)
def test_lowering_a_pvalue_never_removes_a_rejection(seed, mode, study, shrink):
    """Step-up self-consistency (Blanchard & Roquain, EJS 2008): with the
    follow-up set fixed, lowering p1 or p2 of a followed-up row can only
    add rejections."""
    rng = np.random.default_rng(seed)
    data, q1, q, t = _followup_instance(rng, mode)  # lowering p1 keeps p1 <= t
    j = rng.choice(np.flatnonzero(~np.isnan(data.p2)))
    p1, p2 = data.p1.copy(), data.p2.copy()
    (p1 if study == 1 else p2)[j] *= shrink
    lowered = StudyPairData(data.ids, p1, p2)
    before = fdr_two_stage(data, FOLLOWUP, q1, q, mode, t).rejected_ids
    after = fdr_two_stage(lowered, FOLLOWUP, q1, q, mode, t).rejected_ids
    assert set(before) <= set(after)


@st.composite
def directed_rows(draw):
    """Rows of (n, m) p-values for the directed FDR kernel, with its levels
    and selection. A row is drawn at random, or selects nothing (p1 = 1
    throughout), or selects everything its rule can (p1 tiny throughout);
    p-values may be snapped onto the grid level*k/m, for ties and values
    exactly at a threshold."""
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, 6))
    q = draw(st.sampled_from([0.05, 0.1, 0.2]))
    q1 = draw(st.sampled_from([0.2, 0.5, 0.8])) * q
    mode = draw(st.sampled_from(list(Dependence)))
    t = q1 / (1.0 + harmonic(m - 1)) * draw(st.sampled_from([1e-3, 0.3, 0.9, 1.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # powers of uniforms put many p-values near 0, where the stages cut
    p1 = rng.random((n, m)) ** draw(st.sampled_from([1.0, 4.0, 16.0]))
    p2 = rng.random((n, m)) ** draw(st.sampled_from([1.0, 4.0, 16.0]))
    for row in range(n):
        kind = draw(st.sampled_from(["random", "none", "all"]))
        if kind == "none":
            p1[row] = 1.0
        elif kind == "all":
            p1[row] *= 1e-3 * t
    snap = draw(st.sampled_from([None, q1, q]))
    if snap is not None:
        p1, p2 = (np.minimum(snap * np.ceil(p * m / snap) / m, 1.0) for p in (p1, p2))
    rule = draw(st.sampled_from([
        SelectionRule("bh"),
        SelectionRule("bh", level=0.5 * q1),
        SelectionRule("bonferroni"),
        SelectionRule("fixed_threshold", threshold=t),
        SelectionRule("top_k", k=draw(st.integers(1, m))),
    ]))
    if draw(st.booleans()):  # rows that are not C-contiguous
        p1, p2 = np.asfortranarray(p1), np.asfortranarray(p2)
    return p1, p2, rule, m, q1, q, mode, t


def _mask_or_refusal(kernel, *args):
    try:
        return kernel(*args)
    except (ReplicabilityError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(case=directed_rows())
def test_gathered_fdr_rows_match_full_width(case):
    """The kernel packs each row's selected entries into (n, max R1) arrays
    before its step-up; it rejects what the step-up over all m columns
    with z = inf off the selection rejects, and refuses what it refuses
    (the thresholded mode's check on selected p1), with the same error."""
    got = _mask_or_refusal(_directed_fdr_rows, *case)
    want = _mask_or_refusal(directed_fdr_full_width, *case)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
