import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _followup_instance, make_data, random_instance
from procedure_oracles import directed_fdr_full_width
from replicability.data import HypothesisRecord, StudyPairData
from replicability.datasets import load_crohns_disease, load_hippocampal_volume
from replicability.errors import ApplicabilityError, DataError, ReplicabilityError
from replicability.numeric import harmonic
from replicability.procedures import (
    Dependence,
    FwerMethod,
    ProcedureParams,
    _directed_fdr_rows,
    baseline_fisher_meta,
    baseline_naive_bh_bh,
    baseline_partial_conjunction,
    bonf_replicability_adjust,
    fdr_replicability_adjust,
    fdr_symmetric,
    fdr_two_stage,
    fdr_two_stage_rscan,
    fisher_combined_pvalues,
    fwer_two_stage,
    oracle_calibrated_run,
)
from replicability.selection import SelectionRule

FOLLOWUP = SelectionRule.followed_up()


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
            fwer_two_stage(data, SelectionRule.top_k(2), 0.025, 0.05)

    def test_holm_at_least_bonferroni(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            data, a1, a, _ = random_instance(rng, max_m=60)
            bonf = fwer_two_stage(data, FOLLOWUP, a1, a, FwerMethod.BONFERRONI)
            holm = fwer_two_stage(data, FOLLOWUP, a1, a, FwerMethod.HOLM)
            assert set(bonf.rejected_ids) <= set(holm.rejected_ids)

    def test_level_validation(self):
        data = make_data([0.5], [0.5])
        with pytest.raises(ValueError):
            fwer_two_stage(data, FOLLOWUP, 0.05, 0.05)

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
        got = [s.adjusted_p for s in bonf_replicability_adjust(data, 0.2)]
        expected = [1.0, 1.0, 0.06875, 0.2750, 0.6000]
        assert got == pytest.approx(expected, rel=5e-4)

    def test_c05_column_excluding_astn2(self):
        data = load_hippocampal_volume()
        got = {s.id: s.adjusted_p for s in bonf_replicability_adjust(data, 0.5)}
        assert got["DPP4"] == pytest.approx(1.0)
        assert got["MSRB3"] == pytest.approx(0.0275, rel=5e-4)
        assert got["WIF1"] == pytest.approx(0.1100, rel=5e-4)
        assert got["HRK"] == pytest.approx(0.2400, rel=5e-4)
        # ASTN2's published 0.5000 comes from the primary term only; the
        # max formula saturates at 1 because 5*0.2/0.5 = 2.
        assert got["ASTN2"] == pytest.approx(1.0)

    def test_msrb3_c02_value(self):
        data = load_hippocampal_volume()
        got = {s.id: s.adjusted_p for s in bonf_replicability_adjust(data, 0.2)}
        assert got["MSRB3"] == pytest.approx(0.06875, rel=1e-6)

    def test_zero_pvalues(self):
        data = make_data([0.0], [0.0])
        assert bonf_replicability_adjust(data, 0.5)[0].adjusted_p == 0.0

    def test_rejection_duality_with_bonferroni_run(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            data, a1, a, _ = random_instance(rng, max_m=50)
            report = fwer_two_stage(data, FOLLOWUP, a1, a, FwerMethod.BONFERRONI)
            adjusted = {
                s.id: s.adjusted_p for s in bonf_replicability_adjust(data, a1 / a)
            }
            by_threshold = {rid for rid, v in adjusted.items() if v <= a}
            assert by_threshold == set(report.rejected_ids)


class TestFdrTwoStage:
    def test_synthetic_fixed_point(self):
        # exhaustive scan of the fixed-point definition gives R2 = 1 here
        data = make_data([0.001, 0.002, 0.5, 0.6], [0.001, 0.04, None, None])
        rule = SelectionRule.explicit({"h0", "h1"})
        report = fdr_two_stage(data, rule, 0.025, 0.05)
        assert report.rejected_ids == ("h0",)
        assert report.r2 == 1
        oracle = fdr_two_stage_rscan(data, rule, 0.025, 0.05)
        assert oracle.rejected_ids == report.rejected_ids

    def test_crohns_unmodified_rejects_all_36(self):
        data = load_crohns_disease()
        report = fdr_two_stage(data, SelectionRule.fixed_threshold(5e-5), 0.04, 0.05)
        assert report.r2 == 36
        assert report.r1 == 126
        assert report.adjusted_is_upper_bound

    def test_crohns_harmonic_modification_rejects_21(self):
        data = load_crohns_disease()
        report = fdr_two_stage(
            data,
            SelectionRule.fixed_threshold(5e-5),
            0.04,
            0.05,
            Dependence.ARBITRARY_PRIMARY_ITEM1,
        )
        assert report.r2 == 21

    def test_crohns_thresholded_modification_rejects_23(self):
        data = load_crohns_disease()
        report = fdr_two_stage(
            data,
            SelectionRule.fixed_threshold(5e-5),
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
        for _ in range(100):
            data, q1, q, _ = random_instance(rng, max_m=60)
            report = fdr_two_stage(data, FOLLOWUP, q1, q)
            by_id = {r.id: r for r in data.records}
            expected = {
                rid
                for rid in data.followed_up_ids()
                if by_id[rid].p1 <= report.primary_threshold
                and by_id[rid].p2 <= report.followup_threshold
            }
            assert expected == set(report.rejected_ids)
            assert len(report.rejected_ids) == report.r2
            # report-level duality: rejected iff reported adjusted <= q
            flagged = {s.id for s in report.per_hypothesis if s.adjusted_p <= q}
            assert flagged == set(report.rejected_ids)

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
        flagged = {s.id for s in report.per_hypothesis if s.adjusted_p <= q}
        assert flagged == set(report.rejected_ids)

    def test_monotone_in_pvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            data, q1, q, _ = random_instance(rng, max_m=40)
            before = set(fdr_two_stage(data, FOLLOWUP, q1, q).rejected_ids)
            j = int(rng.integers(0, len(data.records)))
            rec = data.records[j]
            shrunk = list(data.records)
            shrunk[j] = HypothesisRecord(rec.id, rec.p1 / 3.0, rec.p2 / 3.0)
            after = set(
                fdr_two_stage(StudyPairData(shrunk), FOLLOWUP, q1, q).rejected_ids
            )
            assert before <= after

    def test_rejections_within_selection(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            data, q1, q, _ = random_instance(rng, max_m=40)
            rule = SelectionRule.bh_at_level(q1)
            report = fdr_two_stage(data, rule, q1, q)
            from replicability.selection import select

            assert set(report.rejected_ids) <= set(select(rule, data))

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
        report = fdr_two_stage(data, SelectionRule.fixed_threshold(0.01), 0.025, 0.05)
        assert report.rejected_ids == ()
        assert report.r1 == 0


class TestStepUpEquivalences:
    def test_sort_path_equals_rscan_and_adjust_duality(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            data, q1, q, _ = random_instance(rng, max_m=80, max_r1=40)
            fast = fdr_two_stage(data, FOLLOWUP, q1, q)
            slow = fdr_two_stage_rscan(data, FOLLOWUP, q1, q)
            assert fast.rejected_ids == slow.rejected_ids
            adjusted = fdr_replicability_adjust(data, q1 / q)
            by_threshold = {s.id for s in adjusted if s.adjusted_p <= q}
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
        scores = fdr_replicability_adjust(data, 0.8)
        by_id = {s.id: s.adjusted_p for s in scores}
        assert by_id["chr1:67417979"] == pytest.approx(2.53e-28, rel=0.02)
        assert by_id["chr1:67414547"] == pytest.approx(9.69e-27, rel=0.02)

    def test_crohns_top_row_with_harmonic_prescale(self):
        data = load_crohns_disease()
        factor = harmonic(data.m)
        scaled = StudyPairData(
            [
                HypothesisRecord(r.id, min(factor * r.p1, 1.0), r.p2)
                for r in data.records
            ],
            m_declared=data.m_declared,
            r1_declared=data.r1_declared,
        )
        scores = {s.id: s.adjusted_p for s in fdr_replicability_adjust(scaled, 0.8)}
        assert scores["chr1:67417979"] == pytest.approx(3.53e-27, rel=0.02)

    def test_single_zero(self):
        data = make_data([0.0], [0.0])
        scores = fdr_replicability_adjust(data, 0.5)
        assert scores[0].adjusted_p == 0.0

    def test_sorted_by_z(self):
        rng = np.random.default_rng(11)
        data, _, _, _ = random_instance(rng, max_m=30)
        scores = fdr_replicability_adjust(data, 0.5)
        zs = [s.z_value for s in scores]
        assert zs == sorted(zs)


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
        assert (
            baseline_partial_conjunction(make_data([1.0], [1.0]), 0.05).rejected_ids
            == ()
        )
        assert baseline_partial_conjunction(
            make_data([0.01], [0.03]), 0.05
        ).rejected_ids == ("h0",)

    def test_partial_conjunction_misses_strong_two_study_signal(self):
        # one very strong pair among a million hypotheses: the max p-value
        # 1.25e-4 cannot clear the step-up threshold q/m = 5e-8
        m = 10**6
        p1 = np.ones(m)
        p2 = np.ones(m)
        p1[0] = 0.025 / m
        p2[0] = 0.025 / 200.0
        data = make_data(p1, p2)
        report = baseline_partial_conjunction(data, 0.05)
        assert report.rejected_ids == ()

    def test_naive_two_step(self):
        data = make_data([0.001, 0.002, 0.9], [0.001, 0.9, 0.9])
        report = baseline_naive_bh_bh(data, 0.05, primary=1)
        assert report.rejected_ids == ("h0",)

    def test_naive_all_ones(self):
        data = make_data([1.0, 1.0], [1.0, 1.0])
        assert baseline_naive_bh_bh(data, 0.05).rejected_ids == ()

    def test_fisher_combined_values(self):
        assert fisher_combined_pvalues(np.array([1.0]), np.array([1.0]))[0] == 1.0
        combined = fisher_combined_pvalues(np.array([0.1]), np.array([0.1]))[0]
        assert combined == pytest.approx(0.0560518, abs=1e-4)

    def test_fisher_single_hypothesis_not_rejected(self):
        report = baseline_fisher_meta(make_data([0.1], [0.1]), 0.05)
        assert report.rejected_ids == ()

    def test_fisher_zero_saturates(self):
        report = baseline_fisher_meta(make_data([0.0], [0.5]), 0.05)
        assert report.per_hypothesis[0].z_value == 0.0
        assert report.rejected_ids == ("h0",)


class TestOracleRun:
    def test_degenerate_fractions_run_at_q_2q(self):
        rng = np.random.default_rng(15)
        data, _, _, _ = random_instance(rng, max_m=40)
        rule = SelectionRule.followed_up()
        got = oracle_calibrated_run(data, rule, 0.0, 0.0, 0.05, 1.0)
        direct = fdr_two_stage(data, rule, 0.05, 0.10)
        assert got.rejected_ids == direct.rejected_ids

    def test_gwas_fractions_level(self):
        rng = np.random.default_rng(16)
        data, _, _, _ = random_instance(rng, max_m=40)
        report = oracle_calibrated_run(
            data, SelectionRule.followed_up(), 0.999, 0.00036, 0.05, 1.0
        )
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
        report = oracle_calibrated_run(
            data, SelectionRule.bh_at_level(0.02), 0.9, 0.01, 0.05, 0.5
        )
        assert report.procedure.startswith("oracle")


class TestProcedureParams:
    def test_c_ratio(self):
        params = ProcedureParams(q1=0.025, q=0.05)
        assert params.c == 0.5

    def test_level_ordering_enforced(self):
        with pytest.raises(ValueError):
            ProcedureParams(q1=0.05, q=0.05)

    def test_item2_requires_t(self):
        with pytest.raises(ValueError):
            ProcedureParams(q1=0.01, q=0.05, mode=Dependence.ARBITRARY_PRIMARY_ITEM2)


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
    shuffled = StudyPairData.from_columns(
        [data.ids[i] for i in order], data.p1[order], data.p2[order]
    )
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
    lowered = StudyPairData.from_columns(data.ids, p1, p2)
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
