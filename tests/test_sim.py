import hashlib
import logging
import math
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from procedure_oracles import fdr_directions, reference_mask
from replicability import procedures, sim
from replicability.data import TRUTH_LABELS, StudyPairData
from replicability.errors import DataError, ParameterError, ReplicabilityError
from replicability.numeric import harmonic, ndtr, ndtri
from replicability.procedures import (
    Dependence,
    Procedure,
    fdr_two_stage,
    fdr_two_stage_rscan,
)
from replicability.selection import SelectionRule
from replicability.sim import (
    SimScenario,
    _plan,
    _pvalues,
    analytic_power_bonf_max,
    analytic_power_two_stage,
    generate_rep,
    run_scenario,
    sweep,
    truth_block_sizes,
)

BASE = SimScenario(
    m=200,
    f00=0.9,
    f01=0.025,
    f10=0.025,
    f11=0.05,
    mu1=3.0,
    mu2=3.0,
    sigma1=1.0,
    sigma2=1.0,
    procedure=Procedure(kind="fdr", q1=0.025, q=0.05),
    reps=50,
    seed=7,
)


class TestTruthLayout:
    def test_exact_fractions(self):
        assert truth_block_sizes(1000, (0.9, 0.025, 0.025, 0.05)) == (900, 25, 25, 50)

    def test_largest_remainder(self):
        sizes = truth_block_sizes(10, (0.86, 0.05, 0.05, 0.04))
        assert sum(sizes) == 10
        assert sizes == (9, 1, 0, 0)

    @pytest.mark.parametrize("fractions, message", [
        ((1.5, -0.5, 0.0, 0.0), r"fractions must lie in \[0, 1\]"),
        ((0.5, 0.5, float("nan"), 0.0), r"fractions must lie in \[0, 1\]"),
        ((0.5, 0.4, 0.0, 0.0), "fractions must sum to 1, got 0.9"),
    ])
    def test_fractions_refused(self, fractions, message):
        # the rule the scenario check reads: SimScenario refuses the same
        with pytest.raises(ParameterError, match=message):
            truth_block_sizes(10, fractions)
        with pytest.raises(ParameterError, match=message):
            replace(BASE, **dict(zip(("f00", "f01", "f10", "f11"), fractions)))

    def test_always_covers_m(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            f = rng.dirichlet(np.ones(4))
            m = int(rng.integers(1, 500))
            assert sum(truth_block_sizes(m, tuple(f))) == m


class TestGenerateRep:
    def test_deterministic(self):
        a_data, a_truth = generate_rep(BASE, 3)
        b_data, b_truth = generate_rep(BASE, 3)
        assert a_data == b_data
        assert np.array_equal(a_truth, b_truth)

    def test_ids_zero_padded(self):
        for m in (1, 9, 10, 200, 1000):
            data, _ = generate_rep(replace(BASE, m=m), 0)
            width = len(str(m))
            assert data.ids.tolist() == [f"h{i:0{width}d}" for i in range(1, m + 1)]

    def test_reps_differ(self):
        a_data, _ = generate_rep(BASE, 0)
        b_data, _ = generate_rep(BASE, 1)
        assert a_data != b_data

    @pytest.mark.parametrize("rep_index", [-1, 1.5, 2.0, "3", None])
    def test_rep_index_not_a_repetition_refused(self, rep_index):
        # -1 would start a negative Philox counter: no repetition run_scenario draws
        with pytest.raises(ParameterError, match=f"rep_index .* got {rep_index!r}"):
            generate_rep(BASE, rep_index)

    def test_rep_index_past_the_philox_counters_refused(self):
        # BASE's 180-row null block reads Philox counter blocks r*45+1 ..
        # (r+1)*45: numpy refuses a start counter of 2**256, and a
        # repetition whose blocks reach 2**256 would read block 0 there
        limit = (2**256 - 1) // 45
        data, _ = generate_rep(BASE, limit - 1)
        assert np.all((data.p1 > 0) & (data.p1 <= 1))
        for rep_index in (limit, 2**256):
            with pytest.raises(ParameterError, match=f"rep_index must be below {limit},"):
                generate_rep(BASE, rep_index)

    def test_numpy_rep_index_is_that_repetition(self):
        assert generate_rep(BASE, np.int64(3))[0] == generate_rep(BASE, 3)[0]

    def test_null_pvalues_uniform(self):
        # all-null scenario: pooled p-values pass a KS uniformity check
        scenario = SimScenario(
            m=1000, f00=1.0, f01=0.0, f10=0.0, f11=0.0,
            mu1=3.0, mu2=3.0, sigma1=1.0, sigma2=1.0,
            procedure=Procedure(kind="partial_conjunction", q=0.05),
            reps=1, seed=123,
        )
        pooled = np.concatenate(
            [generate_rep(scenario, rep)[0].p1_array() for rep in range(100)]
        )
        assert pooled.size == 100_000
        assert stats.kstest(pooled, "uniform").pvalue > 1e-3

    def test_signal_block_mean(self):
        scenario = SimScenario(
            m=20000, f00=0.0, f01=0.0, f10=0.0, f11=1.0,
            mu1=3.0, mu2=1.0, sigma1=1.0, sigma2=1.0,
            procedure=Procedure(kind="partial_conjunction", q=0.05),
            reps=1, seed=5,
        )
        data, truth = generate_rep(scenario, 0)
        assert truth.tolist() == [TRUTH_LABELS.index("I11")] * 20000
        z = special.ndtri(1.0 - data.p1_array())
        assert abs(z.mean() - 3.0) < 3.0 / math.sqrt(20000) * 3.0

    def test_truth_matches_fractions(self):
        _, truth = generate_rep(BASE, 0)
        assert truth.dtype == np.uint8 and not truth.flags.writeable
        labels = [TRUTH_LABELS[code] for code in truth]
        assert [labels.count(label) for label in TRUTH_LABELS] == [180, 5, 5, 10]


class TestRunScenario:
    def test_reproducible(self):
        a = run_scenario(BASE)
        b = run_scenario(BASE)
        assert a == b

    def test_thread_count_invariant(self):
        chunk = sim._CHUNK_VALUES // BASE.m
        scenario = replace(BASE, reps=3 * chunk + chunk // 2)
        assert -(-scenario.reps // chunk) == 4  # four chunks, the last one short
        a = run_scenario(scenario, workers=1, retain_trace=True)
        b = run_scenario(scenario, workers=4, retain_trace=True)
        assert a == b

    @pytest.mark.parametrize("per_chunk", ["one_rep", "seven_reps", "all_reps"])
    def test_chunking_and_workers_invariant(self, monkeypatch, per_chunk):
        scenario = replace(BASE, reps=23)
        default = run_scenario(scenario, retain_trace=True)
        reps = {"one_rep": 1, "seven_reps": 7, "all_reps": scenario.reps}[per_chunk]
        monkeypatch.setattr(sim, "_CHUNK_VALUES", reps * scenario.m)
        for workers in (1, 2, 3):
            assert run_scenario(scenario, workers=workers, retain_trace=True) == default

    def test_plan_built_once_per_run(self, monkeypatch):
        plans = []
        plan = sim._plan
        monkeypatch.setattr(sim, "_plan", lambda scenario: plans.append(scenario) or plan(scenario))
        monkeypatch.setattr(sim, "_CHUNK_VALUES", 7 * BASE.m)
        scenario = replace(BASE, reps=23)  # four chunks on two threads
        run_scenario(scenario, workers=2)
        assert plans == [scenario]
        generate_rep(scenario, 3)
        assert plans == [scenario, scenario]

    def test_item2_violation_refused_like_the_library(self):
        # the paper's cell at mu = 2 with bh selection: selected primary
        # p-values exceed t = 1e-6, which fdr_two_stage refuses
        scenario = SimScenario(
            m=1000, f00=0.9, f01=0.025, f10=0.025, f11=0.05,
            mu1=2.0, mu2=2.0, sigma1=0.5, sigma2=0.5,
            procedure=Procedure(
                kind="fdr", q1=0.025, q=0.05,
                mode=Dependence.ARBITRARY_PRIMARY_ITEM2, t=1e-6,
                selection=SelectionRule("bh"),
            ),
            reps=100, seed=3,
        )
        data, _ = generate_rep(scenario, 0)
        with pytest.raises(DataError, match="at most t=1e-06"):
            fdr_two_stage(
                data, SelectionRule("bh", level=0.025), 0.025, 0.05,
                Dependence.ARBITRARY_PRIMARY_ITEM2, 1e-6,
            )
        with pytest.raises(DataError, match="at most t=1e-06"):
            run_scenario(scenario)

    def test_mode_by_value_runs_as_the_member(self):
        member = Dependence.ARBITRARY_PRIMARY_ITEM1
        by_value = replace(BASE.procedure, mode=member.value)
        assert by_value.mode is member
        assert run_scenario(replace(BASE, procedure=by_value)) == run_scenario(
            replace(BASE, procedure=replace(BASE.procedure, mode=member))
        )
        with pytest.raises(ParameterError, match="'item1' is not a valid Dependence"):
            replace(BASE.procedure, mode="item1")

    def test_throughput_logged_at_info(self, caplog):
        with caplog.at_level(logging.INFO, logger="replicability"):
            run_scenario(BASE, workers=2)
        [record] = [r for r in caplog.records if r.name.startswith("replicability")]
        assert record.levelno == logging.INFO
        message = record.getMessage()
        assert message.startswith("run_scenario: m=200 reps=50 workers=2 seconds=")
        assert float(message.rsplit("reps/s=", 1)[1]) > 0

    def test_silent_by_default(self):
        handlers = logging.getLogger("replicability").handlers
        assert [type(h) for h in handlers] == [logging.NullHandler]

    def test_null_scenario_controls_fdr(self):
        scenario = SimScenario(
            m=500, f00=0.5, f01=0.25, f10=0.25, f11=0.0,
            mu1=3.0, mu2=3.0, sigma1=1.0, sigma2=1.0,
            procedure=Procedure(kind="fdr", q1=0.025, q=0.05),
            reps=200, seed=11,
        )
        est = run_scenario(scenario)
        assert est.avg_power is None
        assert est.avg_fdp <= 0.05 + 3.0 * est.fdp_se

    def test_single_rep_has_no_se(self):
        est = run_scenario(SimScenario(
            m=50, f00=0.9, f01=0.0, f10=0.0, f11=0.1,
            mu1=3.0, mu2=3.0, sigma1=1.0, sigma2=1.0,
            procedure=Procedure(kind="fdr", q1=0.025, q=0.05),
            reps=1, seed=2,
        ))
        assert est.fdp_se is None
        assert est.power_se is None

    def test_trace_retained_in_rep_order(self):
        est = run_scenario(BASE, retain_trace=True)
        fdp, power, rejections = est.trace
        assert len(fdp) == BASE.reps
        assert est.avg_fdp == pytest.approx(np.mean(fdp))
        assert est.avg_rejections == pytest.approx(np.mean(rejections))

    def test_allocation_form(self):
        scenario = SimScenario(
            m=100, f00=0.9, f01=0.0, f10=0.0, f11=0.1,
            mu1=2.0, mu2=2.0, sigma=10.0, zeta=0.5, n_total=1000,
            procedure=Procedure(kind="fdr", q1=0.025, q=0.05),
            reps=10, seed=3,
        )
        assert scenario.sd1 == pytest.approx(10.0 / math.sqrt(500))
        run_scenario(scenario)

    def test_all_procedure_kinds_run(self):
        kinds = [
            Procedure(kind="fdr", q1=0.025, q=0.05),
            Procedure(kind="fdr_symmetric", q1=0.025, q=0.05, w1=0.5),
            Procedure(kind="fwer", q1=0.025, q=0.05),
            Procedure(kind="fwer", q1=0.025, q=0.05, fwer_method="holm"),
            Procedure(kind="partial_conjunction", q=0.05),
            Procedure(kind="naive_bh_bh", q=0.05),
            Procedure(kind="naive_bh_bh", q=0.05, primary=2),
            Procedure(kind="fisher_meta", q=0.05),
            Procedure(kind="oracle", q=0.05, w1=1.0),
            Procedure(kind="oracle", q=0.05, w1=0.5),
        ]
        for proc in kinds:
            est = run_scenario(
                SimScenario(
                    m=100, f00=0.9, f01=0.025, f10=0.025, f11=0.05,
                    mu1=3.0, mu2=3.0, sigma1=0.5, sigma2=1.0,
                    procedure=proc, reps=20, seed=9,
                )
            )
            assert 0.0 <= est.avg_fdp <= 1.0

    def test_selection_kinds_run(self):
        for sel in [
            SelectionRule("bh"),
            SelectionRule("bh", level=0.0125),
            SelectionRule("bonferroni"),
            SelectionRule("top_k", k=20),
            SelectionRule("fixed_threshold", threshold=1e-3),
        ]:
            proc = Procedure(kind="fdr", q1=0.025, q=0.05, selection=sel)
            est = run_scenario(
                SimScenario(
                    m=100, f00=0.9, f01=0.025, f10=0.025, f11=0.05,
                    mu1=3.0, mu2=3.0, sigma1=0.5, sigma2=1.0,
                    procedure=proc, reps=20, seed=10,
                )
            )
            assert est.avg_rejections >= 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(kind="partial_conjunction", q=1.5),
        dict(kind="fwer", q1=0.025, q=0.05, fwer_method="bonf"),
        # the library run refuses it too; the kernel would run study 2
        dict(kind="naive_bh_bh", q=0.05, primary=3),
        dict(kind="bogus", q=0.05),
        dict(kind="fdr", q=0.05),  # no q1
    ])
    def test_procedure_validated(self, kwargs):
        with pytest.raises(DataError):
            Procedure(**kwargs)

    def test_selection_without_its_parameter_refused(self):
        # refused where the library refuses it: when the rule is built
        with pytest.raises(DataError, match="needs threshold"):
            run_scenario(replace(BASE, procedure=Procedure(
                kind="fdr", q1=0.025, q=0.05, selection=SelectionRule("fixed_threshold"),
            )))

    @pytest.mark.parametrize("sds", [
        dict(sigma1=None, sigma2=None),
        dict(sigma1=None),
        dict(sigma=10.0, zeta=0.5, n_total=1000),
        dict(zeta=0.5),
        dict(sigma=3.0),
        dict(sigma2=None, sigma=10.0, zeta=0.5, n_total=1000),
        dict(sigma1=None, sigma2=None, sigma=10.0, zeta=0.5),
    ], ids=["neither", "sigma2_only", "both", "direct_and_zeta", "direct_and_sigma",
            "split_and_sigma1", "split_incomplete"])
    def test_one_sd_form_required(self, sds):
        with pytest.raises(ParameterError, match="specify either sigma1 and sigma2"):
            replace(BASE, **sds)

    def test_fraction_sum_validated(self):
        with pytest.raises(DataError):
            SimScenario(
                m=10, f00=0.9, f01=0.2, f10=0.0, f11=0.0,
                mu1=1.0, mu2=1.0, sigma1=1.0, sigma2=1.0,
                procedure=Procedure(kind="fdr", q1=0.02, q=0.05),
                reps=1, seed=0,
            )


class TestSweep:
    def test_single_point_equals_run_scenario(self):
        rows = sweep(BASE, "mu", [3.0])
        assert rows[0][1] == run_scenario(BASE)

    def test_c_axis_scales_q1(self):
        rows = sweep(BASE, "c", [0.2, 0.8])
        assert len(rows) == 2
        assert rows[0][0] == 0.2

    def test_zeta_axis_requires_allocation_form(self):
        # a zeta on the direct form is a mixed sd form, which the scenario refuses
        with pytest.raises(ParameterError, match="specify either sigma1 and sigma2, or the"):
            sweep(BASE, "zeta", [0.5])

    def test_unknown_axis(self):
        with pytest.raises(DataError):
            sweep(BASE, "nope", [1.0])

    def test_empty_grid(self):
        with pytest.raises(DataError):
            sweep(BASE, "mu", [])


@pytest.mark.parametrize("workers", [0, -3, 1.5])
@pytest.mark.parametrize("run", [run_scenario, partial(sweep, axis="mu", grid=[3.0])],
                         ids=["run_scenario", "sweep"])
def test_workers_below_one_refused(run, workers):
    message = f"workers must be an integer of at least 1, got {workers}"
    with pytest.raises(ParameterError, match=message):
        run(BASE, workers=workers)


def mc_power_two_stage(mu11, mu21, m, a1, a, reps, seed):
    """Independent oracle for the closed-form two-stage power: simulates
    the signal's statistics directly and the bystander selection count as
    the binomial it is."""
    rng = np.random.default_rng(seed)
    p11 = special.ndtr(-(mu11 + rng.standard_normal(reps)))
    p21 = special.ndtr(-(mu21 + rng.standard_normal(reps)))
    others = rng.binomial(m - 1, a1 / m, size=reps)
    hits = (p11 <= a1 / m) & (p21 <= (a - a1) / (1 + others))
    return hits.mean(), hits.std(ddof=1) / math.sqrt(reps)


def mc_power_bonf_max(mu11, mu21, m, a, reps, seed):
    rng = np.random.default_rng(seed)
    p11 = special.ndtr(-(mu11 + rng.standard_normal(reps)))
    p21 = special.ndtr(-(mu21 + rng.standard_normal(reps)))
    hits = (p11 <= a / m) & (p21 <= a / m)
    return hits.mean(), hits.std(ddof=1) / math.sqrt(reps)


class TestAnalyticPower:
    @pytest.mark.parametrize("m", [0, True, 2.5, 100.5, 3.0])
    @pytest.mark.parametrize("power", [
        partial(analytic_power_bonf_max, 3.0, 3.0, alpha=0.05),
        partial(analytic_power_two_stage, 3.0, 3.0, alpha1=0.025, alpha=0.05),
    ], ids=["bonf_max", "two_stage"])
    def test_m_not_a_family_size_refused(self, power, m):
        # a bool or a float is no count, even one holding an integer
        with pytest.raises(ParameterError, match=rf"^m must be an integer of at least 1, got {m}$"):
            power(m=m)

    @pytest.mark.parametrize("mu11, mu21", [(math.inf, 3.0), (3.0, -math.inf), (math.nan, 3.0)])
    @pytest.mark.parametrize("power", [
        partial(analytic_power_bonf_max, m=100, alpha=0.05),
        partial(analytic_power_two_stage, m=100, alpha1=0.025, alpha=0.05),
    ], ids=["bonf_max", "two_stage"])
    def test_effects_not_finite_refused(self, power, mu11, mu21):
        with pytest.raises(ParameterError) as err:
            power(mu11, mu21)
        assert str(err.value) == f"effects must be finite, got {mu11}, {mu21}"

    def test_numpy_m_is_that_count(self):
        got = analytic_power_two_stage(3.0, 3.0, np.int64(100), 0.025, 0.05)
        assert got == analytic_power_two_stage(3.0, 3.0, 100, 0.025, 0.05)

    def test_null_means_product(self):
        assert analytic_power_bonf_max(0.0, 0.0, 100, 0.05) == pytest.approx(
            2.5e-7, rel=1e-6
        )

    def test_saturated_means(self):
        assert analytic_power_bonf_max(20.0, 20.0, 100, 0.05) >= 1.0 - 1e-9

    def test_two_stage_never_selected(self):
        assert analytic_power_two_stage(-40.0, 3.0, 100, 0.025, 0.05) <= 1e-12

    def test_two_stage_single_hypothesis_product(self):
        got = analytic_power_two_stage(3.0, 3.0, 1, 0.025, 0.05)
        z1 = -special.ndtri(0.025)
        z2 = -special.ndtri(0.025)
        expected = special.ndtr(-(z1 - 3.0)) * special.ndtr(-(z2 - 3.0))
        assert got == pytest.approx(float(expected), rel=1e-12)

    @pytest.mark.parametrize("mu11, mu21", [(3.0, 3.0), (-2.0, 1.5), (0.0, -4.0), (-6.0, -0.5)])
    @pytest.mark.parametrize("a1, a", [(0.025, 0.05), (0.01, 0.1), (0.3, 0.31)])
    def test_two_stage_single_hypothesis_is_the_exact_product(self, mu11, mu21, a1, a):
        # at m = 1 the binomial series is one term of mass exactly 1
        expected = float(ndtr(ndtri(a1) + mu11)) * float(ndtr(ndtri(a - a1) + mu21))
        assert analytic_power_two_stage(mu11, mu21, 1, a1, a) == expected

    def test_two_stage_against_monte_carlo(self):
        got = analytic_power_two_stage(5.5, 3.0, 100, 0.025, 0.05)
        mc, se = mc_power_two_stage(5.5, 3.0, 100, 0.025, 0.05, 100_000, 21)
        assert abs(got - mc) <= 3.0 * se

    def test_bonf_max_against_monte_carlo(self):
        got = analytic_power_bonf_max(4.5, 4.5, 100, 0.05)
        mc, se = mc_power_bonf_max(4.5, 4.5, 100, 0.05, 100_000, 22)
        assert abs(got - mc) <= 3.0 * se


class TestPublishedCurveShapes:
    def test_equal_allocation_maximizes_symmetric_power(self):
        # sample-split sweep: the symmetric procedure peaks at the even
        # split and loses power at lopsided allocations
        scenario = SimScenario(
            m=500, f00=0.9, f01=0.025, f10=0.025, f11=0.05,
            mu1=3.0, mu2=3.0, sigma=10.0, zeta=0.5, n_total=1000,
            procedure=Procedure(kind="fdr_symmetric", q1=0.025, q=0.05, w1=0.5),
            reps=200, seed=31,
        )
        rows = dict(sweep(scenario, "zeta", [0.1, 0.3, 0.5, 0.7, 0.9]))
        assert rows[0.5].avg_power > rows[0.1].avg_power
        assert rows[0.5].avg_power > rows[0.9].avg_power
        assert rows[0.5].avg_power >= rows[0.3].avg_power - 2 * rows[0.3].power_se
        assert rows[0.5].avg_power >= rows[0.7].avg_power - 2 * rows[0.7].power_se

    def test_bh_selection_beats_fixed_k_pointwise(self):
        # step-up selection tracks the signal strength; any fixed follow-up
        # count is weakly worse across the mu1 range (up to noise)
        for mu1 in (2.0, 3.5):
            base = SimScenario(
                m=1000, f00=0.9, f01=0.025, f10=0.025, f11=0.05,
                mu1=mu1, mu2=3.0, sigma1=0.5, sigma2=1.0,
                procedure=Procedure(
                    kind="fdr_symmetric", q1=0.025, q=0.05, w1=0.5,
                    selection=SelectionRule("bh"),
                ),
                reps=150, seed=37,
            )
            bh_est = run_scenario(base)
            for _, k_est in sweep(base, "k_selected", [25, 50, 100]):
                slack = 2.0 * ((bh_est.power_se or 0.0) + (k_est.power_se or 0.0))
                assert bh_est.avg_power >= k_est.avg_power - slack
        # a fractional count is refused, not truncated
        with pytest.raises(DataError, match="k must be an integer of at least 1, got 2.5"):
            sweep(base, "k_selected", [2.5, 3])


def test_top_k_above_m_is_refused_before_any_repetition(monkeypatch):
    # a scenario refuses it when built: a scenario file's read and a sweep
    # refuse it before any point runs; the library refuses it when run
    procedure = replace(BASE.procedure, selection=SelectionRule("top_k", k=BASE.m + 1))
    message = f"top_k selection asks for {BASE.m + 1} of {BASE.m} hypotheses"
    with pytest.raises(DataError, match=message):
        replace(BASE, procedure=procedure)
    data, _ = generate_rep(BASE, 0)
    with pytest.raises(DataError, match=message):
        procedure.run(data)
    monkeypatch.setattr(sim, "run_scenario", mock.Mock(side_effect=AssertionError("a point ran")))
    with pytest.raises(DataError, match=message):
        sweep(BASE, "k_selected", [5, BASE.m + 1])


# --------------------------------------------------------------------------
# properties: chunked streams and row kernels
# --------------------------------------------------------------------------

_SELECTIONS = st.sampled_from(["bh", "bh_level", "bonferroni", "top_k", "fixed_threshold"])


@st.composite
def sim_scenarios(draw):
    """Small scenarios over every procedure kind, dependence mode and
    selection kind. Some are refused by the library (a thresholded mode
    whose t is too large or is exceeded), and the kernels must refuse them
    alike."""
    m = draw(st.integers(1, 60))
    counts = draw(st.lists(st.integers(0, 20), min_size=4, max_size=4).filter(any))
    total = sum(counts)
    sizes = [c * m // total for c in counts]
    sizes[0] += m - sum(sizes)
    f00, f01, f10, f11 = (size / m for size in sizes)
    kind = draw(st.sampled_from(list(procedures._KINDS)))
    q = draw(st.sampled_from([0.05, 0.1, 0.2]))
    q1 = draw(st.sampled_from([0.2, 0.5, 0.8])) * q
    w1 = draw(st.sampled_from([0.0, 0.5, 1.0] if kind == "oracle" else [0.0, 0.3, 0.5, 1.0]))
    mode = draw(st.sampled_from(list(Dependence)))
    t = q1 / (1.0 + harmonic(m - 1)) * draw(st.sampled_from([1e-3, 0.3, 0.9, 1.5]))
    sel = draw(_SELECTIONS)
    if sel == "bh_level":
        selection = SelectionRule("bh", level=q1 * draw(st.sampled_from([0.5, 1.0])))
    elif sel == "top_k":
        selection = SelectionRule("top_k", k=draw(st.integers(1, m)))
    elif sel == "fixed_threshold":
        selection = SelectionRule("fixed_threshold", threshold=t * draw(st.sampled_from([0.5, 2.0])))
    else:
        selection = SelectionRule(sel)
    drawn = dict(
        q1=q1, q=q, w1=w1, mode=mode,
        t=t if mode is Dependence.ARBITRARY_PRIMARY_ITEM2 else None,  # no other mode reads t
        fwer_method=draw(st.sampled_from(["bonferroni", "holm"])),
        primary=draw(st.sampled_from([1, 2])), selection=selection,
    )
    # every field is drawn, and the procedure gets those its kind reads
    procedure = Procedure(kind=kind, **{name: drawn[name] for name in procedures._KINDS[kind][0]})
    return SimScenario(
        m=m, f00=f00, f01=f01, f10=f10, f11=f11,
        mu1=draw(st.floats(0.0, 5.0)), mu2=draw(st.floats(0.0, 5.0)),
        sigma1=draw(st.sampled_from([0.3, 1.0])), sigma2=draw(st.sampled_from([0.3, 1.0])),
        procedure=procedure, reps=draw(st.integers(1, 40)), seed=draw(st.integers(0, 2**63)),
    )


@settings(max_examples=150, deadline=None)
@given(scenario=sim_scenarios(), start=st.integers(0, 10**6), n=st.integers(1, 12))
def test_chunk_rows_equal_single_rep_calls(scenario, start, n):
    p1, p2 = _pvalues(scenario, _plan(scenario), start, n)
    for i in range(n):
        data, truth = generate_rep(scenario, start + i)
        assert np.array_equal(p1[i], data.p1)
        assert np.array_equal(p2[i], data.p2)
    assert np.bincount(truth, minlength=4).tolist() == list(truth_block_sizes(
        scenario.m, (scenario.f00, scenario.f01, scenario.f10, scenario.f11)))


# the paper's cell: its 900-column null block takes 225 Philox counter
# steps a repetition, so these repetitions start past counter 2^64 (the
# first one's null block crosses it); values computed with numpy 2.4
_PAST_2_64 = {
    2**64 // 225: (
        [("0x1.560a5baae473bp-1", "0x1.21b96c7e49710p-2"),
         ("0x1.7cefbd855df9ep-1", "0x1.e4708a07c4d18p-1"),
         ("0x1.9918687e23500p-9", "0x1.7c11ff0baef2dp-17"),
         ("0x1.a4bbedebb4db6p-20", "0x1.2b99b13850b20p-2"),
         ("0x1.049ce1a2e8209p-16", "0x1.8767d5040a29cp-11"),
         ("0x1.6246721e8b57fp-24", "0x1.87c171a3d283ap-10")],
        "0dd49412ceb73cc12ba439574ffb3a4f2d3200aa6db67bde478fc3cdc6a5cdce",
    ),
    2**58: (
        [("0x1.96c82c7115260p-5", "0x1.7e35ee6dae2bcp-1"),
         ("0x1.4d2c3f7b4462ep-2", "0x1.81d2f0fe27861p-1"),
         ("0x1.aebf7e3442109p-1", "0x1.5fc26e846ed90p-25"),
         ("0x1.2d1dd4f30e9e0p-25", "0x1.0b09bee1ab114p-1"),
         ("0x1.283a6aaacc6fap-33", "0x1.64a36255d0589p-12"),
         ("0x1.20a62328ce578p-20", "0x1.147673634f16dp-21")],
        "22bd5f5985d72cd96d7d0d168f99efeb1a3d4aa82a63c48d06fbf83c19cd83c1",
    ),
    2**60 + 3: (
        [("0x1.1ed8b38d58ea0p-3", "0x1.1d59fb9a9764bp-1"),
         ("0x1.f8f81805eeb70p-2", "0x1.7c75cdcce3241p-1"),
         ("0x1.480d7bcb81cf3p-1", "0x1.0e7bb09d58ef9p-21"),
         ("0x1.2f05df21fb7efp-21", "0x1.209545bc99401p-1"),
         ("0x1.a083da619c35dp-16", "0x1.68ae403cf363ap-15"),
         ("0x1.f340c0a03c43bp-14", "0x1.3dc35e9efd50cp-19")],
        "17c7c92ebc1029f71d8755d890528b4b69553f596b7929cef43480553b01ba01",
    ),
}


@pytest.mark.parametrize("rep", sorted(_PAST_2_64))
def test_counters_past_2_64_pinned(rep):
    scenario = SimScenario(
        m=1000, f00=0.9, f01=0.025, f10=0.025, f11=0.05,
        mu1=2.0, mu2=2.0, sigma1=0.5, sigma2=0.5,
        procedure=Procedure(kind="fdr", q1=0.025, q=0.05), reps=1, seed=7,
    )
    pairs, digest = _PAST_2_64[rep]
    data, _ = generate_rep(scenario, rep)
    columns = (0, 899, 900, 925, 950, 999)  # I00: first, last; I01, I10, I11: first; I11: last
    assert [(data.p1[j].hex(), data.p2[j].hex()) for j in columns] == pairs
    raw = data.p1.astype("<f8").tobytes() + data.p2.astype("<f8").tobytes()
    assert hashlib.sha256(raw).hexdigest() == digest
    p1, p2 = _pvalues(scenario, _plan(scenario), rep, 2)
    assert np.array_equal(p1[0], data.p1) and np.array_equal(p2[0], data.p2)
    assert generate_rep(scenario, rep + 1)[0] == StudyPairData(data.ids, p1[1], p2[1])


def _rscan_run(scenario: SimScenario, data) -> set[str]:
    """Union of the exhaustive-scan directed runs of an FDR-type procedure."""
    proc = scenario.procedure
    rejected = set()
    for swap, lo, hi in fdr_directions(scenario):
        rows = data.swap_studies() if swap else data
        report = fdr_two_stage_rscan(rows, proc.selection, lo, hi, proc.mode, proc.t)
        rejected.update(report.rejected_ids)
    return rejected


def _outcome(call):
    try:
        return call()
    except (ReplicabilityError, ValueError) as exc:
        return type(exc)


@settings(max_examples=1000, deadline=None)
@given(
    scenario=sim_scenarios(),
    start=st.integers(0, 1000),
    snap=st.sampled_from([None, "q", "q1"]),
)
def test_row_kernels_match_library(scenario, start, snap):
    """Each row of ``Procedure.kernel``'s mask is the rejected set of
    ``Procedure.run`` on that row's dataset, the reference procedure's mask
    and, for the FDR procedures, the exhaustive scan's rejected set, also on
    p-values placed exactly on a threshold; the kernels refuse exactly what
    the library refuses."""
    m, n = scenario.m, scenario.reps
    p1, p2 = _pvalues(scenario, _plan(scenario), start, n)
    if snap is not None:  # onto the grid level*k/m: ties, and values at a threshold
        level = getattr(scenario.procedure, snap) or scenario.procedure.q
        p1, p2 = (np.minimum(level * np.ceil(p * m / level) / m, 1.0) for p in (p1, p2))
    ids = [f"h{j}" for j in range(m)]
    proc, fractions = scenario.procedure, (scenario.f00, scenario.f01)
    library = [
        _outcome(partial(proc.run, StudyPairData(ids, a, b), fractions)) for a, b in zip(p1, p2)
    ]
    refused = [r for r in library if isinstance(r, type)]
    masks = _outcome(lambda: proc.kernel(m, fractions)(p1, p2))
    if isinstance(masks, type):
        assert masks in refused
        return
    assert not refused
    for mask, report, a, b in zip(masks, library, p1, p2):
        rejected = {ids[j] for j in np.flatnonzero(mask)}
        assert rejected == set(report.rejected_ids)
        assert np.array_equal(mask, reference_mask(scenario, a, b))
        if scenario.procedure.kind in ("fdr", "fdr_symmetric", "oracle"):
            data = StudyPairData(ids, a, b)
            assert rejected == _rscan_run(scenario, data)


# (f00, f01, f10, f11): no signal block, I01 (study 2) or I10 (study 1)
# only, one signal block per study, and all four blocks
@pytest.mark.parametrize("fractions", [
    (1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0), (0.5, 0.0, 0.5, 0.0),
    (0.5, 0.25, 0.25, 0.0), (0.25, 0.25, 0.25, 0.25),
])
def test_one_ndtri_and_one_ndtr_call_per_chunk(monkeypatch, fractions):
    calls = {"ndtri": 0, "ndtr": 0}
    for name, kernel in (("ndtri", sim.ndtri), ("ndtr", sim.ndtr)):
        def counted(x, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(x)
        monkeypatch.setattr(sim, name, counted)
    scenario = replace(BASE, **dict(zip(("f00", "f01", "f10", "f11"), fractions)))
    _pvalues(scenario, _plan(scenario), 5, 9)
    assert calls == {"ndtri": 1, "ndtr": 1}


@settings(max_examples=60, deadline=None)
@given(scenario=sim_scenarios())
@example(scenario=replace(BASE, f00=0.95, f11=0.0, reps=5))  # m - n11 = m
@example(scenario=replace(BASE, f00=0.0, f01=0.0, f10=0.0, f11=1.0, reps=5))  # m - n11 = 0
def test_scoring_matches_the_truth(scenario):
    """Each repetition's FDP, power and rejection count in the trace are
    those of ``Procedure.run`` on ``generate_rep``'s data, scored against
    its truth codes."""
    outcome = _outcome(lambda: run_scenario(scenario, retain_trace=True))
    if isinstance(outcome, type):  # refused: the kernels refuse what the library does
        return
    fdp, power, rejections = outcome.trace
    for r in range(scenario.reps):
        data, truth = generate_rep(scenario, r)
        rejected = set(scenario.procedure.run(data, (scenario.f00, scenario.f01)).rejected_ids)
        hit = np.array([rid in rejected for rid in data.ids.tolist()], dtype=bool)
        replicable = truth == TRUTH_LABELS.index("I11")
        total, false = int(hit.sum()), int(np.count_nonzero(hit & ~replicable))
        assert rejections[r] == total
        assert fdp[r] == false / max(total, 1)
        if replicable.any():
            assert power[r] == (total - false) / np.count_nonzero(replicable)
        else:
            assert math.isnan(power[r])
