import logging
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from procedure_oracles import fdr_directions, reference_mask
from replicability import sim
from replicability.data import TRUTH_LABELS, StudyPairData
from replicability.errors import DataError, ReplicabilityError
from replicability.numeric import harmonic
from replicability.procedures import (
    Dependence,
    baseline_fisher_meta,
    baseline_naive_bh_bh,
    baseline_partial_conjunction,
    fdr_symmetric,
    fdr_two_stage,
    fdr_two_stage_rscan,
    fwer_two_stage,
    oracle_calibrated_run,
)
from replicability.selection import SelectionRule
from replicability.sim import (
    SimProcedure,
    SimScenario,
    _build_runner,
    _pvalues,
    _streams,
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
    procedure=SimProcedure(kind="fdr", q1=0.025, q=0.05),
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
        assert a_truth == b_truth

    def test_ids_zero_padded(self):
        for m in (1, 9, 10, 200, 1000):
            data, _ = generate_rep(replace(BASE, m=m), 0)
            width = len(str(m))
            assert data.ids == tuple(f"h{i:0{width}d}" for i in range(1, m + 1))

    def test_reps_differ(self):
        a_data, _ = generate_rep(BASE, 0)
        b_data, _ = generate_rep(BASE, 1)
        assert a_data != b_data

    def test_null_pvalues_uniform(self):
        # all-null scenario: pooled p-values pass a KS uniformity check
        scenario = SimScenario(
            m=1000, f00=1.0, f01=0.0, f10=0.0, f11=0.0,
            mu1=3.0, mu2=3.0, sigma1=1.0, sigma2=1.0,
            procedure=SimProcedure(kind="partial_conjunction", q=0.05),
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
            procedure=SimProcedure(kind="partial_conjunction", q=0.05),
            reps=1, seed=5,
        )
        data, truth = generate_rep(scenario, 0)
        assert truth.counts()["I11"] == 20000
        z = special.ndtri(1.0 - data.p1_array())
        assert abs(z.mean() - 3.0) < 3.0 / math.sqrt(20000) * 3.0

    def test_truth_matches_fractions(self):
        _, truth = generate_rep(BASE, 0)
        assert truth.counts() == {"I00": 180, "I01": 5, "I10": 5, "I11": 10}


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

    def test_item2_violation_refused_like_the_library(self):
        # the paper's cell at mu = 2 with bh selection: selected primary
        # p-values exceed t = 1e-6, which fdr_two_stage refuses
        scenario = SimScenario(
            m=1000, f00=0.9, f01=0.025, f10=0.025, f11=0.05,
            mu1=2.0, mu2=2.0, sigma1=0.5, sigma2=0.5,
            procedure=SimProcedure(
                kind="fdr", q1=0.025, q=0.05,
                mode=Dependence.ARBITRARY_PRIMARY_ITEM2, t=1e-6,
                selection=SelectionRule("bh"),
            ),
            reps=100, seed=3,
        )
        data, _ = generate_rep(scenario, 0)
        with pytest.raises(DataError, match="at most t=1e-06"):
            fdr_two_stage(
                data, SelectionRule.bh_at_level(0.025), 0.025, 0.05,
                Dependence.ARBITRARY_PRIMARY_ITEM2, 1e-6,
            )
        with pytest.raises(DataError, match="at most t=1e-06"):
            run_scenario(scenario)

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
            procedure=SimProcedure(kind="fdr", q1=0.025, q=0.05),
            reps=200, seed=11,
        )
        est = run_scenario(scenario)
        assert est.avg_power is None
        assert est.avg_fdp <= 0.05 + 3.0 * est.fdp_se

    def test_single_rep_has_no_se(self):
        est = run_scenario(SimScenario(
            m=50, f00=0.9, f01=0.0, f10=0.0, f11=0.1,
            mu1=3.0, mu2=3.0, sigma1=1.0, sigma2=1.0,
            procedure=SimProcedure(kind="fdr", q1=0.025, q=0.05),
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
            procedure=SimProcedure(kind="fdr", q1=0.025, q=0.05),
            reps=10, seed=3,
        )
        assert scenario.sd1 == pytest.approx(10.0 / math.sqrt(500))
        run_scenario(scenario)

    def test_all_procedure_kinds_run(self):
        kinds = [
            SimProcedure(kind="fdr", q1=0.025, q=0.05),
            SimProcedure(kind="fdr_symmetric", q1=0.025, q=0.05, w1=0.5),
            SimProcedure(kind="fwer", q1=0.025, q=0.05),
            SimProcedure(kind="fwer", q1=0.025, q=0.05, fwer_method="holm"),
            SimProcedure(kind="partial_conjunction", q=0.05),
            SimProcedure(kind="naive_bh_bh", q=0.05),
            SimProcedure(kind="naive_bh_bh", q=0.05, primary=2),
            SimProcedure(kind="fisher_meta", q=0.05),
            SimProcedure(kind="oracle", q=0.05, w1=1.0),
            SimProcedure(kind="oracle", q=0.05, w1=0.5),
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
            proc = SimProcedure(kind="fdr", q1=0.025, q=0.05, selection=sel)
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
    ])
    def test_procedure_validated(self, kwargs):
        with pytest.raises(DataError):
            SimProcedure(**kwargs)

    def test_selection_without_its_parameter_refused(self):
        # refused where the library refuses it: when the rule is built
        with pytest.raises(DataError, match="needs threshold"):
            run_scenario(replace(BASE, procedure=SimProcedure(
                kind="fdr", q1=0.025, q=0.05, selection=SelectionRule("fixed_threshold"),
            )))

    def test_fraction_sum_validated(self):
        with pytest.raises(DataError):
            SimScenario(
                m=10, f00=0.9, f01=0.2, f10=0.0, f11=0.0,
                mu1=1.0, mu2=1.0, sigma1=1.0, sigma2=1.0,
                procedure=SimProcedure(kind="fdr", q1=0.02, q=0.05),
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
        with pytest.raises(DataError):
            sweep(BASE, "zeta", [0.5])

    def test_unknown_axis(self):
        with pytest.raises(DataError):
            sweep(BASE, "nope", [1.0])

    def test_empty_grid(self):
        with pytest.raises(DataError):
            sweep(BASE, "mu", [])


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
            procedure=SimProcedure(kind="fdr_symmetric", q1=0.025, q=0.05, w1=0.5),
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
                procedure=SimProcedure(
                    kind="fdr_symmetric", q1=0.025, q=0.05, w1=0.5,
                    selection=SelectionRule("bh"),
                ),
                reps=150, seed=37,
            )
            bh_est = run_scenario(base)
            for _, k_est in sweep(base, "k_selected", [25, 50, 100]):
                slack = 2.0 * ((bh_est.power_se or 0.0) + (k_est.power_se or 0.0))
                assert bh_est.avg_power >= k_est.avg_power - slack


# --------------------------------------------------------------------------
# properties: chunked streams and row kernels
# --------------------------------------------------------------------------

_SELECTIONS = st.sampled_from(["bh", "bh_level", "bonferroni", "top_k", "fixed_threshold"])


@st.composite
def sim_scenarios(draw):
    """Small scenarios over every procedure kind, dependence mode and
    selection kind. Some are refused by the library (a thresholded mode
    whose t is too large or is exceeded, top_k above m), and the kernels
    must refuse them alike."""
    m = draw(st.integers(1, 60))
    counts = draw(st.lists(st.integers(0, 20), min_size=4, max_size=4).filter(any))
    total = sum(counts)
    sizes = [c * m // total for c in counts]
    sizes[0] += m - sum(sizes)
    f00, f01, f10, f11 = (size / m for size in sizes)
    kind = draw(st.sampled_from(SimProcedure._KINDS))
    q = draw(st.sampled_from([0.05, 0.1, 0.2]))
    q1 = draw(st.sampled_from([0.2, 0.5, 0.8])) * q
    w1 = draw(st.sampled_from([0.0, 0.5, 1.0] if kind == "oracle" else [0.0, 0.3, 0.5, 1.0]))
    mode = draw(st.sampled_from(list(Dependence)))
    t = q1 / (1.0 + harmonic(m - 1)) * draw(st.sampled_from([1e-3, 0.3, 0.9, 1.5]))
    sel = draw(_SELECTIONS)
    if sel == "bh_level":
        selection = SelectionRule("bh", level=q1 * draw(st.sampled_from([0.5, 1.0])))
    elif sel == "top_k":
        selection = SelectionRule("top_k", k=draw(st.integers(1, m + 1)))
    elif sel == "fixed_threshold":
        selection = SelectionRule("fixed_threshold", threshold=t * draw(st.sampled_from([0.5, 2.0])))
    else:
        selection = SelectionRule(sel)
    procedure = SimProcedure(
        kind=kind, q1=q1, q=q, w1=w1, mode=mode, t=t,
        fwer_method=draw(st.sampled_from(["bonferroni", "holm"])),
        primary=draw(st.sampled_from([1, 2])), selection=selection,
    )
    return SimScenario(
        m=m, f00=f00, f01=f01, f10=f10, f11=f11,
        mu1=draw(st.floats(0.0, 5.0)), mu2=draw(st.floats(0.0, 5.0)),
        sigma1=draw(st.sampled_from([0.3, 1.0])), sigma2=draw(st.sampled_from([0.3, 1.0])),
        procedure=procedure, reps=draw(st.integers(1, 40)), seed=draw(st.integers(0, 2**63)),
    )


@settings(max_examples=150, deadline=None)
@given(scenario=sim_scenarios(), start=st.integers(0, 10**6), n=st.integers(1, 12))
def test_chunk_rows_equal_single_rep_calls(scenario, start, n):
    p1, p2 = _pvalues(scenario, _streams(scenario), start, n)
    for i in range(n):
        data, truth = generate_rep(scenario, start + i)
        assert np.array_equal(p1[i], data.p1)
        assert np.array_equal(p2[i], data.p2)
    assert truth.counts() == dict(zip(TRUTH_LABELS, truth_block_sizes(
        scenario.m, (scenario.f00, scenario.f01, scenario.f10, scenario.f11))))


def _library_run(scenario: SimScenario, data):
    """The library call of the scenario's procedure; a level-less selection
    runs at each direction's primary-stage level on both sides."""
    proc = scenario.procedure
    q, q1, w1, mode, t, rule = proc.q, proc.q1, proc.w1, proc.mode, proc.t, proc.selection
    if proc.kind == "fdr":
        return fdr_two_stage(data, rule, q1, q, mode, t)
    if proc.kind == "fdr_symmetric":
        return fdr_symmetric(data, rule, w1, q1, q, mode, t)
    if proc.kind == "oracle":
        return oracle_calibrated_run(data, rule, scenario.f00, scenario.f01, q, w1, mode, t)
    if proc.kind == "fwer":
        return fwer_two_stage(data, rule, q1, q, proc.fwer_method)
    if proc.kind == "partial_conjunction":
        return baseline_partial_conjunction(data, q)
    if proc.kind == "fisher_meta":
        return baseline_fisher_meta(data, q)
    return baseline_naive_bh_bh(data, q, proc.primary)


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
    """Each row's batched mask is the library's rejected set on that row's
    dataset, the reference procedure's mask and, for the FDR procedures on
    unsnapped p-values, the exhaustive scan's rejected set; the kernels
    refuse exactly what the library refuses."""
    m, n = scenario.m, scenario.reps
    p1, p2 = _pvalues(scenario, _streams(scenario), start, n)
    if snap is not None:  # onto the grid level*k/m: ties, and values at a threshold
        level = getattr(scenario.procedure, snap)
        p1, p2 = (np.minimum(level * np.ceil(p * m / level) / m, 1.0) for p in (p1, p2))
    ids = [f"h{j}" for j in range(m)]
    library = [
        _outcome(partial(_library_run, scenario, StudyPairData.from_columns(ids, a, b)))
        for a, b in zip(p1, p2)
    ]
    refused = [r for r in library if isinstance(r, type)]
    masks = _outcome(lambda: _build_runner(scenario)(p1, p2))
    if isinstance(masks, type):
        assert masks in refused
        return
    assert not refused
    for mask, report, a, b in zip(masks, library, p1, p2):
        rejected = {ids[j] for j in np.flatnonzero(mask)}
        assert rejected == set(report.rejected_ids)
        assert np.array_equal(mask, reference_mask(scenario, a, b))
        # the scan compares p-values with r*q1/m and r*q2/R1, whose rounding
        # differs from z's for p-values placed exactly on a threshold
        if snap is None and scenario.procedure.kind in ("fdr", "fdr_symmetric", "oracle"):
            data = StudyPairData.from_columns(ids, a, b)
            assert rejected == _rscan_run(scenario, data)
