import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from replicability.errors import ApplicabilityError, ParameterError
from replicability.numeric import (
    chisq_survival_even_df,
    harmonic,
    ndtr,
    ndtri,
    solve_oracle_qprime,
    solve_q1_tilde_thresholded,
    std_normal_cdf,
    std_normal_quantile,
)
from replicability.procedures import Procedure


def simpson_normal_cdf(x, steps=20001):
    """Independent quadrature oracle: 0.5 + integral of the density."""
    grid = np.linspace(0.0, x, steps)
    dens = np.exp(-grid * grid / 2.0) / math.sqrt(2.0 * math.pi)
    h = grid[1] - grid[0]
    weights = np.ones(steps)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return 0.5 + float(np.sum(weights * dens)) * h / 3.0


class TestNormalCdf:
    def test_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_against_quadrature(self):
        # oracle value: simpson_normal_cdf(1.959964) = 0.9750000936...
        oracle = simpson_normal_cdf(1.959964)
        assert abs(oracle - 0.9750001) < 1e-6
        assert abs(std_normal_cdf(1.959964) - 0.975) < 1e-6
        assert abs(std_normal_cdf(1.959964) - oracle) < 1e-9

    def test_quadrature_grid(self):
        for x in (-3.0, -1.0, -0.25, 0.5, 2.5, 4.0):
            assert abs(std_normal_cdf(x) - simpson_normal_cdf(x)) < 1e-10

    def test_far_left_tail_positive(self):
        value = std_normal_cdf(-40.0)
        assert 0.0 < value < 1e-300

    def test_far_right_tail_below_one(self):
        assert std_normal_cdf(40.0) < 1.0

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 1.0])
        out = std_normal_cdf(xs)
        assert out.shape == (3,)
        assert out[1] == 0.5


class TestNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_against_bisection(self):
        lo, hi = -10.0, 10.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if std_normal_cdf(mid) < 0.975:
                lo = mid
            else:
                hi = mid
        oracle = (lo + hi) / 2.0
        assert abs(oracle - 1.959964) < 1e-5
        assert abs(std_normal_quantile(0.975) - oracle) < 1e-8

    def test_symmetry(self):
        for p in (0.0001, 0.01, 0.25, 0.4):
            assert std_normal_quantile(p) == pytest.approx(
                -std_normal_quantile(1.0 - p), abs=1e-12
            )

    def test_round_trip(self):
        for p in (1e-10, 1e-6, 0.001, 0.3, 0.9, 1 - 1e-10):
            assert abs(std_normal_cdf(std_normal_quantile(p)) - p) < 1e-8

    def test_array_gives_an_array(self):
        p = np.array([[0.025, 0.5], [0.975, 1e-10]])
        got = std_normal_quantile(p)
        assert isinstance(got, np.ndarray) and got.shape == (2, 2)
        np.testing.assert_allclose(got, special.ndtri(p), rtol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


class TestChisqSurvival:
    def test_at_zero(self):
        assert chisq_survival_even_df(0.0, 4) == 1.0

    def test_series_value(self):
        # closed form exp(-x/2)(1 + x/2) at x = 9.21034: 0.01 * 5.60517 = 0.0560518
        assert chisq_survival_even_df(9.21034, 4) == pytest.approx(0.05605, abs=1e-4)
        assert chisq_survival_even_df(9.21034, 4) == pytest.approx(0.0560518, abs=1e-6)

    def test_against_scipy(self):
        for x in (0.5, 3.0, 12.0, 80.0):
            for df in (2, 4, 8):
                assert chisq_survival_even_df(x, df) == pytest.approx(
                    float(stats.chi2.sf(x, df)), rel=1e-10
                )

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 30.0, 50)
        vals = [chisq_survival_even_df(x, 4) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_log_space_tail(self):
        tiny = chisq_survival_even_df(1500.0, 4)
        assert 0.0 <= tiny < 1e-300

    def test_infinite_statistic(self):
        assert chisq_survival_even_df(math.inf, 4) == 0.0

    def test_negative_statistic_rejected(self):
        with pytest.raises(ParameterError, match="statistic must be non-negative, got -1"):
            chisq_survival_even_df(-1, 4)

    def test_odd_df_rejected(self):
        with pytest.raises(ValueError):
            chisq_survival_even_df(1.0, 3)


class TestHarmonic:
    def test_first_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(3) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0, abs=1e-12)

    def test_against_fsum(self):
        exact = math.fsum(1.0 / i for i in range(1, 5001))
        assert harmonic(5000) == pytest.approx(exact, abs=1e-13)

    def test_gwas_scale_factor(self):
        assert harmonic(635547) == pytest.approx(13.94, abs=0.005)

    def test_euler_mascheroni_drift(self):
        for k in (10, 100, 10000, 635547):
            gap = abs(harmonic(k) - (math.log(k) + 0.5772156649))
            assert gap < 1.0 / (2.0 * k) + 1e-9

    def test_increments(self):
        prev = 0.0
        for k in range(1, 2000):
            cur = harmonic(k)
            assert cur > prev
            # float64 storage: increment matches 1/k up to one ulp of H_k
            assert abs((cur - prev) - 1.0 / k) <= 2.0 * math.ulp(cur)
            prev = cur

    def test_negative(self):
        with pytest.raises(ValueError):
            harmonic(-1)

    @pytest.mark.parametrize("k", [2.5, 40.5, 3.0, True])
    def test_index_is_a_count(self, k):
        with pytest.raises(ParameterError, match="harmonic index must be a non-negative integer"):
            harmonic(k)

    def test_numpy_integer_index(self):
        assert harmonic(np.int64(40)) == harmonic(40)


class TestThresholdedLevel:
    def test_published_value(self):
        got = solve_q1_tilde_thresholded(0.04, 635547, 5e-5)
        assert got == pytest.approx(0.0038, abs=5e-5)

    def test_defining_equation(self):
        for q1, m, t in [(0.04, 635547, 5e-5), (0.025, 10000, 1e-4), (0.01, 500, 1e-5)]:
            x = solve_q1_tilde_thresholded(q1, m, t)
            k = max(0, math.ceil(t * m / x - 1.0))
            assert x * (1.0 + harmonic(k)) == pytest.approx(q1, rel=1e-12)

    def test_no_modification_below_q1_over_m(self):
        # t <= q1/m makes the ceiling zero: the level is returned unchanged
        q1, m = 0.04, 1000
        assert solve_q1_tilde_thresholded(q1, m, q1 / m) == q1
        assert solve_q1_tilde_thresholded(q1, m, q1 / (2 * m)) == q1

    def test_never_exceeds_q1(self):
        for t in (1e-6, 1e-5, 1e-4, 1e-3):
            x = solve_q1_tilde_thresholded(0.04, 50000, t)
            assert x <= 0.04

    def test_monotone_in_t(self):
        values = [
            solve_q1_tilde_thresholded(0.04, 50000, t)
            for t in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_empty_family_rejected(self):
        with pytest.raises(ParameterError, match="^m must be an integer of at least 1, got 0$"):
            solve_q1_tilde_thresholded(0.04, 0, 1e-5)

    @pytest.mark.parametrize("m", [True, 1000.0])
    def test_family_size_is_a_count(self, m):
        # True would run as m = 1, and 1000.0 reach the harmonic sum as 999.0
        with pytest.raises(ParameterError) as err:
            solve_q1_tilde_thresholded(0.04, m, 1e-5)
        assert str(err.value) == f"m must be an integer of at least 1, got {m!r}"

    def test_applicability_bound(self):
        m = 1000
        bound = 0.04 / (1.0 + harmonic(m - 1))
        with pytest.raises(ApplicabilityError):
            solve_q1_tilde_thresholded(0.04, m, bound * 1.01)
        assert solve_q1_tilde_thresholded(0.04, m, bound * 0.99) <= 0.04


class TestOracleLevel:
    def test_published_values(self):
        assert solve_oracle_qprime(0.999, 0.00036, 0.05, 1.0) == pytest.approx(
            0.048, abs=5e-4
        )
        assert solve_oracle_qprime(0.999, 0.00036, 0.05, 0.0) == pytest.approx(
            0.048, abs=5e-4
        )
        assert solve_oracle_qprime(0.999, 0.00036, 0.05, 0.5) == pytest.approx(
            0.049, abs=5e-4
        )

    def test_degenerate_fractions(self):
        assert solve_oracle_qprime(0.0, 0.0, 0.05, 1.0) == pytest.approx(0.05)
        assert solve_oracle_qprime(0.0, 0.0, 0.3, 0.5) == pytest.approx(0.3)

    def test_quadratic_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            f00 = rng.uniform(0.0, 1.0)
            f01 = rng.uniform(0.0, 1.0 - f00)
            q = rng.uniform(0.01, 0.3)
            qp = solve_oracle_qprime(f00, f01, q, 1.0)
            assert f00 * qp * qp + (f01 + 1.0) * qp == pytest.approx(q, rel=1e-12)

    def test_half_weight_residual(self):
        qp = solve_oracle_qprime(0.9990, 0.00036, 0.05, 0.5)
        y = 0.5 * qp
        assert 0.9990 * y * y + (0.00036 + 1.0) * y == pytest.approx(0.025, rel=1e-12)

    @pytest.mark.parametrize("f00, f01", [(1.5, 0.0), (0.0, 1.5)])
    def test_fraction_outside_unit_interval_rejected(self, f00, f01):
        with pytest.raises(ParameterError, match=r"fractions must lie in \[0, 1\]"):
            solve_oracle_qprime(f00, f01, 0.05, 1.0)

    def test_bad_weight(self):
        with pytest.raises(ValueError):
            solve_oracle_qprime(0.5, 0.1, 0.05, 0.3)

    @pytest.mark.parametrize("f00, f01", [(0.9, 0.9), (1.0, 1.0), (0.5, 0.5 + 1e-9)])
    @pytest.mark.parametrize("w1", [0.0, 0.5, 1.0])
    def test_fractions_above_one_refused(self, f00, f01, w1):
        with pytest.raises(ParameterError, match=r"with f00 \+ f01 <= 1, got"):
            solve_oracle_qprime(f00, f01, 0.05, w1)
        with pytest.raises(ParameterError, match=r"with f00 \+ f01 <= 1, got"):
            Procedure(kind="oracle", q=0.05, w1=w1).levels((f00, f01))

    @pytest.mark.parametrize("f00, f01", [(0.9, 0.1), (0.7, 0.3), (1.0, 0.0), (0.0, 1.0)])
    def test_fractions_summing_to_one_run(self, f00, f01):
        qp = solve_oracle_qprime(f00, f01, 0.05, 1.0)
        assert f00 * qp * qp + (f01 + 1.0) * qp == pytest.approx(0.05, rel=1e-12)
        assert Procedure(kind="oracle", q=0.05).levels((f00, f01)) == (qp, 2.0 * qp)


def test_harmonic_at_ten_million():
    value = harmonic(10_000_000)
    gap = abs(value - (math.log(1e7) + 0.5772156649))
    assert gap < 1.0 / 2e7 + 1e-9


class TestNumpyKernels:
    """The numpy-only kernels against scipy.special as an oracle."""

    def test_ndtri_against_scipy(self):
        rng = np.random.default_rng(11)
        u = np.concatenate([
            rng.random(100_000),
            np.logspace(-300, -1, 3000),
            1.0 - np.logspace(-16, -1, 3000),
            [0.075, 0.5, 0.925],
        ])
        ref = special.ndtri(u)
        rel = np.abs(ndtri(u) - ref) / np.maximum(np.abs(ref), 1e-300)
        assert rel.max() <= 1e-14
        assert ndtri(0.5) == 0.0
        assert np.array_equal(ndtri(np.array([0.0, 1.0])), [-np.inf, np.inf])

    def test_ndtr_against_scipy(self):
        x = np.concatenate([np.linspace(-38.0, 9.0, 200_001), [-0.66, 0.66, -5.657, 5.657]])
        # relative where scipy's value is a normal double; below that range
        # both lose digits and scipy flushes to 0 from x = -37.7 on
        np.testing.assert_allclose(ndtr(x), special.ndtr(x), rtol=1e-12, atol=np.finfo(float).tiny)
        assert np.array_equal(ndtr(np.array([-np.inf, np.inf])), [0.0, 1.0])
        assert np.isnan(ndtr(np.nan))

    @pytest.mark.parametrize("kernel, values", [
        *[(kernel, np.empty(0)) for kernel in (ndtr, ndtri)],
        *[(kernel, np.empty((0, 3))) for kernel in (ndtr, ndtri)],
        (ndtr, np.array([-0.3, 0.0, 0.2, 0.6])),  # near branch only
        (ndtr, np.array([0.7, -1.0, 2.5, 5.0])),  # neither near nor far
        (ndtr, np.array([[-6.0, 7.5], [-40.0, np.inf]])),  # far branch only
        (ndtr, np.array([-6.0, -1.0, 0.2, np.nan])),  # all three
        (ndtri, np.array([[0.1, 0.3], [0.55, 0.9]])),  # central only
        (ndtri, np.array([0.0, 1e-300, 0.05, 0.999, 1.0])),  # tail only
        (ndtri, np.array([1e-10, 0.5, 0.93])),  # both
    ])
    def test_kernels_match_elementwise_calls(self, kernel, values):
        # each branch runs on whatever index it gets, an empty one included
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel(values)
            each = [kernel(v) for v in values.ravel()]
        assert got.shape == values.shape and got.dtype == float
        assert np.array_equal(got.ravel(), each, equal_nan=True)

    def test_kernels_keep_shape(self):
        grid = np.full((2, 3), 0.25)
        assert ndtr(grid).shape == ndtri(grid).shape == (2, 3)
        assert np.ndim(ndtr(0.0)) == np.ndim(ndtri(0.5)) == 0

    def test_harmonic_against_digamma(self):
        ks = np.unique(np.geomspace(1, 2e7, 3000).astype(int))
        for k in ks.tolist():
            value = harmonic(k)
            assert abs(value - (special.digamma(k + 1.0) + np.euler_gamma)) <= 2 * math.ulp(value)
