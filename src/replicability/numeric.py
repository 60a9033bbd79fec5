"""Scalar numerics shared by every procedure: normal CDF/quantile,
even-df chi-square survival, harmonic sums, the thresholded
primary-level solver, and the oracle calibration quadratic.

The normal kernels need numpy only. ``ndtr`` goes through the
complementary error function of W. J. Cody, "Rational Chebyshev
approximations for the error function", Math. Comp. 23 (1969), with the
coefficients of his CALERF routine; ``ndtri`` is M. J. Wichura's
algorithm AS241 (PPND16), Appl. Statist. 37 (1988), accurate to about
1e-16. Both take arrays of any shape. Each evaluates its most common
branch on the whole array and recomputes only the remaining entries by
index; a call has a fixed cost of ~0.1 ms, so callers batch their values.

Tail behaviour matters here: primary-study p-values in GWAS-scale data go
down to 1e-36, so the normal CDF is evaluated through the complementary
error function and the far-left tail is floored at the smallest positive
double instead of underflowing to zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ApplicabilityError, ParameterError
from .params import Dependence, check_count, check_levels

# Smallest positive (subnormal) double; used to keep tail probabilities
# strictly positive for finite arguments.
_TINY = 5e-324

_SQRT1_2 = 0.70710678118654752440
_FRAC_1_SQRTPI = 0.56418958354775628695

# Cody's erf/erfc rational approximations, highest degree first: erf(y) on
# |y| < 0.46875 in y^2, erfc(y) e^(y^2) on [0.46875, 4] in y, and
# y erfc(y) e^(y^2) on y > 4 in 1/y^2.
_ERF_NUM = (
    1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
    3.77485237685302021e2, 3.20937758913846947e3,
)
_ERF_DEN = (
    1.0, 2.36012909523441209e1, 2.44024637934444173e2,
    1.28261652607737228e3, 2.84423683343917062e3,
)
_ERFC_MID_NUM = (
    2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
    6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
    1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3,
)
_ERFC_MID_DEN = (
    1.0, 1.57449261107098347e1, 1.17693950891312499e2,
    5.37181101862009858e2, 1.62138957456669019e3, 3.29079923573345963e3,
    4.36261909014324716e3, 3.43936767414372164e3, 1.23033935480374942e3,
)
_ERFC_FAR_NUM = (
    1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
    1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4,
)
_ERFC_FAR_DEN = (
    1.0, 2.56852019228982242e0, 1.87295284992346725e0,
    5.27905102951428412e-1, 6.05183413124413191e-2, 2.33520497626869185e-3,
)

# AS241 PPND16, highest degree first: the central branch |p - 0.5| <= 0.425
# in 0.180625 - (p - 0.5)^2, then the tails in r = sqrt(-log(min(p, 1 - p)))
# for r <= 5 (in r - 1.6) and r > 5 (in r - 5).
_PPND_CENTRAL_NUM = (
    2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
    4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
    1.3314166789178437745e2, 3.3871328727963666080e0,
)
_PPND_CENTRAL_DEN = (
    5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
    2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
    4.2313330701600911252e1, 1.0,
)
_PPND_NEAR_NUM = (
    7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
    1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
    4.63033784615654529590e0, 1.42343711074968357734e0,
)
_PPND_NEAR_DEN = (
    1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
    1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
    2.05319162663775882187e0, 1.0,
)
_PPND_FAR_NUM = (
    2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
    2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
    5.46378491116411436990e0, 6.65790464350110377720e0,
)
_PPND_FAR_DEN = (
    2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
    7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
    5.99832206555887937690e-1, 1.0,
)


def _horner(coeffs, x):
    out = coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def ndtr(x) -> np.ndarray:
    """Standard normal CDF of a float array, through Cody's erfc.

    ndtr(x) = erfc(-x/sqrt(2)) / 2. The relative error is below 2e-14
    for x > -10 and below 2e-13 wherever the result is a normal double,
    most of it from rounding x/sqrt(2). Smaller results lose digits and
    are 0.0 from x = -38.5 on; +-inf map to 1 and 0, NaN to NaN.
    """
    shape = np.shape(x)
    z = np.asarray(x, dtype=float).reshape(-1) * _SQRT1_2
    # erfc(y) is 0.0 in double from y = 27.3 on; the cap keeps inf finite
    y = np.minimum(np.abs(z), 30.0)
    e = _horner(_ERFC_MID_NUM, y)
    e /= _horner(_ERFC_MID_DEN, y)
    far = np.flatnonzero(y > 4.0)
    yf = y[far]
    s = 1.0 / (yf * yf)
    ratio = s * _horner(_ERFC_FAR_NUM, s) / _horner(_ERFC_FAR_DEN, s)
    e[far] = (_FRAC_1_SQRTPI - ratio) / yf
    # e^(-y^2) as e^(-y16^2) e^(-(y - y16)(y + y16)), with y16^2 exact
    y16 = np.trunc(y * 16.0) / 16.0
    e *= np.exp(-y16 * y16) * np.exp(-(y - y16) * (y + y16))
    e *= 0.5
    out = np.where(z < 0.0, e, 1.0 - e)
    near = np.flatnonzero(y < 0.46875)
    zn = z[near]
    s = zn * zn
    out[near] = 0.5 + 0.5 * (zn * _horner(_ERF_NUM, s) / _horner(_ERF_DEN, s))
    return out.reshape(shape)


def ndtri(p) -> np.ndarray:
    """Inverse standard normal CDF of a float array in [0, 1], by AS241.

    0 and 1 map to -inf and +inf.
    """
    shape = np.shape(p)
    p = np.asarray(p, dtype=float).reshape(-1)
    q = p - 0.5
    r = 0.180625 - q * q
    x = q * _horner(_PPND_CENTRAL_NUM, r)
    x /= _horner(_PPND_CENTRAL_DEN, r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    pt = p[tail]
    lower = q[tail] < 0.0
    # min(p, 1 - p) from p itself: p - 0.5 has lost the low bits of a small p
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.where(lower, pt, 1.0 - pt)))
        v = np.where(
            r <= 5.0,
            _horner(_PPND_NEAR_NUM, r - 1.6) / _horner(_PPND_NEAR_DEN, r - 1.6),
            _horner(_PPND_FAR_NUM, r - 5.0) / _horner(_PPND_FAR_DEN, r - 5.0),
        )
    v[np.isinf(r)] = np.inf
    x[tail] = np.where(lower, -v, v)
    return x.reshape(shape)


def std_normal_cdf(x):
    """Standard normal CDF ``Phi(x)``.

    Evaluated via erfc, absolute error below 1e-12 (in practice ~1 ulp).
    For finite x the result is strictly inside (0, 1): values that would
    underflow are floored at the smallest positive double.
    """
    arr = np.asarray(x, dtype=float)
    out = ndtr(arr)
    out = np.where(np.isfinite(arr) & (out == 0.0), _TINY, out)
    out = np.where(np.isfinite(arr) & (out == 1.0), np.nextafter(1.0, 0.0), out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def std_normal_quantile(p):
    """Inverse of the standard normal CDF for p in (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise ParameterError("quantile argument must lie strictly inside (0, 1)")
    out = ndtri(arr)
    if np.ndim(p) == 0:
        return float(out)
    return out


def chisq_survival_even_df(x: float, df: int) -> float:
    """Upper-tail chi-square probability for even degrees of freedom.

    Uses the closed form exp(-x/2) * sum_{k<df/2} (x/2)^k / k!, switching
    to log-space when exp(-x/2) underflows. An infinite statistic (exactly
    zero input p-values in a Fisher combination) saturates to 0.
    """
    if df < 2 or df % 2 != 0:
        raise ParameterError(f"degrees of freedom must be a positive even integer, got {df}")
    if x < 0:
        raise ParameterError(f"statistic must be non-negative, got {x}")
    if math.isinf(x):
        return 0.0
    u = x / 2.0
    n_terms = df // 2
    if u < 700.0:
        term = 1.0
        total = 1.0
        for k in range(1, n_terms):
            term *= u / k
            total += term
        value = math.exp(-u) * total
    else:
        # log-space: -u + log(sum u^k/k!)
        logs = [k * math.log(u) - math.lgamma(k + 1) for k in range(n_terms)]
        peak = max(logs)
        log_sum = peak + math.log(sum(math.exp(v - peak) for v in logs))
        value = math.exp(-u + log_sum)
    return min(max(value, 0.0), 1.0)


def harmonic(k: int) -> float:
    """H_k = 1 + 1/2 + ... + 1/k, with H_0 = 0.

    Summed exactly below k = 32; above, the asymptotic series
    ln k + gamma + 1/(2k) - 1/(12k^2) + 1/(120k^4) - 1/(252k^6) + 1/(240k^8),
    within 2 ulp of digamma(k + 1) + gamma. The corrections are summed
    smallest first and only then added to ln k + gamma, which keeps each
    increment H_k - H_(k-1) within 2 ulp of 1/k.
    """
    check_count("harmonic index", k, 0)
    if k < 32:
        return math.fsum(1.0 / i for i in range(1, k + 1))
    s = 1.0 / (float(k) * k)
    tail = (((s / 240.0 - 1.0 / 252.0) * s + 1.0 / 120.0) * s - 1.0 / 12.0) * s + 0.5 / k
    return (math.log(k) + np.euler_gamma) + tail


def solve_q1_tilde_thresholded(q1: float, m: int, t: float) -> float:
    """Largest x with x * (1 + H_ceil(t*m/x - 1)) = q1.

    This is the primary-stage level that keeps error control valid under
    arbitrary dependence when the follow-up set is restricted to
    hypotheses with primary p-values at most t. Applicable only for
    t < q1 / (1 + H_{m-1}); larger thresholds gain nothing over dividing
    q1 by the full harmonic sum, and a caller hitting that case should
    fall back to the plain harmonic correction.

    The objective is piecewise constant in the ceiling value, so instead
    of a generic root search we walk the integer ceiling k upward until it
    hits the fixed point ceil(t*m/x_k - 1) == k with x_k = q1/(1 + H_k).
    The first (smallest) such k yields the maximal solution.
    """
    check_levels(None, q1, mode=Dependence.ARBITRARY_PRIMARY_ITEM2, t=t)
    check_count("m", m, 1)
    bound = q1 / (1.0 + harmonic(m - 1))
    if t >= bound:
        raise ApplicabilityError(
            f"threshold t={t:g} is not below q1/(1+H_(m-1))={bound:g}; "
            "use the plain harmonic-sum correction instead"
        )
    k = 0
    while True:
        x = q1 / (1.0 + harmonic(k))
        target = max(0, math.ceil(t * m / x - 1.0))
        if target == k:
            return x
        if target > m:  # cannot happen under the precondition; guard anyway
            raise ApplicabilityError(
                "no fixed point found for the thresholded level equation"
            )
        k = max(k + 1, target)


def solve_oracle_qprime(f00: float, f01: float, q: float, w1: float) -> float:
    """Level q' such that running the two-stage procedure at (q', 2q')
    attains FDR q when the fractions of doubly-null (f00) and
    follow-up-only (f01) hypotheses are known.

    Solves f00*y^2 + (f01+1)*y = y_target in closed form, where
    y = q' and y_target = q for w1 in {0, 1}, and y = q'/2 with
    y_target = q/2 for the symmetric weight w1 = 0.5.
    """
    if not (0.0 <= f00 <= 1.0 and 0.0 <= f01 <= 1.0 and f00 + f01 <= 1.0 + 1e-12):
        raise ParameterError(f"fractions must lie in [0, 1] with f00 + f01 <= 1, got {f00}, {f01}")
    check_levels(None, q, w1)
    if w1 not in (0.0, 0.5, 1.0):
        raise ParameterError(f"w1 must be one of 0, 0.5, 1, got {w1}")
    scale = 0.5 if w1 == 0.5 else 1.0
    target = scale * q
    b = f01 + 1.0
    if f00 == 0.0:
        y = target / b
    else:
        y = (-b + math.sqrt(b * b + 4.0 * f00 * target)) / (2.0 * f00)
    return y / scale
