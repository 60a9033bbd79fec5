"""Scalar numerics shared by every procedure: normal CDF/quantile,
even-df chi-square survival, harmonic sums, the thresholded
primary-level solver, and the oracle calibration quadratic.

Tail behaviour matters here: primary-study p-values in GWAS-scale data go
down to 1e-36, so the normal CDF is evaluated through the complementary
error function and the far-left tail is floored at the smallest positive
double instead of underflowing to zero.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import ApplicabilityError

# Smallest positive (subnormal) double; used to keep tail probabilities
# strictly positive for finite arguments.
_TINY = 5e-324


def std_normal_cdf(x):
    """Standard normal CDF ``Phi(x)``.

    Evaluated via erfc, absolute error below 1e-12 (in practice ~1 ulp).
    For finite x the result is strictly inside (0, 1): values that would
    underflow are floored at the smallest positive double.
    """
    arr = np.asarray(x, dtype=float)
    out = special.ndtr(arr)
    out = np.where(np.isfinite(arr) & (out == 0.0), _TINY, out)
    out = np.where(np.isfinite(arr) & (out == 1.0), np.nextafter(1.0, 0.0), out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def std_normal_quantile(p):
    """Inverse of the standard normal CDF for p in (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = special.ndtri(arr)
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
        raise ValueError(f"degrees of freedom must be a positive even integer, got {df}")
    if x < 0:
        raise ValueError(f"statistic must be non-negative, got {x}")
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
        if u == 0.0:
            return 1.0
        logs = [k * math.log(u) - math.lgamma(k + 1) for k in range(n_terms)]
        peak = max(logs)
        log_sum = peak + math.log(sum(math.exp(v - peak) for v in logs))
        value = math.exp(-u + log_sum)
    return min(max(value, 0.0), 1.0)


def harmonic(k: int) -> float:
    """H_k = 1 + 1/2 + ... + 1/k, with H_0 = 0, in closed form as
    digamma(k + 1) + Euler's constant (Benjamini & Yekutieli, 2001)."""
    if k < 0:
        raise ValueError(f"harmonic index must be non-negative, got {k}")
    return float(special.digamma(k + 1.0) + np.euler_gamma)


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
    if not 0.0 < q1 < 1.0:
        raise ValueError(f"q1 must lie in (0, 1), got {q1}")
    if not 0.0 < t < 1.0:
        raise ValueError(f"threshold t must lie in (0, 1), got {t}")
    if m < 1:
        raise ValueError(f"family size must be positive, got {m}")
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
    if not 0.0 <= f00 <= 1.0 or not 0.0 <= f01 <= 1.0:
        raise ValueError("fractions must lie in [0, 1]")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if w1 not in (0.0, 0.5, 1.0):
        raise ValueError(f"w1 must be one of 0, 0.5, 1, got {w1}")
    scale = 0.5 if w1 == 0.5 else 1.0
    target = scale * q
    b = f01 + 1.0
    if f00 == 0.0:
        y = target / b
    else:
        y = (-b + math.sqrt(b * b + 4.0 * f00 * target)) / (2.0 * f00)
    return y / scale
