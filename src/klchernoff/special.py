"""Log-domain upper incomplete gamma function, and the relative-entropy kernel.

The closed form for the k=2 polynomial and the asymptotic reference tail
both need Gamma(a, z) at argument sizes where the regularized value
underflows double precision (Q(1001, 1e4) ~ exp(-6700)), so the function
is computed directly in log space.  The classic two-regime scheme is used:
a lower-incomplete series for z < a + 1 and a continued fraction (modified
Lentz) otherwise, each iterated to 1e-14 relative convergence.  The scaled
form log(Gamma(a, z) e^z z^-a) is computed without forming log Gamma(a, z),
whose terms of size ~a log a cancel at large a.

:func:`rel_entr` is the elementwise term x log(x/y) that both the binary
relative entropy of the confidence bounds and the oracle's D(phat || p) sum.
"""

from __future__ import annotations

import math
import sys

GAMMA_TOL = 1e-14
_MAX_ITER = 1_000_000
_FPMIN = 1e-300


# Stirling series of log Gamma(a) - [(a - 1/2) log a - a + log(2 pi)/2]; with
# these five terms its error is below 1.1e-16 for a >= _STIRLING_MIN.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_STIRLING_MIN = 16.0


def _lower_series_sum(a: float, z: float) -> float:
    """P(a, z) Gamma(a) e^z z^-a by series; valid z < a + 1.

    The term ratios z/(a + i) fall, so the terms after ``term`` sum to at
    most term * z/(ap + 1 - z); the loop stops once that is below the
    tolerance, and never before ``term`` itself is.
    """
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= z / ap
        total += term
        if term * max(1.0, z / (ap + 1.0 - z)) < total * GAMMA_TOL:
            return total
    raise RuntimeError(f"incomplete gamma series did not converge (a={a}, z={z})")


def _log_gamma_scaled(a: float, z: float) -> float:
    """log(Gamma(a) e^z z^-a) for z > 0.

    For a >= 16 this is log(2 pi / a)/2 + a (w - log1p(w)) + Stirling terms,
    with w = (z - a)/a: no term of size a log a is formed.
    """
    if a < _STIRLING_MIN:
        return math.lgamma(a) + z - a * math.log(z)
    w = (z - a) / a
    inv_a2 = 1.0 / (a * a)
    series = 0.0
    for coeff in reversed(_STIRLING):
        series = series * inv_a2 + coeff
    return 0.5 * math.log(2.0 * math.pi / a) + a * (w - math.log1p(w)) + series / a


def _log_cf_scaled(a: float, z: float) -> float:
    """log(Gamma(a, z) e^z z^-a) by continued fraction; valid z >= a + 1."""
    b = z + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < GAMMA_TOL:
            return math.log(h)
    raise RuntimeError(f"incomplete gamma continued fraction did not converge (a={a}, z={z})")


def _check_args(a: float, z: float) -> None:
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if z < 0.0:
        raise ValueError(f"lower limit must be nonnegative, got {z}")


def log_upper_gamma(a: float, z: float) -> float:
    """log Gamma(a, z) with Gamma(a, z) = integral_z^inf t^(a-1) e^(-t) dt."""
    _check_args(a, z)
    if z == 0.0:
        return math.lgamma(a)
    if z < a + 1.0:
        p = math.exp(-z + a * math.log(z) - math.lgamma(a)) * _lower_series_sum(a, z)
        return math.lgamma(a) + math.log1p(-p)
    return -z + a * math.log(z) + _log_cf_scaled(a, z)


def log_upper_gamma_scaled(a: float, z: float) -> float:
    """log(Gamma(a, z) e^z z^-a) for z > 0.  It stays accurate at large a
    (within 3e-14 absolute through the k = 2 identity at a = 10^6 + 1), where
    ``log_upper_gamma(a, z) + z - a log z`` cancels terms of size a log a.

    The continued fraction gives this form directly.  In the series regime
    it is D + log1p(-e^-D S), with D = log(Gamma(a) e^z z^-a) from
    :func:`_log_gamma_scaled` and S the lower-incomplete series sum.
    """
    _check_args(a, z)
    if z == 0.0:
        raise ValueError("the scaled form needs a positive lower limit")
    if z >= a + 1.0:
        return _log_cf_scaled(a, z)
    d = _log_gamma_scaled(a, z)
    return d + math.log1p(-math.exp(-d) * _lower_series_sum(a, z))


def rel_entr(x: float, y: float) -> float:
    """x log(x/y) for x, y in [0, 1], with 0 log(0/y) = 0 and x log(x/0) = +inf.

    Same branches as SciPy's ``rel_entr``: log1p when x and y are within a
    factor of 2, and two separate logs when x/y leaves the normal range.
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return math.inf
    ratio = x / y
    if 0.5 < ratio < 2.0:
        return x * math.log1p((x - y) / y)
    if sys.float_info.min < ratio < math.inf:
        return x * math.log(ratio)
    return x * (math.log(x) - math.log(y))
