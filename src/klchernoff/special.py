"""Log-domain upper incomplete gamma function.

The closed form for the k=2 polynomial and the asymptotic reference tail
both need Gamma(a, z) at argument sizes where the regularized value
underflows double precision (Q(1001, 1e4) ~ exp(-6700)), so the function
is computed directly in log space.  The classic two-regime scheme is used:
a lower-incomplete series for z < a + 1 and a continued fraction (modified
Lentz) otherwise, each iterated to 1e-14 relative convergence.
"""

from __future__ import annotations

import math

GAMMA_TOL = 1e-14
_MAX_ITER = 1_000_000
_FPMIN = 1e-300


def _reg_lower_series(a: float, z: float) -> float:
    """Regularized lower incomplete gamma P(a, z) by series; valid z < a + 1."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= z / ap
        total += term
        if abs(term) < abs(total) * GAMMA_TOL:
            return math.exp(-z + a * math.log(z) - math.lgamma(a)) * total
    raise RuntimeError(f"incomplete gamma series did not converge (a={a}, z={z})")


def _log_upper_cf(a: float, z: float) -> float:
    """log Gamma(a, z) by continued fraction; valid z >= a + 1."""
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
            return -z + a * math.log(z) + math.log(h)
    raise RuntimeError(f"incomplete gamma continued fraction did not converge (a={a}, z={z})")


def log_upper_gamma(a: float, z: float) -> float:
    """log Gamma(a, z) with Gamma(a, z) = integral_z^inf t^(a-1) e^(-t) dt."""
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if z < 0.0:
        raise ValueError(f"lower limit must be nonnegative, got {z}")
    if z == 0.0:
        return math.lgamma(a)
    if z < a + 1.0:
        p = _reg_lower_series(a, z)
        return math.lgamma(a) + math.log1p(-p)
    return _log_upper_cf(a, z)

