"""Polynomial family bounding the MGF of the multinomial relative-entropy statistic.

For alphabet size k and sample size n, the moment generating function of
n*D(phat || p) is bounded, uniformly over the true probability vector p, by
the degree-n polynomial

    G(lambda) = sum_{m=0}^{n}  n! / (n^m (n-m)!) * C(m+k-2, k-2) * lambda^m,

with G identically 1 for k = 1 or n = 0.  Coefficients are held in log form
so that shapes as large as k ~ 500, n ~ 10^6 evaluate without overflow; small
shapes additionally carry exact rational coefficients for bit-exact checks.
Every sum of log-domain terms, here and in the bound factors and the
enumeration oracle, goes through the one :func:`logsumexp` reduction.

Everything here is immutable after construction and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from .special import log_upper_gamma

# Exact rationals are kept while both k and n stay at or below this; beyond it
# only the log-domain coefficients exist (the butterfly workload sits at
# k = 436, n = 2029, far past exact arithmetic).
EXACT_COEFF_LIMIT = 30

# Cap on temporary entries when evaluating on a lambda grid.
_CHUNK_ENTRIES = 8_000_000


@dataclass(frozen=True)
class ExperimentShape:
    """Alphabet size k >= 1 and sample size n >= 0 of a multinomial experiment."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"alphabet size k must be >= 1, got {self.k}")
        if self.n < 0:
            raise ValueError(f"sample size n must be >= 0, got {self.n}")


@dataclass(frozen=True)
class GknEvaluator:
    """Precomputed coefficient table of the polynomial for one shape.

    ``log_coeffs[m]`` is the natural log of the m-th coefficient.  For the
    degenerate shapes (k = 1 or n = 0) the polynomial is the constant 1 and a
    single zero log-coefficient is stored.  ``exact_coeffs`` mirrors the same
    coefficients as exact rationals when the shape is small enough.
    """

    shape: ExperimentShape
    log_coeffs: np.ndarray
    exact_coeffs: tuple[Fraction, ...] | None = None


def _exact_coefficients(k: int, n: int) -> tuple[Fraction, ...]:
    if k == 1 or n == 0:
        return (Fraction(1),)
    return tuple(
        Fraction(math.factorial(n), n**m * math.factorial(n - m)) * math.comb(m + k - 2, k - 2)
        for m in range(n + 1)
    )


def build_evaluator(shape: ExperimentShape) -> GknEvaluator:
    """Construct the coefficient table for ``shape``.

    Coefficients are computed through log-gamma so large shapes do not
    overflow; the constant term is pinned to exactly 1.
    """
    k, n = shape.k, shape.n
    if k == 1 or n == 0:
        log_coeffs = np.zeros(1)
        exact: tuple[Fraction, ...] | None = (Fraction(1),)
    else:
        m = np.arange(n + 1, dtype=float)
        log_coeffs = (
            gammaln(n + 1.0)
            - m * math.log(n)
            - gammaln(n + 1.0 - m)
            + gammaln(m + k - 1.0)
            - gammaln(m + 1.0)
            - gammaln(float(k - 1))
        )
        log_coeffs[0] = 0.0
        exact = _exact_coefficients(k, n) if (k <= EXACT_COEFF_LIMIT and n <= EXACT_COEFF_LIMIT) else None
    log_coeffs.flags.writeable = False
    return GknEvaluator(shape=shape, log_coeffs=log_coeffs, exact_coeffs=exact)


def _check_unit_interval(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")


def logsumexp(terms: np.ndarray):
    """log(sum(exp(terms))) over the first axis, shifted by the maximum so
    that no term overflows.  Entries of -inf contribute nothing; each column
    reduced needs at least one finite entry."""
    peak = terms.max(axis=0)
    return peak + np.log(np.exp(terms - peak).sum(axis=0))


def log_eval_gkn(ev: GknEvaluator, lam: float) -> float:
    """Natural log of the polynomial at ``lam`` in [0, 1] (log-sum-exp)."""
    _check_unit_interval(lam)
    if lam == 0.0 or ev.log_coeffs.size == 1:
        return 0.0
    m = np.arange(ev.log_coeffs.size, dtype=float)
    return float(logsumexp(ev.log_coeffs + m * math.log(lam)))


def eval_gkn(ev: GknEvaluator, lam: float) -> float:
    """Polynomial value at ``lam`` in [0, 1]; exactly 1 at lam = 0."""
    if lam == 0.0:
        _check_unit_interval(lam)
        return 1.0
    return math.exp(log_eval_gkn(ev, lam))


def log_eval_gkn_grid(ev: GknEvaluator, lams: np.ndarray) -> np.ndarray:
    """Vectorized ``log_eval_gkn`` over a 1-d grid of lambda values."""
    arr = np.asarray(lams, dtype=float)
    if arr.ndim != 1:
        raise ValueError("lambda grid must be one-dimensional")
    if arr.size and (float(arr.min()) < 0.0 or float(arr.max()) > 1.0):
        raise ValueError("lambda grid must lie in [0, 1]")
    out = np.zeros(arr.size)
    if ev.log_coeffs.size == 1:
        return out
    nz = np.flatnonzero(arr > 0.0)
    if nz.size == 0:
        return out
    lc = ev.log_coeffs[:, None]
    m = np.arange(ev.log_coeffs.size, dtype=float)[:, None]
    cols_per_chunk = max(1, _CHUNK_ENTRIES // ev.log_coeffs.size)
    for start in range(0, nz.size, cols_per_chunk):
        idx = nz[start : start + cols_per_chunk]
        out[idx] = logsumexp(lc + m * np.log(arr[idx])[None, :])
    return out


def eval_gkn_deriv(ev: GknEvaluator, lam: float) -> float:
    """Derivative of the polynomial at ``lam``; equals k - 1 at lam = 0."""
    if ev.shape.k < 2:
        raise ValueError("derivative is defined for k >= 2")
    _check_unit_interval(lam)
    n = ev.shape.n
    if n == 0:
        return 0.0
    if lam == 0.0:
        return math.exp(ev.log_coeffs[1])
    m = np.arange(1, n + 1, dtype=float)
    terms = ev.log_coeffs[1:] + np.log(m) + (m - 1.0) * math.log(lam)
    return math.exp(logsumexp(terms))


def eval_gkn_limit(k: int, lam: float) -> float:
    """Large-n limit (1 - lam)^-(k-1), valid for lam in [0, 1)."""
    if k < 2:
        raise ValueError("limit is defined for k >= 2")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must lie in [0, 1), got {lam}")
    return (1.0 - lam) ** (-(k - 1))


def eval_g2n_gamma_form(n: int, lam: float) -> float:
    """k = 2 polynomial via the incomplete-gamma identity.

    Evaluates n^-n lam^n e^(n/lam) Gamma(n+1, n/lam) in log domain; an
    independent cross-check of :func:`eval_gkn` at k = 2.  Singular at
    lam = 0, where the plain polynomial evaluation should be used instead.
    """
    if n < 1:
        raise ValueError(f"sample size n must be >= 1, got {n}")
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    z = n / lam
    log_val = -n * math.log(n) + n * math.log(lam) + z + log_upper_gamma(n + 1.0, z)
    return math.exp(log_val)


def _recurrence_residual(evaluator, k: int, n: int, lam: float) -> float:
    """G_{k,n}(lam) - [G_{k-1,n}(lam) + lam * G_{k,n-1}(lam (n-1)/n)], with each
    polynomial built by ``evaluator(shape)``."""
    g = eval_gkn(evaluator(ExperimentShape(k, n)), lam)
    g_left = eval_gkn(evaluator(ExperimentShape(k - 1, n)), lam)
    g_down = eval_gkn(evaluator(ExperimentShape(k, n - 1)), lam * (n - 1) / n)
    return g - (g_left + lam * g_down)


def recurrence_residual(k: int, n: int, lam: float) -> float:
    """Residual of G_{k,n}(lam) - [G_{k-1,n}(lam) + lam * G_{k,n-1}(lam (n-1)/n)].

    Zero up to rounding for every valid shape; exposed so harnesses can
    assert |residual| <= 1e-10 * G_{k,n}(lam).
    """
    if k < 2:
        raise ValueError("recurrence requires k >= 2")
    if n < 1:
        raise ValueError("recurrence requires n >= 1")
    _check_unit_interval(lam)
    return _recurrence_residual(build_evaluator, k, n, lam)
