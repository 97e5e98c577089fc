"""Polynomial family bounding the MGF of the multinomial relative-entropy statistic.

For alphabet size k and sample size n, the moment generating function of
n*D(phat || p) is bounded, uniformly over the true probability vector p, by
the degree-n polynomial

    G(lambda) = sum_{m=0}^{n}  n! / (n^m (n-m)!) * C(m+k-2, k-2) * lambda^m,

with G identically 1 for k = 1 or n = 0.  Coefficients are held in log form
so that shapes as large as k ~ 500, n ~ 10^6 evaluate without overflow; they
are built by walking the term ratio c_{m+1}/c_m = (1 - m/n)(1 + (k-2)/(m+1))
from c_0 = 1, which keeps log G within ~1e-15 relative of its exact value.
Since that ratio decreases in m, the terms past the peak shrink at least
geometrically, and each table is cut once, at the first index whose
geometric tail bound falls to 2^-60; every evaluation adds that certified
tail back, so log G is rounded up, never down.
Every sum of log-domain terms, here and in the bound factors and the
enumeration oracle, goes through the one :func:`logsumexp` reduction.

Everything here is immutable after construction and safe for concurrent use.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .special import log_upper_gamma

# Cap on temporary entries when evaluating on a lambda grid.
_CHUNK_ENTRIES = 8_000_000

# Coefficients past the cut sum to at most this; a term that small cannot
# reach the last bit of log G, whose truncated sum is at least c_0 = 1.
_TAIL_MASS = 2.0**-60


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


@dataclass(frozen=True, eq=False)
class GknEvaluator:
    """Precomputed coefficient table of the polynomial for one shape.

    ``log_coeffs[m]`` is the natural log of the m-th coefficient, for m = 0
    to M.  The table stops at the first M whose dropped coefficients
    c_{M+1} + ... + c_n sum to at most ``tail`` <= 2^-60, so for
    lambda in [0, 1] the dropped terms of G sum to at most
    ``tail * lambda**(M+1)``.  Shapes that need every term keep all n + 1
    coefficients and ``tail = 0``.  For the degenerate shapes (k = 1 or
    n = 0) the polynomial is the constant 1 and a single zero
    log-coefficient is stored.  Evaluators compare and hash by identity.
    """

    shape: ExperimentShape
    log_coeffs: np.ndarray
    tail: float = 0.0


def _cut(log_coeffs: np.ndarray, log_ratio: np.ndarray) -> tuple[int, float]:
    """(M + 1, tail) for the shortest table ``log_coeffs[:M+1]`` whose dropped
    coefficients sum to at most ``tail <= _TAIL_MASS``; (n + 1, 0.0) if none.

    ``log_ratio[i]`` is log(c_{i+1}/c_i); r_n = 0 ends the polynomial.
    """
    n = log_ratio.size

    def log_tail(i: int) -> float:
        """log of the geometric bound on c_i + ... + c_n; +inf before the peak."""
        log_r = float(log_ratio[i]) if i < n else -math.inf
        return float(log_coeffs[i]) - math.log(-math.expm1(log_r)) if log_r < 0.0 else math.inf

    # The test is false up to the peak; past it both c_i and 1/(1 - r_i)
    # fall, so it turns true once and stays true, and bisection finds it.
    kept = 1 + bisect.bisect_left(range(1, n + 1), True, key=lambda i: log_tail(i) <= math.log(_TAIL_MASS))
    return (kept, math.exp(log_tail(kept))) if kept <= n else (kept, 0.0)


def build_evaluator(shape: ExperimentShape) -> GknEvaluator:
    """Construct the coefficient table for ``shape``.

    ``log c_0 = 0`` and ``log c_{j+1} = log c_j + log r_j`` with
    ``log r_j = log1p(-j/n) + log1p((k-2)/(j+1))``, one cumulative sum of the
    log term ratios.  No step cancels large quantities, so ``log G`` agrees
    with a 40-digit reference to ~1e-15 relative at (2, 10^6) and (50, 10^5).

    The ratio r_j decreases in j, so whenever r_{M+1} < 1 the coefficients
    past M sum to at most ``c_{M+1} / (1 - r_{M+1})``, a geometric series.
    The table keeps ``log_coeffs[:M+1]`` for the smallest M where that bound
    is at most 2^-60 and stores the bound as ``tail``: 9,602 of 10^6 + 1
    terms at (2, 10^6), 1,710 of 2,030 at (436, 2029).
    """
    k, n = shape.k, shape.n
    tail = 0.0
    if k == 1 or n == 0:
        log_coeffs = np.zeros(1)
    else:
        j = np.arange(n, dtype=float)
        log_ratio = np.log1p(-j / n) + np.log1p((k - 2) / (j + 1.0))
        log_coeffs = np.empty(n + 1)
        log_coeffs[0] = 0.0
        np.cumsum(log_ratio, out=log_coeffs[1:])
        kept, tail = _cut(log_coeffs, log_ratio)
        if kept <= n:
            log_coeffs = log_coeffs[:kept].copy()
    log_coeffs.flags.writeable = False
    return GknEvaluator(shape=shape, log_coeffs=log_coeffs, tail=tail)


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
    """Natural log of the polynomial at ``lam`` in [0, 1] (log-sum-exp).

    Returns ``log S + tail * lam**(M+1)``, where S sums the M + 1 stored
    terms.  The dropped terms add at most ``tail * lam**(M+1)`` to S >= 1,
    so the result is never below the exact log G (up to the rounding of S).
    """
    _check_unit_interval(lam)
    if lam == 0.0 or ev.log_coeffs.size == 1:
        return 0.0
    m = np.arange(ev.log_coeffs.size, dtype=float)
    return float(logsumexp(ev.log_coeffs + m * math.log(lam))) + ev.tail * lam**ev.log_coeffs.size


def eval_gkn(ev: GknEvaluator, lam: float) -> float:
    """Polynomial value at ``lam`` in [0, 1]; exactly 1 at lam = 0."""
    return math.exp(log_eval_gkn(ev, lam))


def log_eval_gkn_grid(ev: GknEvaluator, lams: np.ndarray) -> np.ndarray:
    """Vectorized ``log_eval_gkn`` over a 1-d grid of lambda values, with the
    same ``tail * lam**(M+1)`` added, so no value is below the exact log G."""
    arr = np.asarray(lams, dtype=float)
    if arr.ndim != 1:
        raise ValueError("lambda grid must be one-dimensional")
    if not ((arr >= 0.0) & (arr <= 1.0)).all():  # NaN fails both tests
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
        lams_chunk = arr[idx]
        out[idx] = logsumexp(lc + m * np.log(lams_chunk)[None, :]) + ev.tail * lams_chunk**ev.log_coeffs.size
    return out


def eval_gkn_deriv(ev: GknEvaluator, lam: float) -> float:
    """Derivative of the polynomial at ``lam``; equals k - 1 at lam = 0.

    Sums the stored terms only.  The dropped ones add at most ``n * tail`` to
    a derivative of at least k - 1 >= 1, so the relative error is at most
    ``n * tail`` (below 1e-12 for n <= 10^6).
    """
    if ev.shape.k < 2:
        raise ValueError("derivative is defined for k >= 2")
    _check_unit_interval(lam)
    n = ev.shape.n
    if n == 0:
        return 0.0
    if lam == 0.0:
        return math.exp(ev.log_coeffs[1])
    m = np.arange(1, ev.log_coeffs.size, dtype=float)
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
