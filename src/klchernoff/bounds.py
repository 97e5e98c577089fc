"""Upper bounds on P(n*D(phat || p) > t) for multinomial sampling.

All bound arithmetic happens in log domain and is clamped to 1 only on the
probability scale: at t around 500 the linear-domain product of exp(-t) with
a huge combinatorial factor would underflow or overflow double precision.

Methods
-------
exact          minimum over lambda in [0, 1] of exp(-lambda t) G(lambda)
corrected      closed-form plug-in lambda with the first-order 1/n correction
uncorrected    closed-form plug-in lambda = 1 - (k-1)/t
lambda_one     G(1) exp(-t), the combinatorial-factor form
types          C(n+k-1, k-1) exp(-t), the type-counting bound
mardia         C_M(k, n) exp(-t) with the improved combinatorial factor
agrawal_limit  Chernoff bound built from the large-n limit (1-lambda)^-(k-1)
asymp_gamma    gamma tail of the limiting distribution; reference only,
               NOT guaranteed to be a valid bound
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .gkn import (
    ExperimentShape,
    GknEvaluator,
    build_evaluator,
    log_eval_gkn,
    log_eval_gkn_grid,
    logsumexp,
)
from .special import log_upper_gamma

BOUND_METHODS = (
    "exact",
    "corrected",
    "uncorrected",
    "lambda_one",
    "types",
    "mardia",
    "agrawal_limit",
)
ALL_METHODS = BOUND_METHODS + ("asymp_gamma",)

GRID_POINTS = 512
REFINE_TOL = 1e-12
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TailQuery:
    """A finite deviation threshold t > 0 (in nats) for a given experiment shape."""

    shape: ExperimentShape
    t: float

    def __post_init__(self) -> None:
        if not self.t > 0.0:
            raise ValueError(f"threshold t must be positive, got {self.t}")
        if not math.isfinite(self.t):
            raise ValueError(f"threshold t must be finite, got {self.t}")


@dataclass(frozen=True)
class BoundResult:
    """A bound value clamped to [0, 1] plus its log value and provenance.

    ``lambda_used`` is set only for the Chernoff-style methods (exact,
    corrected, uncorrected, lambda_one); ``meaningful`` records whether the
    clamped value is strictly below 1.
    """

    value: float
    log_value: float
    method: str
    lambda_used: float | None
    meaningful: bool


def _make_result(method: str, log_value: float, lambda_used: float | None = None) -> BoundResult:
    if math.isnan(log_value):
        raise ValueError(f"bound {method!r} evaluated to NaN")
    value = min(math.exp(log_value), 1.0) if log_value < 0.0 else 1.0
    return BoundResult(
        value=value,
        log_value=log_value,
        method=method,
        lambda_used=lambda_used,
        meaningful=value < 1.0,
    )


@lru_cache(maxsize=128)
def _evaluator(k: int, n: int) -> GknEvaluator:
    return build_evaluator(ExperimentShape(k, n))


def _require_shape(q: TailQuery) -> tuple[int, int]:
    k, n = q.shape.k, q.shape.n
    if k < 2:
        raise ValueError("tail bounds require k >= 2")
    if n < 1:
        raise ValueError("tail bounds require n >= 1")
    return k, n


def _golden_min(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of f on [a, b] to interval width tol."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def chernoff_exact(q: TailQuery) -> BoundResult:
    """Tightest bound: minimize exp(-lambda t) G(lambda) over lambda in [0, 1].

    The objective is smooth but can have more than one local minimum, so a
    512-point uniform grid scan (in log domain) isolates every candidate
    basin and golden-section refinement resolves each to 1e-12.
    """
    k, n = _require_shape(q)
    ev = _evaluator(k, n)
    t = q.t

    lams = np.linspace(0.0, 1.0, GRID_POINTS)
    obj = log_eval_gkn_grid(ev, lams) - lams * t

    def f(lam: float) -> float:
        return log_eval_gkn(ev, lam) - lam * t

    candidates: list[tuple[float, float]] = [(float(obj[0]), 0.0), (float(obj[-1]), 1.0)]
    interior = np.flatnonzero((obj[1:-1] <= obj[:-2]) & (obj[1:-1] <= obj[2:])) + 1
    brackets = [(float(lams[j - 1]), float(lams[j + 1])) for j in interior]
    if obj[0] <= obj[1]:
        brackets.append((0.0, float(lams[1])))
    if obj[-1] <= obj[-2]:
        brackets.append((float(lams[-2]), 1.0))
    for a, b in brackets:
        x, fx = _golden_min(f, a, b, REFINE_TOL)
        candidates.append((fx, x))

    log_value, lam_star = min(candidates)
    return _make_result("exact", log_value, lam_star)


def defined_at(method: str, k: int, t: float) -> bool:
    """Whether ``method`` has a bound at threshold t for alphabet size k.

    False only for the plug-in methods at t <= k - 1, where their closed-form
    lambda falls outside (0, 1].
    """
    return method not in ("corrected", "uncorrected") or t > k - 1


def _require_above_line(q: TailQuery, method: str) -> tuple[int, int]:
    k, n = _require_shape(q)
    if not defined_at(method, k, q.t):
        raise ValueError(
            f"plug-in lambda requires t > k - 1 (t={q.t}, k={q.shape.k}); "
            "use chernoff_exact for smaller thresholds"
        )
    return k, n


def chernoff_uncorrected(q: TailQuery) -> BoundResult:
    """Closed-form bound from the limit minimizer lambda = 1 - (k-1)/t."""
    k, n = _require_above_line(q, "uncorrected")
    lam = 1.0 - (k - 1) / q.t
    log_value = log_eval_gkn(_evaluator(k, n), lam) - lam * q.t
    return _make_result("uncorrected", log_value, lam)


def chernoff_corrected(q: TailQuery) -> BoundResult:
    """Closed-form bound with the first-order 1/n correction to the minimizer.

    Uses lambda = min(1 - (k-1)/t + (k/(k-1)) (t-k+1)/n, 1).
    """
    k, n = _require_above_line(q, "corrected")
    lam = min(1.0 - (k - 1) / q.t + (k / (k - 1.0)) * (q.t - k + 1) / n, 1.0)
    log_value = log_eval_gkn(_evaluator(k, n), lam) - lam * q.t
    return _make_result("corrected", log_value, lam)


def lambda_one_bound(q: TailQuery) -> BoundResult:
    """Combinatorial-factor form G(1) exp(-t)."""
    k, n = _require_shape(q)
    log_value = log_eval_gkn(_evaluator(k, n), 1.0) - q.t
    return _make_result("lambda_one", log_value, 1.0)


def log_types_factor(k: int, n: int) -> float:
    """log C(n+k-1, k-1), the number of possible empirical types."""
    return float(gammaln(n + k) - gammaln(n + 1.0) - gammaln(float(k)))


def types_bound(q: TailQuery) -> BoundResult:
    """Type-counting bound C(n+k-1, k-1) exp(-t)."""
    k, n = _require_shape(q)
    return _make_result("types", log_types_factor(k, n) - q.t)


def log_mardia_factor(k: int, n: int) -> float:
    """log of C_M(k, n) = (12/pi) sum_{i=0}^{k-2} K_{i-1} (e sqrt(n) / 2 pi)^i.

    The constants follow K_{-1} = 1, K_0 = pi, and K_i = K_{i-2} * 2 pi / i;
    the products are accumulated iteratively in log domain since K_i grows
    quickly with i.
    """
    if k < 2:
        raise ValueError("factor requires k >= 2")
    if n < 1:
        raise ValueError("factor requires n >= 1")
    log_x = 1.0 + 0.5 * math.log(n) - math.log(2.0 * math.pi)
    log_two_pi = math.log(2.0 * math.pi)
    log_k: dict[int, float] = {-1: 0.0, 0: math.log(math.pi), 1: log_two_pi}
    for j in range(2, k - 2):
        log_k[j] = log_k[j - 2] + log_two_pi - math.log(j)
    log_terms = np.asarray([log_k[i - 1] + i * log_x for i in range(k - 1)])
    return math.log(12.0 / math.pi) + float(logsumexp(log_terms))


def mardia_factor(k: int, n: int) -> float:
    """The improved combinatorial factor C_M(k, n)."""
    return math.exp(log_mardia_factor(k, n))


def mardia_bound(q: TailQuery) -> BoundResult:
    """Comparison bound C_M(k, n) exp(-t) built from the factor alone."""
    k, n = _require_shape(q)
    return _make_result("mardia", log_mardia_factor(k, n) - q.t)


def agrawal_limit_bound(q: TailQuery) -> BoundResult:
    """Chernoff bound using the large-n limit (1-lambda)^-(k-1) of G.

    For t > k-1 this is exp(k-1-t) (t/(k-1))^(k-1).  At or below t = k-1 the
    limit objective exp(-lambda t)(1-lambda)^-(k-1) is minimized at the left
    endpoint lambda = 0, so the bound degenerates to 1.
    """
    k = q.shape.k
    if k < 2:
        raise ValueError("tail bounds require k >= 2")
    if q.t <= k - 1:
        return _make_result("agrawal_limit", 0.0)
    log_value = (k - 1 - q.t) + (k - 1) * math.log(q.t / (k - 1))
    return _make_result("agrawal_limit", log_value)


def log_asymp_gamma_tail(k: int, t: float) -> float:
    if k < 2:
        raise ValueError("gamma reference requires k >= 2")
    if not t > 0.0:
        raise ValueError(f"threshold t must be positive, got {t}")
    a = (k - 1) / 2.0
    return log_upper_gamma(a, t) - math.lgamma(a)


def asymp_gamma_tail(k: int, t: float) -> float:
    """Upper tail Q((k-1)/2, t) of the limiting gamma distribution.

    Reference curve only: the limit is the exact tail as n grows but is not
    guaranteed to upper-bound the finite-n probability.
    """
    return min(math.exp(log_asymp_gamma_tail(k, t)), 1.0)


def meaningful_threshold(shape: ExperimentShape) -> float:
    """min(log G(1), k - 1); the exact bound drops below 1 only above this."""
    if shape.k < 2 or shape.n < 1:
        raise ValueError("threshold requires k >= 2 and n >= 1")
    return min(log_eval_gkn(_evaluator(shape.k, shape.n), 1.0), float(shape.k - 1))


_DISPATCH = {
    "exact": chernoff_exact,
    "corrected": chernoff_corrected,
    "uncorrected": chernoff_uncorrected,
    "lambda_one": lambda_one_bound,
    "types": types_bound,
    "mardia": mardia_bound,
    "agrawal_limit": agrawal_limit_bound,
}


def evaluate_bound(method: str, q: TailQuery) -> BoundResult:
    """Evaluate one bound method (or the gamma reference) on a query."""
    if method == "asymp_gamma":
        log_value = log_asymp_gamma_tail(q.shape.k, q.t)
        return _make_result("asymp_gamma", log_value)
    try:
        fn = _DISPATCH[method]
    except KeyError:
        raise ValueError(f"unknown bound method {method!r}; expected one of {ALL_METHODS}") from None
    return fn(q)
