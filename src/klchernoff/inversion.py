"""Critical values and simplex confidence bounds from the tail bounds.

Inverts a (continuous, nonincreasing) bound method into the deviation level
where it equals a target level alpha, and turns that level into an upper
confidence bound for a single simplex coordinate via the divergence-ball
confidence region {p : n * D(phat || p) <= t}.  The exact bound is inverted
through its dual form, one minimization over lambda; the factor bounds in
closed form; the plug-in and large-n limit bounds by bisection on a fixed
bracket.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import BOUND_METHODS, TailQuery, evaluate_bound, log_mardia_factor, log_types_factor
from .bounds import _lambda_min, _log_g_one
from .data import FrequencyTable, ProbVector
from .gkn import ExperimentShape

CRITICAL_REL_TOL = 1e-9
KL_ROOT_TOL = 1e-12
_MAX_BISECTIONS = 500
_LOG_FACTORS = {"lambda_one": _log_g_one, "types": log_types_factor, "mardia": log_mardia_factor}


@dataclass(frozen=True)
class CriticalValueQuery:
    """Target level alpha in (0, 1) and the bound method to invert."""

    shape: ExperimentShape
    alpha: float
    method: str = "exact"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.method not in BOUND_METHODS:
            raise ValueError(
                f"cannot invert method {self.method!r}; expected one of {BOUND_METHODS} "
                "(the gamma reference curve is not a bound)"
            )


@dataclass(frozen=True)
class CoordinateCI:
    """Upper confidence bound for one simplex coordinate (1-based index).

    ``alpha`` is None when the caller supplied the deviation level directly
    instead of a confidence level.
    """

    coord: int
    upper: float
    t_used: float
    alpha: float | None = None


def critical_value(q: CriticalValueQuery) -> float:
    """The deviation t* where the chosen bound equals alpha.

    exact: t* = min over lambda in (0, 1] of (log G(lambda) - log alpha) / lambda,
    the dual of the bound's own minimization, solved by the same search,
    :func:`klchernoff.bounds._lambda_min`.
    lambda_one, types, mardia: the bound is F exp(-t), so t* = log F - log alpha.
    corrected, uncorrected, agrawal_limit: each bound tends to 1 as t -> (k-1)+
    and is below alpha at log G(1) + 2(k-1) - 2 log alpha, so bisect between.
    The returned t* satisfies |bound(t*) - alpha| <= 1e-9 * alpha.
    """
    k, n = q.shape.k, q.shape.n
    if k < 2 or n < 1:
        raise ValueError("critical values require k >= 2 and n >= 1")
    log_alpha = math.log(q.alpha)
    if q.method == "exact":
        # log G(0) - log alpha > 0, so lambda = 0 gives +inf and is excluded
        with np.errstate(divide="ignore"):
            return _lambda_min(k, n, lambda lam, lg: (lg - log_alpha) / lam)[0]
    if q.method in _LOG_FACTORS:
        return _LOG_FACTORS[q.method](k, n) - log_alpha

    lo, hi = k - 1.0, _log_g_one(k, n) + 2.0 * (k - 1) - 2.0 * log_alpha
    tol = CRITICAL_REL_TOL * q.alpha
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        value = evaluate_bound(q.method, TailQuery(q.shape, mid)).value
        if abs(value - q.alpha) <= tol:
            return mid
        if value > q.alpha:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("critical-value bisection failed to converge")


def _rel_entr(x: float, y: float) -> float:
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


def binary_kl(a: float, v: float) -> float:
    """Relative entropy of Bernoulli(a) from Bernoulli(v), in nats."""
    if not 0.0 <= a <= 1.0 or not 0.0 <= v <= 1.0:
        raise ValueError("arguments must lie in [0, 1]")
    a, v = float(a), float(v)
    return _rel_entr(a, v) + _rel_entr(1.0 - a, 1.0 - v)


def coord_upper_bound(
    phat: ProbVector, shape: ExperimentShape, coord: int, t: float
) -> CoordinateCI:
    """Largest value of coordinate ``coord`` on the divergence ball
    {p : n * D(phat || p) <= t}.

    For fixed p_coord = v, spreading the remaining mass 1 - v over the other
    coordinates proportionally to phat minimizes their divergence
    contribution (log-sum inequality), so the ball constraint collapses to
    the binary relative entropy d(phat_coord, v) <= t / n.  The answer is the
    largest root of n * d(phat_coord, v) = t on [phat_coord, 1), found by
    bisection to 1e-12 on [phat_coord, 1], which brackets it because
    d(phat_coord, 1) = +inf; degenerate phat_coord = 1 returns 1.
    """
    if not t > 0.0:
        raise ValueError(f"deviation level t must be positive, got {t}")
    if not math.isfinite(t):
        raise ValueError(f"deviation level t must be finite, got {t}")
    if shape.n < 1:
        raise ValueError("coordinate bound requires n >= 1")
    if len(phat) != shape.k:
        raise ValueError("empirical vector length must equal k")
    if not 1 <= coord <= shape.k:
        raise ValueError(f"coordinate must lie in [1, {shape.k}], got {coord}")
    a = phat.probs[coord - 1]
    if a >= 1.0:
        return CoordinateCI(coord=coord, upper=1.0, t_used=t)
    target = t / shape.n

    lo, hi = a, 1.0
    while hi - lo > KL_ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if binary_kl(a, mid) > target:
            hi = mid
        else:
            lo = mid
    return CoordinateCI(coord=coord, upper=lo, t_used=t)


def unseen_upper_bound(table: FrequencyTable, alpha: float) -> CoordinateCI:
    """Upper confidence bound on the total probability of unseen categories.

    Appends exactly one unseen category (count zero) to the observed
    alphabet, inverts the exact bound at level alpha, and maximizes the
    unseen coordinate over the resulting divergence ball.
    """
    k = table.k_observed + 1
    n = table.n
    shape = ExperimentShape(k, n)
    t = critical_value(CriticalValueQuery(shape=shape, alpha=alpha, method="exact"))
    probs = tuple(c / n for c in table.counts) + (0.0,)
    ci = coord_upper_bound(ProbVector(probs=probs), shape, coord=k, t=t)
    return CoordinateCI(coord=ci.coord, upper=ci.upper, t_used=t, alpha=alpha)
