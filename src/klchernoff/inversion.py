"""Critical values and simplex confidence bounds from the tail bounds.

Inverts a (continuous, nonincreasing) bound method into the deviation level
where it equals a target level alpha, and turns that level into an upper
confidence bound for a single simplex coordinate via the divergence-ball
confidence region {p : n * D(phat || p) <= t}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import rel_entr

from .bounds import BOUND_METHODS, TailQuery, defined_at, evaluate_bound, meaningful_threshold
from .data import FrequencyTable, ProbVector
from .gkn import ExperimentShape

CRITICAL_REL_TOL = 1e-9
KL_ROOT_TOL = 1e-12
_MAX_DOUBLINGS = 200
_MAX_BISECTIONS = 500


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

    Brackets [meaningful threshold, t_hi] with t_hi doubled until the bound
    drops below alpha, then bisects; the bound is continuous and
    nonincreasing in t, so the returned t* satisfies
    |bound(t*) - alpha| <= 1e-9 * alpha.
    """
    k = q.shape.k

    def bound_at(t: float) -> float:
        return evaluate_bound(q.method, TailQuery(q.shape, t)).value

    if not defined_at(q.method, k, k - 1):
        # the plug-in bounds exist only above the line t = k - 1
        lo = (k - 1) * (1.0 + 1e-12) + 1e-12
    else:
        lo = meaningful_threshold(q.shape)
        while lo > 1e-12 and bound_at(lo) < q.alpha:
            lo /= 2.0

    hi = max(4.0 * (k - 1), 10.0)
    for _ in range(_MAX_DOUBLINGS):
        if bound_at(hi) < q.alpha:
            break
        hi *= 2.0
    else:
        raise RuntimeError(
            f"bound {q.method!r} never dropped below alpha={q.alpha} while bracketing"
        )

    tol = CRITICAL_REL_TOL * q.alpha
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        value = bound_at(mid)
        if abs(value - q.alpha) <= tol:
            return mid
        if value > q.alpha:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("critical-value bisection failed to converge")


def binary_kl(a: float, v: float) -> float:
    """Relative entropy of Bernoulli(a) from Bernoulli(v), in nats."""
    if not 0.0 <= a <= 1.0 or not 0.0 <= v <= 1.0:
        raise ValueError("arguments must lie in [0, 1]")
    return float(rel_entr(a, v) + rel_entr(1.0 - a, 1.0 - v))


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
    bisection to 1e-12; degenerate phat_coord = 1 returns 1.
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

    lo = a
    hi = 1.0 - (1.0 - a) / 2.0
    while binary_kl(a, hi) <= target:
        lo = hi
        # halve the distance to 1; the divergence is +inf once hi rounds to 1
        hi = 1.0 - (1.0 - hi) / 2.0
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
