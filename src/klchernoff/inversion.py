"""Simplex confidence bounds from a deviation level.

Turns a deviation level t into an upper confidence bound for a single
simplex coordinate via the divergence-ball confidence region
{p : n * D(phat || p) <= t}.  A confidence level alpha becomes a deviation
level through :func:`klchernoff.bounds.critical_value`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import CriticalValueQuery, critical_value
from .data import FrequencyTable, ProbVector
from .gkn import ExperimentShape
from .special import rel_entr

KL_ROOT_TOL = 1e-12


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


def binary_kl(a: float, v: float) -> float:
    """Relative entropy of Bernoulli(a) from Bernoulli(v), in nats."""
    if not 0.0 <= a <= 1.0 or not 0.0 <= v <= 1.0:
        raise ValueError("arguments must lie in [0, 1]")
    a, v = float(a), float(v)
    return rel_entr(a, v) + rel_entr(1.0 - a, 1.0 - v)


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
    d(phat_coord, 1) = +inf.  The upper end of the final bracket is
    returned: d > t / n was checked there, so it is never below the root.
    Degenerate phat_coord = 1 returns 1.
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
    return CoordinateCI(coord=coord, upper=hi, t_used=t)


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
