"""Simplex confidence bounds from a deviation level.

Turns a deviation level t into an upper confidence bound for a single
simplex coordinate via the divergence-ball confidence region
{p : n * D(phat || p) <= t}.  A confidence level alpha becomes a deviation
level through :func:`klchernoff.bounds.critical_value`.

In one coordinate the ball's edge is the root v* of n d(a, v) = t above the
coordinate's empirical value a, with d the binary relative entropy of
:func:`binary_kl`.  :func:`_ball_upper` solves it directly: d(a, .) is
convex and increasing on (a, 1), so Newton steps from outside the ball and
two lines from the left bracket v*, and the solve stops once that bracket
is within a quarter of ``KL_ROOT_TOL`` relative to the root, in 2-7
evaluations of d.  The bound it returns is never below v*, at most
KL_ROOT_TOL/2 of v* above it, and outside the ball by :func:`binary_kl`,
which a caller can re-check.
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
    """Relative entropy d(a, v) of Bernoulli(a) from Bernoulli(v), in nats.

    For a, v < 1 the second term is (1 - a) log1p((v - a)/(1 - v)), accurate
    relative to v - a, and the sum is clamped at 0, which its rounding can
    cross a few ulp apart.  The ball solver reads this d, so its answers
    re-check with it.
    """
    if not 0.0 <= a <= 1.0 or not 0.0 <= v <= 1.0:
        raise ValueError("arguments must lie in [0, 1]")
    a, v = float(a), float(v)
    if a == 1.0 or v == 1.0:
        return rel_entr(a, v) + rel_entr(1.0 - a, 1.0 - v)
    return max(rel_entr(a, v) + (1.0 - a) * math.log1p((v - a) / (1.0 - v)), 0.0)


def _above(v: float) -> float:
    """v raised by a quarter of ``KL_ROOT_TOL``, relative, and by one float at least."""
    return max(v + 0.25 * KL_ROOT_TOL * v, math.nextafter(v, 1.0))


def _ball_upper(a: float, n: int, t: float) -> float:
    """The upper end of the ball n d(a, v) <= t in one coordinate, 0 <= a < 1.

    The solve keeps lo <= v* <= hi, with hi a point checked outside the ball
    (n d > t).  It starts from the least of three upper bounds on v*, from
    d(a, v) >= (v - a)^2/(2v), from d(a, v) >= (v - a)^2/(2 max s(1 - s))
    over s in [a, v] (Pinsker's 2(v - a)^2 below a = 1/2) and from
    d(a, v) >= -H(a) - (1 - a) log(1 - v); at a = 0 the last is the root
    itself, -expm1(-t/n).  d(a, .) is convex and increasing on (a, 1), so a
    Newton step from either side of v* lands at or above it, and two lines
    from hi never rise above it: the chord from (a, -t/n) and the line with
    the slope at lo.  A point inside the ball, from the start or from
    rounding, becomes lo, and the next point is at least a quarter of
    ``KL_ROOT_TOL`` above it.  At hi <= lo (1 + KL_ROOT_TOL/4) the solve stops
    and returns hi raised by another quarter, checked outside the ball by
    :func:`binary_kl`: upper exceeds v* by a quarter to a half of
    ``KL_ROOT_TOL``, relative, a clearance that keeps the rounding of d from
    putting it back inside.
    """
    c = t / n
    neg_entropy = rel_entr(a, 1.0) + (1.0 - a) * math.log1p(-a)
    x = min(
        a + c + math.sqrt(c) * math.sqrt(c + 2.0 * a),
        a + math.sqrt(2.0 * c * (a * (1.0 - a) if a >= 0.5 else 0.25)),
        -math.expm1((neg_entropy - c) / (1.0 - a)),
        math.nextafter(1.0, 0.0),
    )
    lo, hi = a, 1.0
    while True:
        d = binary_kl(a, x)
        if n * d > t:
            hi = x
            lo = max(lo, a + (hi - a) * (c / d))
            if lo > a:
                lo = max(lo, hi - (d - c) * (lo * (1.0 - lo) / (lo - a)))
        else:
            lo = x
        if hi <= _above(lo):
            break
        x = x - (d - c) * (x * (1.0 - x) / (x - a)) if x > a else lo
        x = max(min(x, math.nextafter(hi, 0.0)), _above(lo))
    upper = min(_above(hi), 1.0)
    while not n * binary_kl(a, upper) > t:
        upper = math.nextafter(upper, 1.0)
    return upper


def coord_upper_bound(
    phat: ProbVector, shape: ExperimentShape, coord: int, t: float
) -> CoordinateCI:
    """Largest value of coordinate ``coord`` on the divergence ball
    {p : n * D(phat || p) <= t}.

    For fixed p_coord = v, spreading the remaining mass 1 - v over the other
    coordinates proportionally to phat minimizes their divergence
    contribution (log-sum inequality), so the ball constraint collapses to
    the binary relative entropy d(phat_coord, v) <= t / n.  The answer is the
    root v* of n * d(phat_coord, v) = t on [phat_coord, 1], solved by
    :func:`_ball_upper` to ``KL_ROOT_TOL`` relative to the root: it is never
    below v*, exceeds it by at most 1e-12 of v*, and n * binary_kl(phat_coord,
    upper) > t holds there unless upper is 1, which a caller can re-check.
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
    if t / shape.n < math.ldexp(1.0, -1022):
        raise ValueError(f"deviation level t={t} is too small at n={shape.n}: t/n is below the least normal float")
    a = phat.probs[coord - 1]
    upper = 1.0 if a >= 1.0 else _ball_upper(a, shape.n, t)
    return CoordinateCI(coord=coord, upper=upper, t_used=t)


def unseen_upper_bound(table: FrequencyTable, alpha: float) -> CoordinateCI:
    """Upper confidence bound on the total probability of unseen categories.

    Appends exactly one unseen category (count zero) to the observed
    alphabet, inverts the exact bound at level alpha, and takes the unseen
    coordinate's edge of the resulting divergence ball: with phat = 0 there
    the root is -expm1(-t/n) in closed form, which :func:`_ball_upper` starts
    from, so only the ball's tolerance is added to it.  As for
    :func:`coord_upper_bound`, n * binary_kl(0, upper) > t re-checks it.
    """
    shape = ExperimentShape(table.k_observed + 1, table.n)
    t = critical_value(CriticalValueQuery(shape=shape, alpha=alpha, method="exact"))
    return CoordinateCI(coord=shape.k, upper=_ball_upper(0.0, shape.n, t), t_used=t, alpha=alpha)
