"""Upper bounds on P(n*D(phat || p) > t) for multinomial sampling, and their
inverses.

Each method is evaluated at a threshold t, and inverted into the critical
value t(alpha) where it equals a target level alpha.

All bound arithmetic happens in log domain and is clamped to 1 only on the
probability scale: at t around 500 the linear-domain product of exp(-t) with
a huge combinatorial factor would underflow or overflow double precision.

The exact bound and its inverse come from one lambda search,
:func:`_lambda_min`, which takes many t (or alpha) of one shape at once.  The
polynomial depends on the shape only and t enters the objective linearly, so
the 512-point grid of log G is computed once per call and the refinements of
all thresholds run in lockstep.  The grid only locates basins: every log G a
search returns is :func:`gkn.log_eval_gkn`'s pairwise sum, so each exact
bound is ``log_eval_gkn(lambda) - lambda t`` bit for bit at the lambda it
reports, and a critical value the dual of that.  :func:`chernoff_exact_many`
gives the exact bound at many t for the price of one grid (``sweep`` and
``verify`` use it); :func:`chernoff_exact` is a batch of one.

Three shape constants are computed once per (k, n) and cached, 128 shapes
each: log G(1), the full lambda = 1 sum (``_log_g_one``), and log C_T and
log C_M (:func:`log_types_factor` and :func:`log_mardia_factor` themselves).
Every reader takes them from there: the ``lambda_one``,
``types`` and ``mardia`` bounds and critical values, a ``corrected`` lambda
clamped at 1, the exact search's lambda = 1 end, the plug-in inversion's
bracket and :func:`meaningful_threshold`.  So a run of queries at one shape
sums the lambda = 1 table once, not once a query.

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

from .gkn import (
    ExperimentShape,
    GknEvaluator,
    _log_eval_points,
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
REFERENCE_METHODS = ("asymp_gamma",)
ALL_METHODS = BOUND_METHODS + REFERENCE_METHODS

GRID_POINTS = 512
REFINE_TOL = 1e-12
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LAMBDA_GRID = np.linspace(0.0, 1.0, GRID_POINTS)
_LAMBDA_GRID.flags.writeable = False
# the grid with its ends repeated: entries j and j + 2 bracket grid point j
_WALLED_GRID = np.concatenate(([0.0], _LAMBDA_GRID, [1.0]))
# Parameters (t or log alpha) searched together; bounds the search's buffers
# at ~1 MiB of objective values a chunk, whatever the batch size.
_PARAM_CHUNK = 256
CRITICAL_REL_TOL = 1e-9
_MAX_ROOT_STEPS = 500


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


@lru_cache(maxsize=128)
def _log_g_one(k: int, n: int) -> float:
    """log G(1), the combinatorial factor of the lambda = 1 form; a shape
    constant, computed once per shape."""
    return log_eval_gkn(_evaluator(k, n), 1.0)


def _require_shape(shape: ExperimentShape) -> tuple[int, int]:
    k, n = shape.k, shape.n
    if k < 2:
        raise ValueError("tail bounds require k >= 2")
    if n < 1:
        raise ValueError("tail bounds require n >= 1")
    return k, n


def _golden_steps(a: float, b: float):
    """Golden-section search for a minimum on [a, b], to interval width
    ``REFINE_TOL``, as a coroutine: it yields each point to evaluate, is sent
    the objective there, and returns (min, argmin)."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = yield c
    fd = yield d
    while (b - a) > REFINE_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = yield d
    return (fc, c) if fc <= fd else (fd, d)


def _lambda_min(k: int, n: int, phi, params: list[float]) -> list[tuple[float, float]]:
    """(min, argmin) over lambda in [0, 1] of phi(lambda, log G(lambda), p),
    for each p of ``params``.

    The one lambda search of the package.  ``phi`` takes floats, and arrays
    that broadcast.  ``log G`` on the 512-point ``_LAMBDA_GRID`` depends on
    the shape only, so it is computed once for all params, which are then
    searched ``_PARAM_CHUNK`` at a time (:func:`_search_chunk`), so memory is
    bounded whatever their number.
    """
    ev = _evaluator(k, n)
    # log G between +inf walls at lambda = 0 and 1 makes the objective +inf
    # there, so the ends of the grid need no test of their own
    walled_log_g = np.concatenate(([np.inf], log_eval_gkn_grid(ev, _LAMBDA_GRID), [np.inf]))
    # the grid only locates basins; lambda = 1, a candidate, takes the scalar
    # bits, from the shape's cached log G(1)
    walled_log_g[-2] = _log_g_one(k, n)
    found = []
    for start in range(0, len(params), _PARAM_CHUNK):
        found += _search_chunk(ev, phi, walled_log_g, params[start : start + _PARAM_CHUNK])
    return found


def _search_chunk(ev: GknEvaluator, phi, walled_log_g: np.ndarray, chunk: list[float]) -> list[tuple[float, float]]:
    """The search of :func:`_lambda_min` for the params of ``chunk``.

    The objective of each param on the grid isolates every basin: a grid
    point no higher than its neighbours, an end no higher than its one
    neighbour.  Golden-section refinement resolves each basin to 1e-12, the
    searches of all basins in lockstep, in one loop: each round evaluates
    their points with one call of :func:`gkn._log_eval_points`, which gives
    ``log_eval_gkn``'s pairwise sum bit for bit, so each result is that of a
    search for its param alone.  The grid only locates basins; every value
    returned is ``log_eval_gkn``'s.  Refinement evaluates only interior
    points, so a ``phi`` that is +inf at lambda = 0 excludes that point.
    """
    walled = phi(_WALLED_GRID, walled_log_g, np.array(chunk)[:, None])
    obj = walled[:, 1:-1]
    owner, j = np.nonzero((obj <= walled[:, :-2]) & (obj <= walled[:, 2:]))
    # basin j is bracketed by its neighbours, or by an end of [0, 1]
    brackets = zip(owner.tolist(), _WALLED_GRID[j].tolist(), _WALLED_GRID[j + 2].tolist())
    candidates = [[(f0, 0.0), (f1, 1.0)] for f0, f1 in zip(obj[:, 0].tolist(), obj[:, -1].tolist())]
    # each round evaluates the points of every live search in one kernel
    # call; a finished search leaves None and is dropped
    live = [(chunk[i], _golden_steps(a, b), i) for i, a, b in brackets]
    points = [search.send(None) for _, search, _ in live]
    while live:
        log_gs = _log_eval_points(ev, points)
        for s, (param, search, i) in enumerate(live):
            try:
                points[s] = search.send(phi(points[s], log_gs[s], param))
            except StopIteration as done:
                candidates[i].append(done.value)
                points[s] = None
        if None in points:
            live = [entry for entry, lam in zip(live, points) if lam is not None]
            points = [lam for lam in points if lam is not None]
    return [min(found) for found in candidates]


def _chernoff_objective(lam, log_g, t):
    return log_g - lam * t


def chernoff_exact(q: TailQuery) -> BoundResult:
    """Tightest bound: minimize exp(-lambda t) G(lambda) over lambda in [0, 1];
    :func:`chernoff_exact_many` of the one threshold."""
    (result,) = chernoff_exact_many(q.shape, [q.t])
    return result


def chernoff_exact_many(shape: ExperimentShape, ts) -> list[BoundResult]:
    """The exact bound at every threshold of ``ts`` from one search,
    :func:`_lambda_min`, which finds the least of the local minima of
    log G(lambda) - lambda t.  Each ``log_value`` is ``log_eval_gkn`` at
    ``lambda_used`` minus ``lambda_used * t``, bit for bit.  Each t must be a
    valid :class:`TailQuery` threshold."""
    ts = [TailQuery(shape, float(t)).t for t in ts]
    k, n = _require_shape(shape)
    return [_make_result("exact", v, lam) for v, lam in _lambda_min(k, n, _chernoff_objective, ts)]


def defined_at(method: str, k: int, t: float) -> bool:
    """Whether ``method`` has a bound at threshold t for alphabet size k.

    False only for the plug-in methods at t <= k - 1, where their closed-form
    lambda falls outside (0, 1].
    """
    return method not in ("corrected", "uncorrected") or t > k - 1


def _require_above_line(q: TailQuery, method: str) -> tuple[int, int]:
    k, n = _require_shape(q.shape)
    if not defined_at(method, k, q.t):
        raise ValueError(
            f"plug-in lambda requires t > k - 1 (t={q.t}, k={q.shape.k}); "
            "use chernoff_exact for smaller thresholds"
        )
    return k, n


def _chernoff_at(method: str, q: TailQuery, lam: float) -> BoundResult:
    """The Chernoff form exp(-lambda t) G(lambda) at one given lambda; at
    lambda = 1, log G is the shape's cached constant."""
    k, n = q.shape.k, q.shape.n
    log_g = _log_g_one(k, n) if lam == 1.0 else log_eval_gkn(_evaluator(k, n), lam)
    return _make_result(method, log_g - lam * q.t, lam)


def chernoff_uncorrected(q: TailQuery) -> BoundResult:
    """Closed-form bound from the limit minimizer lambda = 1 - (k-1)/t."""
    k, _ = _require_above_line(q, "uncorrected")
    return _chernoff_at("uncorrected", q, 1.0 - (k - 1) / q.t)


def chernoff_corrected(q: TailQuery) -> BoundResult:
    """Closed-form bound with the first-order 1/n correction to the minimizer.

    Uses lambda = min(1 - (k-1)/t + (k/(k-1)) (t-k+1)/n, 1).
    """
    k, n = _require_above_line(q, "corrected")
    lam = min(1.0 - (k - 1) / q.t + (k / (k - 1.0)) * (q.t - k + 1) / n, 1.0)
    return _chernoff_at("corrected", q, lam)


def lambda_one_bound(q: TailQuery) -> BoundResult:
    """Combinatorial-factor form G(1) exp(-t)."""
    _require_shape(q.shape)
    return _chernoff_at("lambda_one", q, 1.0)


@lru_cache(maxsize=128)
def log_types_factor(k: int, n: int) -> float:
    """log C(n+k-1, k-1), the number of possible empirical types.

    Summed as log C(m+j, j) = sum_{i=1}^{j} log1p(m/i) with j = min(k-1, n)
    and m = max(k-1, n); no term cancels, so the result is accurate to a
    few ulps even at n = 10^6.  A shape constant: computed once per shape
    (128 shapes cached).
    """
    j, m = sorted((k - 1, n))
    return float(np.sum(np.log1p(m / np.arange(1.0, j + 1.0))))


@lru_cache(maxsize=128)
def log_mardia_factor(k: int, n: int) -> float:
    """log of C_M(k, n) = (12/pi) sum_{i=0}^{k-2} K_{i-1} (e sqrt(n) / 2 pi)^i.

    The constants follow K_{-1} = 1, K_0 = pi, and K_i = K_{i-2} * 2 pi / i;
    the products are accumulated iteratively in log domain since K_i grows
    quickly with i.  A shape constant: computed once per shape (128 shapes
    cached), so ``mardia`` at (436, 2029) costs a lookup, not ~0.15 ms.
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


# log F of each method whose bound is F exp(-t); read by the bounds and their inverse
_LOG_FACTORS = {"lambda_one": _log_g_one, "types": log_types_factor, "mardia": log_mardia_factor}


def _factor_form(method: str, q: TailQuery) -> BoundResult:
    """The factor form F exp(-t), with F the method's entry in ``_LOG_FACTORS``."""
    k, n = _require_shape(q.shape)
    return _make_result(method, _LOG_FACTORS[method](k, n) - q.t)


def types_bound(q: TailQuery) -> BoundResult:
    """Type-counting bound C(n+k-1, k-1) exp(-t)."""
    return _factor_form("types", q)


def mardia_bound(q: TailQuery) -> BoundResult:
    """Comparison bound C_M(k, n) exp(-t) built from the factor alone."""
    return _factor_form("mardia", q)


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
    k, n = _require_shape(shape)
    return min(_log_g_one(k, n), float(k - 1))


_DISPATCH = {
    "exact": chernoff_exact,
    "corrected": chernoff_corrected,
    "uncorrected": chernoff_uncorrected,
    "lambda_one": lambda_one_bound,
    "types": types_bound,
    "mardia": mardia_bound,
    "agrawal_limit": agrawal_limit_bound,
    "asymp_gamma": lambda q: _make_result("asymp_gamma", log_asymp_gamma_tail(q.shape.k, q.t)),
}


def evaluate_bound(method: str, q: TailQuery) -> BoundResult:
    """Evaluate one bound method (or the gamma reference) on a query."""
    try:
        fn = _DISPATCH[method]
    except KeyError:
        raise ValueError(f"unknown bound method {method!r}; expected one of {ALL_METHODS}") from None
    return fn(q)


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


def _dual_objective(lam, log_g, log_alpha):
    return (log_g - log_alpha) / lam


def critical_value(q: CriticalValueQuery) -> float:
    """The deviation t* where the chosen bound equals alpha.

    exact: t* = min over lambda in (0, 1] of (log G(lambda) - log alpha) / lambda,
    the dual of the bound's own minimization, solved by the same search,
    :func:`_lambda_min`.
    lambda_one, types, mardia: the bound is F exp(-t), so t* = log F - log alpha,
    stepped up float by float until the evaluated bound is at most alpha.
    corrected, uncorrected, agrawal_limit: each bound tends to 1 as t -> (k-1)+
    and is below alpha at log G(1) + 2(k-1) - 2 log alpha; a bracketed secant
    solve between them (:func:`_invert_plug_in`) returns only a t* with
    alpha - 1e-9 * alpha <= bound(t*) <= alpha, in 6-10 bound evaluations
    where bisection took 29-38.  A ValueError naming the method and the shape
    says that the bracket failed.
    """
    k, n = _require_shape(q.shape)
    log_alpha = math.log(q.alpha)
    if q.method == "exact":
        # log G(0) - log alpha > 0, so lambda = 0 gives +inf and is excluded
        with np.errstate(divide="ignore"):
            return _lambda_min(k, n, _dual_objective, [log_alpha])[0][0]
    if q.method in _LOG_FACTORS:
        # the rounding of exp(log F - t) can put the bound a few ulp above
        # alpha; step t up to the first float where it is not.  The bound is
        # the one the method's own evaluation gives, from one log F.
        log_factor = _LOG_FACTORS[q.method](k, n)
        t = log_factor - log_alpha
        while _make_result(q.method, log_factor - t).value > q.alpha:
            t = math.nextafter(t, math.inf)
        return t

    return _invert_plug_in(q, k - 1.0, _log_g_one(k, n) + 2.0 * (k - 1) - 2.0 * log_alpha)


def _invert_plug_in(q: CriticalValueQuery, lo: float, hi: float) -> float:
    """A t in (lo, hi] with alpha(1 - 1e-9) <= bound(t) <= alpha, for a method
    whose bound tends to 1 as t -> lo+ and is at most alpha at hi.

    Anderson-Bjorck's regula falsi on g(t) = sqrt(-log bound(t)) - s, with s^2
    = -log alpha - log(1 - 5e-10), the middle of the acceptance window in log
    space: -log bound grows like (t - lo)^2 near lo and like t far above it,
    so g is close to linear, and a secant step aimed at the middle of the
    window, not at alpha, its conservative edge, lands inside it.  g(lo) = -s
    is the limit, not an evaluation.  A step that leaves the bracket is
    replaced by its midpoint.  Each t is judged by the clamped value of
    :func:`evaluate_bound`, as the caller will judge it.
    """
    tol = CRITICAL_REL_TOL * q.alpha
    s = math.sqrt(-math.log(q.alpha) - math.log1p(-0.5 * CRITICAL_REL_TOL))
    where = f"{q.method!r} at k={q.shape.k}, n={q.shape.n}, alpha={q.alpha!r}"
    t = hi
    result = evaluate_bound(q.method, TailQuery(q.shape, t))
    if result.value > q.alpha:
        raise ValueError(f"cannot invert {where}: the bound at the bracket's upper end t={hi!r} is above alpha")
    g_lo, side = -s, 0
    for _ in range(_MAX_ROOT_STEPS):
        if q.alpha - tol <= result.value <= q.alpha:
            return t
        g = math.sqrt(max(-result.log_value, 0.0)) - s
        # when one end moves twice running, the other end's g is scaled down
        # (Anderson-Bjorck), so the secant does not stall against it
        if result.value > q.alpha:
            if side < 0:
                g_hi *= 1.0 - g / g_lo if g > g_lo else 0.5
            lo, g_lo, side = t, g, -1
        else:
            if side > 0:
                g_lo *= 1.0 - g / g_hi if g < g_hi else 0.5
            hi, g_hi, side = t, g, 1
        t = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        result = evaluate_bound(q.method, TailQuery(q.shape, t))
    raise ValueError(f"cannot invert {where}: no t in the bracket has its bound in the window")
