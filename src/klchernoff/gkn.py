"""Polynomial family bounding the MGF of the multinomial relative-entropy statistic.

For alphabet size k and sample size n, the moment generating function of
n*D(phat || p) is bounded, uniformly over the true probability vector p, by
the degree-n polynomial

    G(lambda) = sum_{m=0}^{n}  n! / (n^m (n-m)!) * C(m+k-2, k-2) * lambda^m,

with G identically 1 for k = 1 or n = 0.  Coefficients are held in log form
so that shapes as large as k ~ 500, n ~ 10^6 evaluate without overflow; they
are built by walking the term ratio c_{m+1}/c_m = (1 - m/n)(1 + (k-2)/(m+1))
from c_0 = 1, which keeps log G within ~1e-15 relative of its exact value.
Since that ratio decreases in m, the terms of G(lambda) past their peak
shrink at least geometrically, at rate r_m * lambda.  Each table is cut at
the first index whose geometric tail bound at lambda = 1 falls to 2^-60, and
the same test marks a shorter prefix at each of the eight knots
lambda_j = j/8: an evaluation at lambda sums only the prefix of the first knot
lambda_j >= lambda and adds that knot's certified tail back, so log G is
rounded up, never down.  Where a knot's prefix is at least four times the one
below it, as on (7/8, 1] at (2, 10^6) (327 -> 9,602 terms), the evaluator
also keeps "rungs", prefixes of 2, 4, 8, ... times the lower knot's; a
single log G sums the first rung whose tail bound, taken at lambda itself,
is at most 2^-60, and adds that bound.  The walk runs in blocks of doubling
length and stops at the first block end past the lambda = 1 cut, so it
touches at most about twice the kept table, not all n ratios; a shape whose
cut lies past 2^25 terms is refused with a ValueError, before its table is
allocated.

One rule, :func:`_prefix`, gives the prefix of every log G.  The scalar
call and a batch of points apply it at each lambda; the public lambda grid
applies it once per knot group, at the group's largest lambda, whose
certified tail bounds every smaller lambda of the group as well.  The grid
is reduced in one work buffer per call and still sums each column in
sequence, where the scalar path sums pairwise; the two agree to within the
rounding of S, not bit for bit, so a lambda search uses the grid only to
locate basins.  The steps of many searches at once are summed one row a
point, each row pairwise, and a batch of one is the scalar call itself
(:func:`_log_eval_points`): every log G a search returns is
:func:`log_eval_gkn`'s pairwise sum.
Every sum of log-domain terms, here and in the bound factors and the
enumeration oracle, goes through the one :func:`logsumexp` reduction.

Everything here is immutable after construction and safe for concurrent use.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .special import log_upper_gamma_scaled

# Cap on temporary entries when evaluating on a lambda grid.
_CHUNK_ENTRIES = 8_000_000

# Cap on the terms of one buffer of :func:`_log_eval_points` (8 MiB).
_POINT_ENTRIES = 1 << 20

# Coefficients past the cut sum to at most this; a term that small cannot
# reach the last bit of log G, whose truncated sum is at least c_0 = 1.
_TAIL_MASS = 2.0**-60
_LOG_TAIL_MASS = math.log(_TAIL_MASS)

# Length of the first block of term ratios walked; each next block is twice
# as long.  The walk stops once the lambda = 1 cut lies behind it, so a table
# that keeps K terms walks at most 2K + _FIRST_BLOCK ratios, not all n.
_FIRST_BLOCK = 1024

# Most term ratios one walk takes (a table of 256 MiB).  A shape whose
# lambda = 1 cut lies past them is refused, before its table is allocated
# where a closed-form bound shows it (:func:`_check_table_size`), else when
# the walk gets there; (2, 10^12 + 1) keeps 10,302,599 terms.
_MAX_TERMS = 1 << 25

# An evaluation at lambda sums the prefix cut for the first knot >= lambda.
# More knots shorten that prefix, but each adds a group of NumPy calls to
# every grid evaluation, which small tables such as (6, 100) feel.
_KNOTS = tuple(j / 8 for j in range(1, 9))


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
    to M.  ``cuts[j] = (kept_j, tail_j)`` belongs to the knot
    lambda_j = (j + 1)/8: the terms c_i lambda_j^i for i >= kept_j sum to at
    most ``tail_j`` <= 2^-60, so for lambda in [0, lambda_j] the terms of G
    past ``log_coeffs[:kept_j]`` sum to at most
    ``tail_j * (lambda/lambda_j)**kept_j``.  kept_j is nondecreasing in j,
    and the last entry, for lambda = 1, is (M + 1, ``tail``): the table itself
    stops at the first M whose dropped coefficients c_{M+1} + ... + c_n sum
    to at most ``tail``.  At (50, 10^5) the kept_j are 53, 94, 153, 246,
    411, 764, 1,855 and 8,080.  Shapes that need every term keep all n + 1
    coefficients and ``tail = 0``.  For the degenerate shapes (k = 1 or
    n = 0) the polynomial is the constant 1 and a single zero
    log-coefficient is stored.  Evaluators compare and hash by identity.

    ``rungs[j]`` holds the rungs of the knot interval (lambda_{j-1}, lambda_j]:
    pairs (K, log r_K) for K = 2 kept_{j-1}, 4 kept_{j-1}, ... up to
    kept_j / 2, with r_K = c_{K+1}/c_K taken from the walk.  A rung is tried
    at lambda itself: if c_K lambda^K / (1 - r_K lambda), with c_K read from
    ``log_coeffs``, is at most 2^-60, the terms from K on sum to at most that,
    and log G sums ``log_coeffs[:K]`` alone.  Only intervals whose prefix at
    least quadruples have rungs: 654, 1,308 and 2,616 on (7/8, 1] at
    (2, 10^6), and 3,710 on (7/8, 1] at (50, 10^5); at (6, 100) and
    (436, 2029) every ``rungs[j]`` is empty.  The rungs copy no coefficient,
    so an evaluator with an edited table needs no other change.
    """

    shape: ExperimentShape
    log_coeffs: np.ndarray
    cuts: tuple[tuple[int, float], ...]
    rungs: tuple[tuple[tuple[int, float], ...], ...]

    @property
    def tail(self) -> float:
        """Bound on the coefficients dropped from the table (the lambda = 1 cut)."""
        return self.cuts[-1][1]


def _log_tail(log_c: float, log_r: float, i: int, log_lam: float) -> float:
    """log of the geometric bound on c_i lam^i + ... + c_n lam^n at
    lam = exp(``log_lam``), given log c_i and log r_i = log(c_{i+1}/c_i);
    +inf before the peak."""
    log_r += log_lam
    return log_c + i * log_lam - math.log(-math.expm1(log_r)) if log_r < 0.0 else math.inf


def _cut(log_coeffs: np.ndarray, log_ratio: np.ndarray, log_lam: float) -> tuple[int, float]:
    """(K, tail) for the shortest prefix ``log_coeffs[:K]`` whose dropped terms
    c_i lam^i, i >= K, sum to at most ``tail <= _TAIL_MASS`` at
    lam = exp(``log_lam``); (``log_coeffs.size``, 0.0) if none.

    ``log_ratio[i]`` is log(c_{i+1}/c_i).  The arrays are either the whole walk,
    n + 1 coefficients and n ratios, where r_n = 0 ends the polynomial, or
    prefixes of equal length whose last index already passes the test.
    """
    n = log_ratio.size

    def log_tail(i: int) -> float:
        return _log_tail(float(log_coeffs[i]), float(log_ratio[i]) if i < n else -math.inf, i, log_lam)

    # The test is false up to the peak of c_i lam^i; past it both c_i lam^i and
    # 1/(1 - r_i lam) fall, so it turns true once and stays true, and
    # bisection finds it.
    kept = 1 + bisect.bisect_left(range(1, log_coeffs.size), True, key=lambda i: log_tail(i) <= _LOG_TAIL_MASS)
    return (kept, math.exp(log_tail(kept))) if kept < log_coeffs.size else (kept, 0.0)


def _too_large(k: int, n: int) -> ValueError:
    return ValueError(
        f"shape k={k}, n={n} is too large: its coefficient table would need more than {_MAX_TERMS:,} terms"
    )


def _check_table_size(k: int, n: int) -> None:
    """Refuse the shape if its lambda = 1 cut provably lies past
    ``_MAX_TERMS``, without walking it.

    For j/n <= 1/2, log(1 - j/n) >= -j/n - (j/n)^2, so at m = ``_MAX_TERMS``
    <= n/2, log c_m >= log C(m+k-2, k-2) - sum_{j<m} (j/n + (j/n)^2).  If
    that exceeds log 2^-60, the term c_m alone is above the tail mass, the
    test of :func:`_cut` fails at m and at every index before it, and the
    cut lies past m.  Smaller n are left to the walk's own stop.
    """
    m = _MAX_TERMS
    if 2 * m > n:
        return
    log_binom = math.lgamma(m + k - 1) - math.lgamma(m + 1) - math.lgamma(k - 1)
    sum_j, sum_j2 = m * (m - 1) / 2, (m - 1) * m * (2 * m - 1) / 6
    if log_binom - sum_j / n - sum_j2 / n / n > _LOG_TAIL_MASS:
        raise _too_large(k, n)


def _walk(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-coefficients and log-ratios of the shape, walked in blocks of
    doubling size until the lambda = 1 test of :func:`_cut` holds at the last
    index of a block; then both arrays end at that index.  Shapes that need
    every term walk to the end: n + 1 coefficients and n ratios.  The walk
    takes at most ``_MAX_TERMS`` ratios and raises a ValueError if the test
    has not held by then."""
    coeffs, ratios = [np.zeros(1)], []
    hi, size = 0, _FIRST_BLOCK
    while hi < n:
        lo, hi, size = hi, min(n, hi + size, _MAX_TERMS), 2 * size
        j = np.arange(lo, hi, dtype=float)
        log_ratio = np.log1p(-j / n) + np.log1p((k - 2) / (j + 1.0))
        # seeded with c_lo, cumsum continues the one sequential sum over all
        # blocks, so each coefficient carries the bits of an unblocked walk
        block = np.concatenate((coeffs[-1][-1:], log_ratio))
        np.cumsum(block, out=block)
        coeffs.append(block[1:])
        ratios.append(log_ratio)
        if hi < n:
            if _log_tail(float(block[-2]), float(log_ratio[-1]), hi - 1, 0.0) <= _LOG_TAIL_MASS:
                return np.concatenate(coeffs)[:hi], np.concatenate(ratios)
            if hi == _MAX_TERMS:
                raise _too_large(k, n)
    return np.concatenate(coeffs), np.concatenate(ratios)


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
    terms at (2, 10^6), 1,710 of 2,030 at (436, 2029).  The same test at each
    knot lambda_j = j/8 gives the shorter prefixes in ``cuts``: at
    lambda = 1/2, 61 terms at (2, 10^6) and 246 of 8,080 at (50, 10^5).

    The ratios are walked in blocks of 1,024, 2,048, 4,096, ... terms, each
    block's cumulative sum seeded with the last coefficient of the one before,
    so every coefficient is the same sequential sum as in one unblocked walk.
    The walk stops at the first block end where the lambda = 1 test already
    holds; the test is false up to the peak and true after it, so the cuts
    bisected inside that prefix are those of the whole table.  (2, 10^6)
    walks 15,360 ratios, not 10^6; shapes that keep every term walk to n.

    Inside a knot interval whose prefix grows from kept_{j-1} to kept_j >=
    4 kept_{j-1}, the rungs K = 2^i kept_{j-1} <= kept_j / 2, i >= 1, are
    stored with the walk's log r_K (see :class:`GknEvaluator`).

    A shape whose lambda = 1 cut lies past ``_MAX_TERMS`` = 2^25 terms
    raises a ValueError naming it: before the walk where a closed-form bound
    on c_{2^25} shows it (:func:`_check_table_size`; (2, 10^15) and larger
    at k = 2), else once the walk has taken 2^25 ratios.
    """
    k, n = shape.k, shape.n
    if k == 1 or n == 0:
        log_coeffs = np.zeros(1)
        cuts = [(1, 0.0)] * len(_KNOTS)
        rungs = [()] * len(_KNOTS)
    else:
        _check_table_size(k, n)
        log_coeffs, log_ratio = _walk(k, n)
        cuts = [_cut(log_coeffs, log_ratio, math.log(knot)) for knot in _KNOTS]
        # (0, 1/8] has no lower knot to double
        rungs = [()] + [
            tuple((lo << i, float(log_ratio[lo << i])) for i in range(1, 64) if lo << (i + 1) <= hi)
            for (lo, _), (hi, _) in zip(cuts, cuts[1:])
        ]
        log_coeffs = log_coeffs[: cuts[-1][0]].copy()
    log_coeffs.flags.writeable = False
    return GknEvaluator(shape=shape, log_coeffs=log_coeffs, cuts=tuple(cuts), rungs=tuple(rungs))


def _check_unit_interval(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")


def logsumexp(terms: np.ndarray, out: np.ndarray | None = None, axis: int = 0):
    """log(sum(exp(terms))) over ``axis``, the first or the last, shifted by
    the maximum so that no term overflows.  Entries of -inf contribute
    nothing; each line reduced needs at least one finite entry.  The shifted
    exponentials are written to ``out`` if given (``terms`` itself may be
    passed), else to a new array."""
    peak = terms.max(axis=axis)
    shifted = np.subtract(terms, peak if axis == 0 else peak[..., None], out=out)
    return peak + np.log(np.exp(shifted, out=shifted).sum(axis=axis))


def _prefix(ev: GknEvaluator, lam: float) -> tuple[int, float]:
    """(K, tail): the prefix a log G at ``lam`` in (0, 1] sums, and the bound
    on the terms c_i lam^i, i >= K, that it adds back.

    K is the first rung of the knot interval holding ``lam`` whose tail bound
    at ``lam`` is at most 2^-60, and that bound; else the knot's cut,
    (kept_j, tail_j * (lam/lambda_j)**kept_j).
    """
    j = bisect.bisect_left(_KNOTS, lam)
    for rung, log_r in ev.rungs[j]:
        log_tail = _log_tail(float(ev.log_coeffs[rung]), log_r, rung, math.log(lam))
        if log_tail <= _LOG_TAIL_MASS:
            return rung, math.exp(log_tail)
    kept, tail = ev.cuts[j]
    return kept, tail * (lam / _KNOTS[j]) ** kept


def log_eval_gkn(ev: GknEvaluator, lam: float) -> float:
    """Natural log of the polynomial at ``lam`` in [0, 1] (log-sum-exp).

    Returns ``log S + tail``, where S sums the first K terms and (K, tail) is
    the prefix of :func:`_prefix`: the first rung of the knot interval
    holding ``lam`` whose tail bound, certified at ``lam`` itself, is at most
    2^-60, else the cut (kept_j, tail_j) of the first knot lambda_j >=
    ``lam`` with ``tail = tail_j * (lam/lambda_j)**kept_j``.  The dropped
    terms add at most ``tail`` to S >= 1, so the result is never below the
    exact log G (up to the rounding of S).  At (2, 10^6), lambda in
    (7/8, 1] sums 654, 1,308 or 2,616 terms where its rung passes, and the
    whole table of 9,602 plus ``tail * lam**9602`` where none does, as at
    lambda = 1.
    """
    _check_unit_interval(lam)
    if lam == 0.0 or ev.log_coeffs.size == 1:
        return 0.0
    kept, tail = _prefix(ev, lam)
    terms = np.arange(kept, dtype=float)
    terms *= math.log(lam)
    terms += ev.log_coeffs[:kept]
    return float(logsumexp(terms, out=terms)) + tail


def eval_gkn(ev: GknEvaluator, lam: float) -> float:
    """Polynomial value at ``lam`` in [0, 1]; exactly 1 at lam = 0."""
    return math.exp(log_eval_gkn(ev, lam))


def log_eval_gkn_grid(ev: GknEvaluator, lams: np.ndarray) -> np.ndarray:
    """Vectorized ``log_eval_gkn`` over a 1-d grid of lambda values.  The
    columns are grouped by knot interval, and each group sums the prefix
    that :func:`_prefix` certifies at its largest lambda, lambda_top: the
    rule of :func:`log_eval_gkn`, rungs included.  For lambda <= lambda_top
    the dropped terms sum to at most ``tail * (lambda/lambda_top)**K``, which
    each column adds back, so no value is below the exact log G beyond the
    rounding of S.

    Each group is reduced in column chunks of at most ``_CHUNK_ENTRIES``
    terms, all in one work buffer per call sized from the groups' prefixes.
    The reduction runs down axis 0, which sums each column in sequence (a
    lone column pairwise), with a rounding error of up to ~K units in the
    last place of S.  The 1-d sum of :func:`log_eval_gkn` is pairwise, so the
    two paths can differ in the last bits.
    """
    arr = np.asarray(lams, dtype=float)
    if arr.ndim != 1:
        raise ValueError("lambda grid must be one-dimensional")
    if not ((arr >= 0.0) & (arr <= 1.0)).all():  # NaN fails both tests
        raise ValueError("lambda grid must lie in [0, 1]")
    out = np.zeros(arr.size)
    if ev.log_coeffs.size == 1:
        return out
    nz = np.flatnonzero(arr > 0.0)
    lams_nz = arr[nz]
    knot_of = np.searchsorted(_KNOTS, lams_nz)
    # the largest lambda of each knot interval, 0 where it holds none
    tops = np.zeros(len(_KNOTS))
    np.maximum.at(tops, knot_of, lams_nz)
    present = np.flatnonzero(tops)
    groups = [nz[knot_of == j] for j in present]
    tops = tops[present].tolist()
    prefixes = [_prefix(ev, top) for top in tops]
    cols_per_chunk = [max(1, _CHUNK_ENTRIES // kept) for kept, _ in prefixes]
    sizes = [kept * min(group.size, cols) for group, (kept, _), cols in zip(groups, prefixes, cols_per_chunk)]
    work = np.empty(max(sizes, default=0))
    m = np.arange(max((kept for kept, _ in prefixes), default=0), dtype=float)[:, None]
    for group, top, (kept, tail), cols in zip(groups, tops, prefixes, cols_per_chunk):
        lc = ev.log_coeffs[:kept, None]
        for start in range(0, group.size, cols):
            idx = group[start : start + cols]
            lams_chunk = arr[idx]
            terms = work[: kept * idx.size].reshape(kept, idx.size)
            np.multiply(m[:kept], np.log(lams_chunk)[None, :], out=terms)
            np.add(lc, terms, out=terms)
            out[idx] = logsumexp(terms, out=terms) + tail * (lams_chunk / top) ** kept
    return out


def _log_eval_points(ev: GknEvaluator, lams: list[float]) -> list[float]:
    """:func:`log_eval_gkn` at each float of ``lams``, bit for bit; the
    points are trusted to lie in [0, 1].  A batch of one is served by
    :func:`log_eval_gkn` itself, whose one pairwise sum costs fewer NumPy
    calls than a buffer of one row.

    Each point takes its prefix K and tail from :func:`_prefix`, as there: a
    rung whose tail is certified at the point itself, else its knot's cut.
    Points are grouped by K, so knots and rungs that keep the same prefix
    share a group.  Each group is summed in one work buffer per call, as
    ``(points, K)`` terms, one row a point, at most ``_POINT_ENTRIES`` terms
    at a time, and reduced along the contiguous axis: NumPy sums each row
    pairwise, as it sums the 1-d prefix of the scalar path.  The log of each
    point and its tail are taken with ``math.log``, ``math.exp`` and float
    ``**``, point by point, as there; NumPy's vector log and power can differ
    from them in the last bit.  Until its sum is added, each point's slot of
    the output holds its tail, so the batch keeps no other per-point record
    than the index lists of its groups.
    """
    if len(lams) == 1:
        return [log_eval_gkn(ev, lams[0])]
    out = [0.0] * len(lams)
    if ev.log_coeffs.size == 1:
        return out
    groups: dict[int, list[int]] = {}
    for i, lam in enumerate(lams):
        if lam > 0.0:
            kept, out[i] = _prefix(ev, lam)
            groups.setdefault(kept, []).append(i)
    rows = {kept: max(1, _POINT_ENTRIES // kept) for kept in groups}
    work = np.empty(max((min(rows[kept], len(group)) * kept for kept, group in groups.items()), default=0))
    for kept, group in groups.items():
        m = np.arange(kept, dtype=float)
        for start in range(0, len(group), rows[kept]):
            idx = group[start : start + rows[kept]]
            block = work[: len(idx) * kept].reshape(len(idx), kept)
            terms = np.multiply.outer([math.log(lams[i]) for i in idx], m, out=block)
            terms += ev.log_coeffs[:kept]
            for i, log_s in zip(idx, logsumexp(terms, out=terms, axis=-1).tolist()):
                out[i] = log_s + out[i]
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

    Evaluates n^-n lam^n e^(n/lam) Gamma(n+1, n/lam) = z e^z z^-(n+1)
    Gamma(n+1, z) with z = n/lam, in log domain through the scaled
    incomplete gamma, so no terms of size n log n cancel; an independent
    cross-check of :func:`eval_gkn` at k = 2.  Singular at lam = 0, where the
    plain polynomial evaluation should be used instead.
    """
    if n < 1:
        raise ValueError(f"sample size n must be >= 1, got {n}")
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    z = n / lam
    return math.exp(math.log(z) + log_upper_gamma_scaled(n + 1.0, z))


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
