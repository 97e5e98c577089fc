import hashlib
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from scipy import integrate, optimize

from klchernoff import gkn
from klchernoff.gkn import (
    ExperimentShape,
    build_evaluator,
    eval_g2n_gamma_form,
    eval_gkn,
    eval_gkn_deriv,
    eval_gkn_limit,
    log_eval_gkn,
    log_eval_gkn_grid,
    logsumexp,
    recurrence_residual,
)
from klchernoff.oracle import exact_coefficients

F = Fraction

# shapes whose exact rational coefficients are cheap enough to compare against
EXACT_LIMIT = 30

# the 12 small polynomials, frozen coefficient by coefficient
SMALL_POLYNOMIALS = {
    (2, 1): (F(1), F(1)),
    (2, 2): (F(1), F(1), F(1, 2)),
    (2, 3): (F(1), F(1), F(2, 3), F(2, 9)),
    (2, 4): (F(1), F(1), F(3, 4), F(3, 8), F(3, 32)),
    (3, 1): (F(1), F(2)),
    (3, 2): (F(1), F(2), F(3, 2)),
    (3, 3): (F(1), F(2), F(2), F(8, 9)),
    (3, 4): (F(1), F(2), F(9, 4), F(3, 2), F(15, 32)),
    (4, 1): (F(1), F(3)),
    (4, 2): (F(1), F(3), F(3)),
    (4, 3): (F(1), F(3), F(4), F(20, 9)),
    (4, 4): (F(1), F(3), F(9, 2), F(15, 4), F(45, 32)),
}


@pytest.mark.parametrize("shape,coeffs", sorted(SMALL_POLYNOMIALS.items()))
def test_small_polynomial_coefficients(shape, coeffs):
    assert exact_coefficients(ExperimentShape(*shape)) == coeffs


def test_shape_validation():
    with pytest.raises(ValueError):
        ExperimentShape(0, 3)
    with pytest.raises(ValueError):
        ExperimentShape(2, -1)


def test_degenerate_shapes_are_constant_one():
    for shape in (ExperimentShape(1, 7), ExperimentShape(5, 0), ExperimentShape(1, 0)):
        ev = build_evaluator(shape)
        assert exact_coefficients(shape) == (F(1),)
        assert ev.log_coeffs.tolist() == [0.0]
        for lam in (0.0, 0.3, 1.0):
            assert eval_gkn(ev, lam) == 1.0


def test_evaluators_compare_and_hash_by_identity():
    # the table is an array, so a field-wise == or hash would raise
    shape = ExperimentShape(3, 4)
    ev = build_evaluator(shape)
    assert ev == ev
    assert (ev == build_evaluator(shape)) is False
    assert {ev} == {ev}


@pytest.mark.parametrize("k,n", [(2, 1), (3, 5), (7, 12), (30, 30), (100, 50), (436, 2029)])
def test_log_coefficient_invariants(k, n):
    ev = build_evaluator(ExperimentShape(k, n))
    assert ev.log_coeffs[0] == 0.0
    assert ev.log_coeffs[1] == pytest.approx(math.log(k - 1), rel=1e-12)
    if k <= EXACT_LIMIT and n <= EXACT_LIMIT:
        coeffs = exact_coefficients(ev.shape)
        assert ev.log_coeffs.size == len(coeffs)
        for log_c, exact in zip(ev.log_coeffs, coeffs):
            assert math.exp(log_c) == pytest.approx(float(exact), rel=1e-12)


def _reference_log_g(k, n, lam):
    """log G_{k,n}(lam) summed in 40-digit decimal arithmetic.

    Walks the term ratio lam (n-j)(j+k-1) / (n (j+1)) from the exact binary
    value of ``lam``.  The ratio decreases in j, so once a term past the peak
    falls below 1e-45 of the running total the rest cannot reach the 40th digit.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(lam)
        term = total = Decimal(1)
        for j in range(n):
            prev, term = term, term * x * (n - j) * (j + k - 1) / (n * (j + 1))
            total += term
            if term < prev and term < total * Decimal("1e-45"):
                break
        return total.ln()


def _full_log_ratio(k, n):
    """All n log term ratios log(c_{j+1}/c_j)."""
    j = np.arange(n, dtype=float)
    return np.log1p(-j / n) + np.log1p((k - 2) / (j + 1.0))


def _full_log_coeffs(k, n):
    """All n + 1 log-coefficients by the ratio walk, without the cut."""
    return np.concatenate(([0.0], np.cumsum(_full_log_ratio(k, n))))


KNOTS = [j / 8 for j in range(1, 9)]


# The lambda = 1 cut of (2, 12162), (2, 12185) and (2, 12209) keeps 1,022,
# 1,023 and 1,024 terms, just before, on and just past the end of the first
# block of the walk; (2, 105360), (2, 105426) and (2, 105495) do the same at
# the end of the second block.
BLOCK_EDGES = {(2, 12162): 1022, (2, 12185): 1023, (2, 12209): 1024,
               (2, 105360): 3070, (2, 105426): 3071, (2, 105495): 3072}


@pytest.mark.parametrize(
    "k,n", [(436, 10**6), (2, 10**6), (50, 10**5), (2, 1), (2, 2), (31, 93), (6, 100)] + sorted(BLOCK_EDGES)
)
def test_block_walk_matches_full_walk(k, n):
    # the table and cuts equal those of the whole ratio array, bit for bit
    ev = build_evaluator(ExperimentShape(k, n))
    full, ratio = _full_log_coeffs(k, n), _full_log_ratio(k, n)
    cuts = tuple(gkn._cut(full, ratio, math.log(knot)) for knot in KNOTS)
    assert ev.cuts == cuts
    assert ev.log_coeffs.tobytes() == full[: cuts[-1][0]].tobytes()
    if (k, n) in BLOCK_EDGES:
        assert cuts[-1][0] == BLOCK_EDGES[k, n]


@pytest.mark.parametrize("k,n", [(2, 10**6), (50, 10**5), (436, 2029), (2, 1000), (6, 100), (31, 93)])
def test_cut_table_certifies_its_tail(k, n):
    ev = build_evaluator(ExperimentShape(k, n))
    full = _full_log_coeffs(k, n)
    kept = ev.log_coeffs.size
    np.testing.assert_array_equal(ev.log_coeffs, full[:kept])
    # (31, 93) needs every term at lambda = 1, the others drop some
    assert (kept == n + 1) == ((k, n) == (31, 93)) == (ev.tail == 0.0)
    prefixes = [prefix for prefix, _ in ev.cuts]
    assert len(ev.cuts) == len(KNOTS)
    assert prefixes == sorted(prefixes) and prefixes[-1] == kept
    assert all(0.0 <= tail <= 2.0**-60 for _, tail in ev.cuts)
    m = np.arange(n + 1, dtype=float)
    neighbours = {x for knot in KNOTS for x in (math.nextafter(knot, 0.0), knot, math.nextafter(knot, 1.0))}
    lams = sorted({0.3, 0.9} | neighbours)
    grid = log_eval_gkn_grid(ev, np.array(lams))
    for lam, grid_value in zip(lams, grid):
        knot = math.ceil(8 * lam) / 8  # the first knot >= lam
        prefix, tail = ev.cuts[KNOTS.index(knot)]
        added = tail * (lam / knot) ** prefix
        terms = full + m * math.log(lam)
        assert float(np.exp(terms[prefix:]).sum()) <= added
        full_log_g = float(scipy.special.logsumexp(terms))
        value = log_eval_gkn(ev, lam)
        if lam in (0.3, 0.9, 1.0):
            assert value >= full_log_g - 4 * math.ulp(full_log_g)
        # never below log G, nor above it by more than the tail, up to the
        # rounding of a sum of ``prefix`` positive terms
        rounding = (prefix + 4) * 2.0**-53 + 4 * math.ulp(full_log_g)
        for v in (value, grid_value):
            assert full_log_g - rounding <= v <= full_log_g + added + rounding


@pytest.mark.parametrize("k,n", [(2, 10**6), (50, 10**5), (436, 2029)])
def test_large_shape_log_eval_matches_decimal_reference(k, n):
    ev = build_evaluator(ExperimentShape(k, n))
    for lam in (0.3, 0.9, 1.0):
        ref = _reference_log_g(k, n, lam)
        assert log_eval_gkn(ev, lam) == pytest.approx(float(ref), rel=1e-13)


def test_strictly_increasing_on_unit_interval():
    ev = build_evaluator(ExperimentShape(4, 9))
    grid = np.linspace(0.0, 1.0, 40)
    vals = [eval_gkn(ev, float(l)) for l in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_eval_examples():
    ev = build_evaluator(ExperimentShape(3, 3))
    assert eval_gkn(ev, 0.5) == pytest.approx(1 + 2 * 0.5 + 2 * 0.25 + (8 / 9) * 0.125, rel=1e-14)
    assert eval_gkn(ev, 0.0) == 1.0
    assert eval_gkn(build_evaluator(ExperimentShape(4, 4)), 1.0) == pytest.approx(13.65625, rel=1e-13)
    with pytest.raises(ValueError):
        eval_gkn(ev, -0.1)
    with pytest.raises(ValueError):
        eval_gkn(ev, 1.2)


def test_grid_matches_scalar_eval():
    # (436, 2029) keeps 1,710 of its 2,030 terms
    for shape in (ExperimentShape(5, 17), ExperimentShape(436, 2029)):
        ev = build_evaluator(shape)
        grid = np.linspace(0.0, 1.0, 37)
        vec = log_eval_gkn_grid(ev, grid)
        for lam, expected in zip(grid, vec):
            assert log_eval_gkn(ev, float(lam)) == pytest.approx(expected, rel=1e-14, abs=1e-14)
        for bad in ([0.5, 1.5], [-0.5, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError):
                log_eval_gkn_grid(ev, np.array(bad))


def _grid_with_temporaries(ev, lams):
    """Reference grid evaluation: a fresh temporary per step and knot group,
    found by np.unique.  The work-buffer path must match it bit for bit."""
    out = np.zeros(lams.size)
    if ev.log_coeffs.size == 1:
        return out
    nz = np.flatnonzero(lams > 0.0)
    knot_of = np.searchsorted(KNOTS, lams[nz])
    m = np.arange(ev.log_coeffs.size, dtype=float)[:, None]
    for j in np.unique(knot_of):
        group = nz[knot_of == j]
        kept, tail = ev.cuts[j]
        lc = ev.log_coeffs[:kept, None]
        cols_per_chunk = max(1, 8_000_000 // kept)
        for start in range(0, group.size, cols_per_chunk):
            idx = group[start : start + cols_per_chunk]
            terms = lc + m[:kept] * np.log(lams[idx])[None, :]
            peak = terms.max(axis=0)
            log_s = peak + np.log(np.exp(terms - peak).sum(axis=0))
            out[idx] = log_s + tail * (lams[idx] / KNOTS[j]) ** kept
    return out


@pytest.mark.parametrize("k,n", [(6, 100), (436, 2029), (50, 10**5), (2, 10**6)])
def test_grid_matches_per_group_temporaries_bit_for_bit(k, n):
    ev = build_evaluator(ExperimentShape(k, n))
    grids = [
        np.linspace(0.0, 1.0, 512),
        np.random.default_rng(k + n).uniform(0.0, 1.0, 300),  # unsorted
        np.array([1.0, 0.0, 0.6, 0.0, 1.0, 0.125]),
        np.array([0.37]),
    ]
    for lams in grids:
        assert log_eval_gkn_grid(ev, lams).tobytes() == _grid_with_temporaries(ev, lams).tobytes()


KERNEL_SHAPES = [(6, 100), (436, 2029), (50, 10**5), (2, 10**6), (31, 93), (2, 1), (3, 4), (1, 5), (4, 0)]


@pytest.mark.parametrize("k,n", KERNEL_SHAPES)
def test_point_kernel_matches_scalar_bit_for_bit(k, n):
    # random lambdas in every knot's group, the knots and their neighbours,
    # evaluated together, in groups of one, and one point at a time
    ev = build_evaluator(ExperimentShape(k, n))
    rng = np.random.default_rng(k + n)
    lams = [float(x) for j in range(8) for x in rng.uniform(j / 8, (j + 1) / 8, 40)]
    lams += [x for knot in KNOTS for x in (math.nextafter(knot, 0.0), knot, math.nextafter(knot, 1.0))]
    lams += [0.0, 5e-324, 1.0]
    rng.shuffle(lams)
    scalar = [log_eval_gkn(ev, lam) for lam in lams]
    assert gkn._log_eval_points(ev, lams) == scalar
    assert [gkn._log_eval_points(ev, [lam])[0] for lam in lams] == scalar
    one_per_knot = [lams[j] for j in range(0, len(lams), 37)]
    assert gkn._log_eval_points(ev, one_per_knot) == [log_eval_gkn(ev, lam) for lam in one_per_knot]


def test_point_kernel_splits_large_groups_bit_for_bit(monkeypatch):
    # buffers of at most 7 rows: groups split across several buffers
    ev = build_evaluator(ExperimentShape(436, 2029))
    monkeypatch.setattr(gkn, "_POINT_ENTRIES", 7 * ev.log_coeffs.size)
    lams = np.random.default_rng(3).uniform(0.0, 1.0, 300).tolist()
    assert gkn._log_eval_points(ev, lams) == [log_eval_gkn(ev, lam) for lam in lams]


# The rungs of each shape that has any, by knot interval: the prefix at least
# quadruples only on (7/8, 1], from kept_6 to the lambda = 1 cut.
RUNGS = {
    (2, 10**6): {7: [654, 1308, 2616]},
    (50, 10**5): {7: [3710]},
    (2, 10**8): {7: [656, 1312, 2624, 5248, 10496, 20992, 41984]},
}


@pytest.mark.parametrize("k,n", sorted(RUNGS))
def test_rungs_double_the_lower_knot_up_to_half_the_upper(k, n):
    ev = build_evaluator(ExperimentShape(k, n))
    assert {j: [rung for rung, _ in rungs] for j, rungs in enumerate(ev.rungs) if rungs} == RUNGS[k, n]
    prefixes = [kept for kept, _ in ev.cuts]
    full_ratio = _full_log_ratio(k, n) if n <= 10**6 else None
    for j, rungs in enumerate(ev.rungs):
        for i, (rung, log_r) in enumerate(rungs, start=1):
            assert rung == 2**i * prefixes[j - 1] and 2 * rung <= prefixes[j]
            if full_ratio is not None:
                assert log_r == full_ratio[rung]


@pytest.mark.parametrize("k,n", [(6, 100), (436, 2029), (106, 2016), (31, 93), (2, 1), (1, 5), (4, 0)])
def test_shapes_whose_prefixes_do_not_quadruple_have_no_rungs(k, n):
    assert build_evaluator(ExperimentShape(k, n)).rungs == ((),) * len(KNOTS)


def _rung_lambdas(rng, j):
    """Random lambdas in the knot interval (lambda_{j-1}, lambda_j] and its
    two ends."""
    lo, hi = KNOTS[j - 1], KNOTS[j]
    return [math.nextafter(lo, 1.0), hi] + rng.uniform(lo, hi, 200).tolist()


def _tail_test(ev, rung, log_r, lam):
    return gkn._log_tail(float(ev.log_coeffs[rung]), log_r, rung, math.log(lam))


@pytest.mark.parametrize("k,n", sorted(RUNGS))
def test_rung_tail_is_certified_at_lambda(k, n):
    ev = build_evaluator(ExperimentShape(k, n))
    rng = np.random.default_rng(k + n)
    chosen = set()
    for j in RUNGS[k, n]:
        rungs, (kept_j, tail_j) = ev.rungs[j], ev.cuts[j]
        for lam in _rung_lambdas(rng, j):
            # a shorter sum plus its tail is never below the whole kept_j sum,
            # up to rounding
            full = float(scipy.special.logsumexp(ev.log_coeffs[:kept_j] + np.arange(kept_j) * math.log(lam)))
            assert log_eval_gkn(ev, lam) >= full - 4 * math.ulp(full)
            kept, tail = gkn._prefix(ev, lam)
            passing = [rung for rung, log_r in rungs if _tail_test(ev, rung, log_r, lam) <= math.log(2.0**-60)]
            if kept == kept_j:
                # no rung passes: the knot's cut, as without rungs
                assert passing == []
                assert tail == tail_j * (lam / KNOTS[j]) ** kept
                continue
            chosen.add(kept)
            # the first rung that passes the test at lam itself; the rung
            # below it fails there
            i = [rung for rung, _ in rungs].index(kept)
            assert passing and passing[0] == kept
            if i > 0:
                assert _tail_test(ev, *rungs[i - 1], lam) > math.log(2.0**-60)
            assert tail == math.exp(_tail_test(ev, *rungs[i], lam)) <= 2.0**-60
            # the tail bounds the terms the rung drops: the rest of the table,
            # and past it the table's own tail at lam
            m = np.arange(kept, ev.log_coeffs.size, dtype=float)
            beyond = ev.tail * lam**ev.log_coeffs.size
            assert math.fsum(np.exp(ev.log_coeffs[kept:] + m * math.log(lam))) + beyond <= tail
    # every rung serves some lambda
    assert chosen == {rung for j in RUNGS[k, n] for rung, _ in ev.rungs[j]}


def _rung_edges(ev, j):
    """For each rung of knot interval j, the last float lambda it serves and
    the next float, which the next rung or the knot's cut serves."""
    edges = []
    for rung, _ in ev.rungs[j]:
        lo, hi = KNOTS[j - 1], KNOTS[j]  # served at lo+, not at hi
        while math.nextafter(lo, 1.0) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gkn._prefix(ev, mid)[0] <= rung else (lo, mid)
        edges.append((lo, hi))
    return edges


@pytest.mark.parametrize("k,n", sorted(RUNGS))
def test_point_kernel_matches_scalar_across_rung_edges(k, n):
    ev = build_evaluator(ExperimentShape(k, n))
    lams = []
    for j in RUNGS[k, n]:
        edges = _rung_edges(ev, j)
        for (below, above), (rung, _) in zip(edges, ev.rungs[j]):
            assert math.nextafter(below, 1.0) == above
            assert gkn._prefix(ev, below)[0] == rung < gkn._prefix(ev, above)[0]
            lams += [math.nextafter(below, 0.0), below, above, math.nextafter(above, 1.0)]
    lams += np.random.default_rng(n).uniform(0.8, 1.0, 50).tolist()
    scalar = [log_eval_gkn(ev, lam) for lam in lams]
    assert gkn._log_eval_points(ev, lams) == scalar
    assert gkn._log_eval_points(ev, lams[::-1]) == scalar[::-1]


# sha256 of the float.hex of log_eval_gkn at 2,000 random lambdas, seeded by
# k * n, as the knot prefixes alone gave them: the shapes without rungs keep
# their bits
NO_RUNG_PINS = {
    (6, 100): "a336c449e3884863001201263ced29972b41babaf75a2dea3bd5be7f42e528b7",
    (436, 2029): "90f6b89cf0c479de98c19a3b62125aaf85c96f7b5b978f6de4ec5433c9b0c6b4",
    (106, 2016): "51dac6e52573a972543112f3095d24c70dfd9b885b78ee8f943f38b94465af94",
}


@pytest.mark.parametrize("k,n", sorted(NO_RUNG_PINS))
def test_shapes_without_rungs_keep_their_bits(k, n):
    ev = build_evaluator(ExperimentShape(k, n))
    lams = np.random.default_rng(k * n).uniform(0.0, 1.0, 2000).tolist()
    scalar = [log_eval_gkn(ev, lam) for lam in lams]
    assert gkn._log_eval_points(ev, lams) == scalar
    assert hashlib.sha256("\n".join(v.hex() for v in scalar).encode()).hexdigest() == NO_RUNG_PINS[k, n]


def _gamma_mixture_log_g(k, n, lam):
    """log G_{k,n}(lam) from G = E (1 + lam U / n)^n, U ~ Gamma(k - 1, 1).

    Expanding the power, E U^m = Gamma(m + k - 1) / Gamma(k - 1) turns the
    mixture into the coefficient sum, independently of the ratio walk.  The
    density exp(h(u)), h(u) = n log1p(lam u / n) + (k - 2) log u - u -
    lgamma(k - 1), is integrated by ``quad`` scaled by its peak, split at the
    mode and a few widths either side of it.
    """
    c = math.lgamma(k - 1)

    def h(u):
        return n * math.log1p(lam * u / n) + (k - 2) * math.log(u) - u - c

    # h' = lam / (1 + lam u / n) + (k - 2) / u - 1 falls from +inf to below 0
    mode = optimize.brentq(lambda u: lam / (1 + lam * u / n) + (k - 2) / u - 1, 1e-12, 2.0 * (k + n)) if k > 2 else 0.0
    peak = h(mode) if k > 2 else -c

    def density(u):
        return math.exp(h(u) - peak) if k > 2 or u > 0.0 else math.exp(-c - peak)

    width = math.sqrt(mode + k)
    edges = sorted({0.0, mode} | {x for x in (mode - 8 * width, mode - 2 * width, mode + 2 * width, mode + 8 * width) if x > 0})
    pieces = [integrate.quad(density, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0] for lo, hi in zip(edges, edges[1:])]
    pieces.append(integrate.quad(density, edges[-1], math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0])
    return peak + math.log(math.fsum(pieces))


@pytest.mark.parametrize("k,n", [(436, 2029), (50, 10**5), (2, 10**6)])
def test_log_eval_matches_gamma_mixture_beyond_enumeration(k, n):
    # an independent formula where no enumeration reaches: agrees to ~1e-15
    ev = build_evaluator(ExperimentShape(k, n))
    lams = [0.3, 0.9, 1.0]
    batched = gkn._log_eval_points(ev, lams)
    for lam, value in zip(lams, batched):
        reference = _gamma_mixture_log_g(k, n, lam)
        assert log_eval_gkn(ev, lam) == value == pytest.approx(reference, rel=1e-13)


def _traced_peak_mib(fn):
    """Peak of memory allocated by ``fn()``, above what was held before, in MiB."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - held) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


def test_point_kernel_memory_is_bounded_in_the_batch():
    # 10^5 points of 246 terms in one group would take a 188 MiB buffer; the
    # kernel sums them 4,262 rows at a time in one 8 MiB buffer (~15 MiB with
    # its lists)
    ev = build_evaluator(ExperimentShape(50, 10**5))
    assert ev.cuts[3][0] == 246
    lams = np.linspace(0.376, 0.5, 10**5).tolist()
    assert _traced_peak_mib(lambda: gkn._log_eval_points(ev, lams)) < 18.0


def test_point_kernel_memory_is_bounded_across_rung_groups():
    # 10^5 points in (7/8, 1) at (2, 10^6) fall in four groups, the rungs of
    # 654, 1,308 and 2,616 terms and the whole 9,602-term table; they share
    # one 8 MiB buffer, and the output list holds each point's tail until its
    # sum is added
    ev = build_evaluator(ExperimentShape(2, 10**6))
    lams = np.linspace(0.876, 0.999, 10**5).tolist()
    assert {gkn._prefix(ev, lam)[0] for lam in lams} == {654, 1308, 2616, 9602}
    assert _traced_peak_mib(lambda: gkn._log_eval_points(ev, lams)) < 18.0


def test_build_and_grid_allocate_no_table_sized_temporaries():
    # a walk of all 10^6 ratios takes ~30 MiB; the kept table is 75 KiB
    assert _traced_peak_mib(lambda: build_evaluator(ExperimentShape(2, 10**6))) < 2.0
    # one temporary per step and knot group takes ~2.5 MiB at (436, 2029)
    ev = build_evaluator(ExperimentShape(436, 2029))
    lams = np.linspace(0.0, 1.0, 512)
    log_eval_gkn_grid(ev, lams)
    assert _traced_peak_mib(lambda: log_eval_gkn_grid(ev, lams)) < 1.5


def test_derivative_examples():
    ev = build_evaluator(ExperimentShape(2, 2))
    assert eval_gkn_deriv(ev, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert eval_gkn_deriv(ev, 1.0) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        eval_gkn_deriv(build_evaluator(ExperimentShape(1, 3)), 0.5)


def test_derivative_matches_finite_difference():
    # (2, 1000) keeps 279 of its 1,001 terms
    h = 1e-6
    for shape in (ExperimentShape(3, 4), ExperimentShape(2, 1000)):
        ev = build_evaluator(shape)
        for lam in (0.3, 0.9):
            central = (eval_gkn(ev, lam + h) - eval_gkn(ev, lam - h)) / (2 * h)
            assert eval_gkn_deriv(ev, lam) == pytest.approx(central, rel=1e-8)


def test_limit_examples():
    assert eval_gkn_limit(2, 0.5) == pytest.approx(2.0)
    assert eval_gkn_limit(3, 0.0) == 1.0
    assert eval_gkn_limit(6, 0.9) == pytest.approx(1e5, rel=1e-12)
    with pytest.raises(ValueError):
        eval_gkn_limit(3, 1.0)
    with pytest.raises(ValueError):
        eval_gkn_limit(1, 0.5)


def test_gamma_form_examples():
    assert eval_g2n_gamma_form(1, 1.0) == pytest.approx(2.0, rel=1e-13)
    assert eval_g2n_gamma_form(2, 0.5) == pytest.approx(1.625, rel=1e-13)
    with pytest.raises(ValueError):
        eval_g2n_gamma_form(2, 0.0)


@pytest.mark.parametrize("n", [1, 7, 50, 1000])
def test_gamma_form_matches_polynomial(n):
    ev = build_evaluator(ExperimentShape(2, n))
    for lam in (0.1, 0.5, 0.7, 0.9, 1.0):
        assert eval_g2n_gamma_form(n, lam) == pytest.approx(eval_gkn(ev, lam), rel=1e-10)


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_gamma_form_has_no_cancellation_at_large_n(n):
    # lambda = 0.3 and 0.9 take the continued fraction, lambda = 1 the series
    ev = build_evaluator(ExperimentShape(2, n))
    for lam in (0.3, 0.9, 1.0):
        assert eval_g2n_gamma_form(n, lam) == pytest.approx(eval_gkn(ev, lam), rel=1e-13)


def test_recurrence_examples():
    assert recurrence_residual(2, 1, 0.5) == pytest.approx(0.0, abs=1e-14)
    for lam in (0.0, 0.25, 0.7, 1.0):
        g = eval_gkn(build_evaluator(ExperimentShape(3, 2)), lam)
        assert abs(recurrence_residual(3, 2, lam)) <= 1e-10 * g
    g = eval_gkn(build_evaluator(ExperimentShape(5, 9)), 1.0)
    assert abs(recurrence_residual(5, 9, 1.0)) <= 1e-10 * g


def test_monotone_in_n_and_dominated_by_limit():
    """G_{k,n}(lam) = E (1 + lam U / n)^n with U ~ Gamma(k - 1, 1) (see
    :func:`_gamma_mixture_log_g`).  As n grows the integrand rises to e^{lam U},
    so G_{k,n} increases in n to E e^{lam U} = (1 - lam)^-(k-1), the limit."""
    grid = np.linspace(0.0, 1.0, 21)
    for k in (2, 3, 6):
        prev = None
        for n in range(1, 61):
            ev = build_evaluator(ExperimentShape(k, n))
            vals = np.array([eval_gkn(ev, float(l)) for l in grid])
            if prev is not None:
                assert (vals >= prev * (1 - 1e-13)).all()
            for lam, val in zip(grid, vals):
                if lam < 1.0:
                    assert val <= eval_gkn_limit(k, float(lam)) * (1 + 1e-12)
            prev = vals


@pytest.mark.parametrize("k", [3, 4, 5])
def test_derivative_representation(k):
    # coefficients of the k-alphabet polynomial equal the (k-2)-th derivative
    # of lam^(k-2) * G_{2,n}(lam), divided by (k-2)!, term by term
    for n in range(1, 13):
        base = list(exact_coefficients(ExperimentShape(2, n)))
        coeffs = [F(0)] * (k - 2) + base
        for _ in range(k - 2):
            coeffs = [coeffs[i] * i for i in range(1, len(coeffs))]
        coeffs = [c / math.factorial(k - 2) for c in coeffs]
        assert tuple(coeffs) == exact_coefficients(ExperimentShape(k, n))


def test_log_scaling_in_k():
    for n in (1, 2, 5):
        for k in (10**2, 10**3, 10**4, 10**5, 10**6):
            ratio = log_eval_gkn(build_evaluator(ExperimentShape(k, n)), 1.0) / (n * math.log(k))
            assert 0.5 <= ratio <= 1.5


def test_single_draw_polynomial_is_affine():
    for k in (2, 5, 17):
        shape = ExperimentShape(k, 1)
        assert exact_coefficients(shape) == (F(1), F(k - 1))
        assert np.exp(build_evaluator(shape).log_coeffs) == pytest.approx([1.0, k - 1.0], rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 6])
@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
def test_correction_combination_limit(k, lam):
    # n * [(k-1)/(1-lam) G - G'] approaches k(k-1)lam/(1-lam)^(k+2)
    target = k * (k - 1) * lam / (1 - lam) ** (k + 2)
    n = 10**5
    ev = build_evaluator(ExperimentShape(k, n))
    value = n * ((k - 1) / (1 - lam) * eval_gkn(ev, lam) - eval_gkn_deriv(ev, lam))
    assert value == pytest.approx(target, rel=0.02)


@pytest.mark.parametrize(
    "terms",
    [
        np.array([0.0, -1.0, 2.5, 700.0, -745.0]),
        np.array([-3.25]),
        np.array([-np.inf, 1.0, -np.inf, -2.0]),
        np.array([[0.0, -np.inf, 1e3], [2.0, 3.0, -1e3], [-np.inf, -0.5, 0.0]]),
        np.random.default_rng(7).normal(scale=50.0, size=(40, 6)),
    ],
    ids=["1d", "single", "1d-with-neg-inf", "2d-with-neg-inf", "2d-random"],
)
def test_logsumexp_matches_scipy(terms):
    ours = logsumexp(terms)
    ref = scipy.special.logsumexp(terms, axis=0)
    assert np.shape(ours) == np.shape(ref)
    np.testing.assert_allclose(ours, ref, rtol=1e-14, atol=1e-14)
    work = terms.copy()
    np.testing.assert_array_equal(logsumexp(work, out=work), ours)
