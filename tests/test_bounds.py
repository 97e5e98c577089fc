import math

import numpy as np
import pytest

from klchernoff import bounds
from klchernoff.bounds import (
    ALL_METHODS,
    BOUND_METHODS,
    TailQuery,
    _make_result,
    agrawal_limit_bound,
    asymp_gamma_tail,
    chernoff_corrected,
    chernoff_exact,
    chernoff_exact_many,
    chernoff_uncorrected,
    defined_at,
    evaluate_bound,
    lambda_one_bound,
    log_types_factor,
    mardia_factor,
    meaningful_threshold,
    types_bound,
)
from klchernoff.gkn import ExperimentShape, build_evaluator, eval_gkn, eval_gkn_deriv, log_eval_gkn, log_eval_gkn_grid
from test_gkn import _traced_peak_mib


def q(k, n, t):
    return TailQuery(ExperimentShape(k, n), t)


def test_query_validation():
    with pytest.raises(ValueError):
        q(2, 2, 0.0)
    with pytest.raises(ValueError):
        chernoff_exact(q(1, 5, 1.0))
    with pytest.raises(ValueError):
        types_bound(TailQuery(ExperimentShape(3, 0), 1.0))


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_query_rejects_non_finite_t(t):
    with pytest.raises(ValueError):
        q(3, 10, t)


def test_nan_log_value_is_rejected():
    with pytest.raises(ValueError, match="NaN"):
        _make_result("exact", math.nan)


def test_defined_at_only_excludes_plug_in_methods_at_or_below_line():
    for method in ALL_METHODS:
        plug_in = method in ("corrected", "uncorrected")
        assert defined_at(method, 6, 5.0) is not plug_in
        assert defined_at(method, 6, 5.0 + 1e-9)


def test_exact_boundary_minimizer():
    r = chernoff_exact(q(2, 1, 10.0))
    assert r.lambda_used == 1.0
    assert r.value == pytest.approx(2 * math.exp(-10), rel=1e-12)
    assert r.meaningful


def test_exact_approaches_one_at_degrees_line():
    # at t = k - 1 the bound rises to 1 (the limit objective's minimum) with n
    vals = [chernoff_exact(q(6, n, 5.0)).value for n in (2, 4, 6, 20, 2000)]
    assert all(v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] < 0.5
    assert vals[-1] > 0.999999


def test_exact_matches_dense_grid_spot():
    shape = ExperimentShape(3, 10)
    lams = np.linspace(0.0, 1.0, 10**6)
    dense = float((log_eval_gkn_grid(build_evaluator(shape), lams) - lams * 8.0).min())
    assert chernoff_exact(q(3, 10, 8.0)).log_value == pytest.approx(dense, abs=1e-9)


def test_exact_at_million_draws_regression():
    # value of the full 10^6 + 1 term sum, before the coefficient table was cut
    assert chernoff_exact(q(2, 10**6, 6.0)).log_value == pytest.approx(-3.2082655307594674, rel=1e-12)


def test_exact_at_large_shape_regression():
    # value before each coefficient table was cut per lambda
    assert chernoff_exact(q(50, 10**5, 80.0)).log_value == pytest.approx(-6.984797063579272, rel=1e-12)


def test_uncorrected_examples():
    r = chernoff_uncorrected(q(2, 1, 2.0))
    assert r.lambda_used == pytest.approx(0.5)
    assert r.value == pytest.approx(1.5 * math.exp(-1), rel=1e-12)
    # approaches 1 as t drops to k-1
    assert chernoff_uncorrected(q(2, 7, 1.0 + 1e-9)).value == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError, match="chernoff_exact"):
        chernoff_uncorrected(q(2, 5, 1.0))
    assert chernoff_uncorrected(q(3, 20, 10.0)).value >= chernoff_exact(q(3, 20, 10.0)).value


def test_corrected_examples():
    r = chernoff_corrected(q(2, 1, 2.0))
    assert r.lambda_used == 1.0
    assert r.value == pytest.approx(2 * math.exp(-2), rel=1e-12)
    with pytest.raises(ValueError):
        chernoff_corrected(q(2, 5, 0.5))
    # correction vanishes for large n
    big = chernoff_corrected(q(2, 10**6, 2.0))
    assert big.lambda_used == pytest.approx(0.5, abs=1e-5)
    assert big.value == pytest.approx(chernoff_uncorrected(q(2, 10**6, 2.0)).value, rel=1e-4)
    sandwich = chernoff_corrected(q(6, 100, 12.0)).value
    assert chernoff_exact(q(6, 100, 12.0)).value <= sandwich * (1 + 1e-12)
    assert sandwich <= chernoff_uncorrected(q(6, 100, 12.0)).value * (1 + 1e-12)


def test_lambda_one_examples():
    r = lambda_one_bound(q(2, 2, 1e-9))
    assert r.value == 1.0 and not r.meaningful
    assert lambda_one_bound(q(2, 2, math.log(2.5))).value == pytest.approx(1.0, abs=1e-12)
    assert lambda_one_bound(q(4, 4, 10.0)).value == pytest.approx(13.65625 * math.exp(-10), rel=1e-12)
    assert r.lambda_used == 1.0


def test_types_examples():
    assert types_bound(q(2, 2, 5.0)).value == pytest.approx(3 * math.exp(-5), rel=1e-12)
    assert types_bound(q(3, 4, 8.0)).value == pytest.approx(15 * math.exp(-8), rel=1e-12)
    for t in (0.5, 2.0, 9.0):
        assert types_bound(q(2, 2, t)).value >= lambda_one_bound(q(2, 2, t)).value


@pytest.mark.parametrize("k,n", [(2, 10**6), (50, 10**5), (436, 2029), (6, 100), (1, 50), (7, 0)])
def test_log_types_factor_matches_exact_binomial(k, n):
    # reference: math.log of the exact big integer
    assert log_types_factor(k, n) == pytest.approx(math.log(math.comb(n + k - 1, k - 1)), rel=1e-14)


def test_mardia_factor_examples():
    assert mardia_factor(2, 7) == pytest.approx(12 / math.pi, rel=1e-13)
    assert mardia_factor(2, 9000) == pytest.approx(12 / math.pi, rel=1e-13)
    assert mardia_factor(3, 1) == pytest.approx(12 / math.pi * (1 + math.e / 2), rel=1e-13)
    # dominated by the type count once n is moderately large; for a handful of
    # small (k, n) pairs (e.g. (2,2): 12/pi > 3) the printed constant exceeds it
    for k in range(2, 7):
        for n in range(4, 101):
            assert math.log(mardia_factor(k, n)) < log_types_factor(k, n)
    assert mardia_factor(2, 2) > math.exp(log_types_factor(2, 2))


def test_agrawal_examples():
    assert agrawal_limit_bound(q(2, 3, 2.0)).value == pytest.approx(2 * math.exp(-1), rel=1e-12)
    assert agrawal_limit_bound(q(4, 3, 3.0)).value == 1.0
    assert agrawal_limit_bound(q(4, 3, 1.0)).value == 1.0
    assert agrawal_limit_bound(q(6, 50, 12.0)).value >= chernoff_exact(q(6, 50, 12.0)).value
    assert agrawal_limit_bound(q(2, 3, 2.0)).lambda_used is None


def test_asymp_gamma_examples():
    assert asymp_gamma_tail(3, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)
    assert asymp_gamma_tail(3, 1e-12) == pytest.approx(1.0, abs=1e-9)
    assert asymp_gamma_tail(5, 4.0) == pytest.approx(5 * math.exp(-4), rel=1e-12)


def test_meaningful_threshold_examples():
    assert meaningful_threshold(ExperimentShape(2, 2)) == pytest.approx(math.log(2.5), rel=1e-13)
    assert meaningful_threshold(ExperimentShape(6, 1)) == pytest.approx(math.log(6), rel=1e-13)
    # log G grows like log(sqrt n) at k=2, so the k-1 term caps the threshold
    assert meaningful_threshold(ExperimentShape(2, 10**6)) == 1.0
    for shape, message in ((ExperimentShape(1, 5), "k >= 2"), (ExperimentShape(3, 0), "n >= 1")):
        with pytest.raises(ValueError, match=f"tail bounds require {message}"):
            meaningful_threshold(shape)


def test_meaningfulness_grid():
    for k in range(2, 21):
        for n in range(1, 51):
            shape = ExperimentShape(k, n)
            t = meaningful_threshold(shape) + 1e-3
            assert chernoff_exact(TailQuery(shape, t)).value < 1.0, (k, n)


def test_meaningfulness_converse():
    # below the threshold the minimum never drops under 1 (numerical check,
    # not a proof; holds on this grid)
    for k in range(2, 51, 4):
        for n in (1, 7, 40):
            shape = ExperimentShape(k, n)
            t = meaningful_threshold(shape) * (1 - 1e-9)
            assert chernoff_exact(TailQuery(shape, t)).value >= 1.0 - 1e-12, (k, n)


def test_dominance_chain():
    rng = np.random.default_rng(5)
    for k in (2, 3, 4, 6):
        for n in (1, 5, 30):
            shape = ExperimentShape(k, n)
            lo = k - 1 + 0.05
            for t in np.linspace(lo, lo + 3 * k, 12):
                query = TailQuery(shape, float(t))
                exact = chernoff_exact(query).value
                corrected = chernoff_corrected(query).value
                uncorrected = chernoff_uncorrected(query).value
                lam_one = lambda_one_bound(query).value
                assert exact <= corrected * (1 + 1e-12) <= 1 + 1e-12
                assert exact <= uncorrected * (1 + 1e-12)
                assert uncorrected <= agrawal_limit_bound(query).value * (1 + 1e-12)
                assert exact <= lam_one * (1 + 1e-12)
                assert lam_one <= types_bound(query).value * (1 + 1e-12)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_monotone_in_t(method):
    shape = ExperimentShape(4, 25)
    lo = shape.k - 1 + 1e-6 if method in ("corrected", "uncorrected") else 0.05
    prev = math.inf
    for t in np.linspace(lo, lo + 20, 60):
        value = evaluate_bound(method, TailQuery(shape, float(t))).value
        assert value <= prev * (1 + 1e-12)
        prev = value


def test_exact_matches_exhaustive_grids():
    # refinement agrees with a brute-force million-point scan of the objective
    for k in range(2, 6):
        for n in range(1, 21):
            shape = ExperimentShape(k, n)
            ev = build_evaluator(shape)
            lams = np.linspace(0.0, 1.0, 10**6)
            log_g = log_eval_gkn_grid(ev, lams)
            thr = meaningful_threshold(shape)
            for t in np.linspace(0.5 * thr + 0.05, thr + 3 * k + 5, 10):
                dense = float((log_g - lams * t).min())
                refined = chernoff_exact(TailQuery(shape, float(t))).log_value
                assert refined <= dense + 1e-12
                assert refined == pytest.approx(dense, abs=1e-9)


@pytest.mark.parametrize("k,t", [(2, 2.0), (2, 4.0), (2, 7.0), (3, 3.0), (3, 5.0), (3, 8.0), (6, 6.0), (6, 8.0), (6, 11.0)])
def test_minimizer_drift_matches_correction(k, t):
    lam_inf = 1 - (k - 1) / t
    target = k * (t - k + 1) / (k - 1)
    n = 2 * 10**4
    lam_n = chernoff_exact(q(k, n, t)).lambda_used
    assert n * (lam_n - lam_inf) == pytest.approx(target, rel=0.05)


def test_square_root_improvement():
    n = 10**6
    ratio = log_eval_gkn(build_evaluator(ExperimentShape(2, n)), 1.0) / math.log(n + 1)
    assert abs(ratio - 0.5) < 0.06


def test_evaluate_bound_dispatch():
    query = q(3, 7, 4.0)
    for method in ALL_METHODS:
        r = evaluate_bound(method, query)
        assert r.method == method
        assert 0.0 <= r.value <= 1.0
        if method in ("exact", "corrected", "uncorrected", "lambda_one"):
            assert r.lambda_used is not None
        else:
            assert r.lambda_used is None
    with pytest.raises(ValueError):
        evaluate_bound("nope", query)
    assert ALL_METHODS == BOUND_METHODS + bounds.REFERENCE_METHODS == BOUND_METHODS + ("asymp_gamma",)


def _scalar_search(k, n, t):
    """The exact bound's search one basin and one lambda at a time: the same
    grid brackets, each refined by a scalar golden-section search on
    log_eval_gkn, and the grid's lambda = 1 end taken from log_eval_gkn too.
    The lockstep search must give its bits."""
    ev = build_evaluator(ExperimentShape(k, n))
    lams = bounds._LAMBDA_GRID
    log_g = log_eval_gkn_grid(ev, lams)
    log_g[-1] = log_eval_gkn(ev, 1.0)
    obj = log_g - lams * t
    candidates = [(float(obj[0]), 0.0), (float(obj[-1]), 1.0)]
    brackets = [(lams[j - 1], lams[j + 1]) for j in range(1, lams.size - 1) if obj[j] <= obj[j - 1] and obj[j] <= obj[j + 1]]
    brackets += [(0.0, lams[1])] if obj[0] <= obj[1] else []
    brackets += [(lams[-2], 1.0)] if obj[-1] <= obj[-2] else []
    for a, b in brackets:
        a, b = float(a), float(b)
        f = lambda lam: log_eval_gkn(ev, lam) - lam * t
        c, d = b - bounds._INVPHI * (b - a), a + bounds._INVPHI * (b - a)
        fc, fd = f(c), f(d)
        while b - a > bounds.REFINE_TOL:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - bounds._INVPHI * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + bounds._INVPHI * (b - a)
                fd = f(d)
        candidates.append((fc, c) if fc <= fd else (fd, d))
    return min(candidates)


# the benchmark's probe shapes and (31, 93), whose objective has two basins
SEARCH_SHAPES = [(6, 100), (436, 2029), (50, 10**5), (2, 10**6), (31, 93)]


@pytest.mark.parametrize("k,n", SEARCH_SHAPES)
def test_exact_many_matches_single_queries_bit_for_bit(k, n):
    shape = ExperimentShape(k, n)
    line = k - 1.0
    ts = np.linspace(0.1, 3 * k + 12, 21).tolist() + [line, math.nextafter(line, 0.0), math.nextafter(line, 99.0)]
    np.random.default_rng(k).shuffle(ts)
    assert min(ts) < line < max(ts)
    many = chernoff_exact_many(shape, ts)
    assert many == [chernoff_exact(TailQuery(shape, t)) for t in ts]
    for t, result in zip(ts[:6], many):
        assert (result.log_value, result.lambda_used) == _scalar_search(k, n, t)


@pytest.mark.parametrize("k,n", SEARCH_SHAPES + [(30, 4), (20, 5)])
def test_search_returns_the_scalar_log_g_at_the_lambda_it_found(k, n):
    # the grid only locates basins: each value is log_eval_gkn's, also where
    # the minimiser is the grid's end lambda = 1, which it is once t >= t_one
    shape = ExperimentShape(k, n)
    ev = build_evaluator(shape)
    t_one = eval_gkn_deriv(ev, 1.0) / eval_gkn(ev, 1.0)
    rng = np.random.default_rng(k + n)
    ts = (t_one * np.concatenate((rng.uniform(0.2, 3.0, 24), [0.999, 1.001]))).tolist()
    results = chernoff_exact_many(shape, ts)
    assert {r.lambda_used == 1.0 for r in results} == {True, False}
    for t, r in zip(ts, results):
        assert r.log_value == log_eval_gkn(ev, r.lambda_used) - r.lambda_used * t
        if r.lambda_used == 1.0:
            assert r.log_value == lambda_one_bound(TailQuery(shape, t)).log_value
    # the dual, the critical value's search, reaches lambda = 1 once
    # -log alpha >= t_one - log G(1); at (30, 4) and (20, 5) it always does
    edge = t_one - log_eval_gkn(ev, 1.0)
    log_alphas = (-max(edge, 1.0) * rng.uniform(0.2, 3.0, 12)).tolist()
    with np.errstate(divide="ignore"):
        found = bounds._lambda_min(k, n, bounds._dual_objective, log_alphas)
    assert {lam == 1.0 for _, lam in found} == ({True, False} if edge > 1.0 else {True})
    for log_alpha, (t_star, lam) in zip(log_alphas, found):
        assert t_star == (log_eval_gkn(ev, lam) - log_alpha) / lam


@pytest.mark.parametrize("k,n", SEARCH_SHAPES + [(30, 4)])
def test_values_at_lambda_one_are_the_scalar_sum_bit_for_bit(k, n):
    # log G(1) is a cached shape constant; every bound that takes lambda = 1
    # is still log_eval_gkn(ev, 1.0) - t, bit for bit, from a cold cache and
    # a warm one
    shape = ExperimentShape(k, n)
    ev = build_evaluator(shape)
    log_g_one = log_eval_gkn(ev, 1.0)
    # past t_one the exact minimiser is lambda = 1; far enough past it the
    # corrected lambda is clamped at 1 as well
    t = 2.0 * eval_gkn_deriv(ev, 1.0) / eval_gkn(ev, 1.0) + k
    while chernoff_corrected(TailQuery(shape, t)).lambda_used < 1.0:
        t *= 2.0
    for cold in (True, False):
        if cold:
            bounds._log_g_one.cache_clear()
        query = TailQuery(shape, t)
        for result in (lambda_one_bound(query), chernoff_corrected(query), chernoff_exact(query)):
            assert result.lambda_used == 1.0
            assert result.log_value == log_g_one - t
    assert meaningful_threshold(shape) == min(log_g_one, k - 1.0)


def test_exact_many_chunks_give_the_same_bits(monkeypatch):
    shape = ExperimentShape(31, 93)
    ts = np.linspace(0.5, 90.0, 26).tolist()
    whole = chernoff_exact_many(shape, ts)
    monkeypatch.setattr(bounds, "_PARAM_CHUNK", 7)
    assert chernoff_exact_many(shape, ts) == whole
    assert chernoff_exact_many(shape, []) == []
    with pytest.raises(ValueError):
        chernoff_exact_many(shape, [1.0, 0.0])
    with pytest.raises(ValueError):
        chernoff_exact_many(ExperimentShape(1, 5), [1.0])


def test_lambda_search_memory_does_not_grow_with_the_batch():
    # unchunked, 2,048 thresholds would hold an 8 MiB objective and its masks
    def peak(count):
        ts = np.linspace(0.5, 20.0, count).tolist()
        return _traced_peak_mib(lambda: bounds._lambda_min(3, 10, bounds._chernoff_objective, ts))

    one_chunk = peak(bounds._PARAM_CHUNK)
    assert peak(8 * bounds._PARAM_CHUNK) < one_chunk + 0.5
