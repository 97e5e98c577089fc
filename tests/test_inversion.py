import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from klchernoff import bounds
from klchernoff.bounds import BOUND_METHODS, TailQuery, chernoff_exact, evaluate_bound
from klchernoff.cli import main
from klchernoff.data import FrequencyTable
from klchernoff.gkn import ExperimentShape, build_evaluator, log_eval_gkn, log_eval_gkn_grid
from klchernoff.inversion import (
    CoordinateCI,
    CriticalValueQuery,
    binary_kl,
    coord_upper_bound,
    critical_value,
    unseen_upper_bound,
)
from klchernoff.oracle import ProbVector, tail_exact


def test_query_validation():
    with pytest.raises(ValueError):
        CriticalValueQuery(ExperimentShape(2, 2), 1.0)
    with pytest.raises(ValueError):
        CriticalValueQuery(ExperimentShape(2, 2), 0.0)
    with pytest.raises(ValueError):
        CriticalValueQuery(ExperimentShape(2, 2), 0.1, method="asymp_gamma")
    with pytest.raises(ValueError):
        CriticalValueQuery(ExperimentShape(2, 2), 0.1, method="unknown")
    # the shape check of every tail bound, whatever the method
    for shape, message in ((ExperimentShape(1, 5), "k >= 2"), (ExperimentShape(3, 0), "n >= 1")):
        for method in ("exact", "types", "corrected"):
            with pytest.raises(ValueError, match=f"tail bounds require {message}"):
                critical_value(CriticalValueQuery(shape, 0.05, method))


def test_types_inversion_closed_form():
    # C_T(2,2) e^{-t} = alpha  =>  t = log(3/alpha)
    t = critical_value(CriticalValueQuery(ExperimentShape(2, 2), 0.5, method="types"))
    assert t == pytest.approx(math.log(6), rel=1e-9)
    t = critical_value(CriticalValueQuery(ExperimentShape(2, 2), 0.07, method="types"))
    assert t == pytest.approx(math.log(3 / 0.07), rel=1e-9)


def test_exact_inversion_boundary_minimizer():
    # at large t the exact bound is G(1) e^{-t} = 2 e^{-t} for k=2, n=1
    t = critical_value(CriticalValueQuery(ExperimentShape(2, 1), 0.05))
    assert t == pytest.approx(math.log(2 / 0.05), rel=1e-9)


def test_round_trip_random_queries():
    rng = np.random.default_rng(41)
    methods = ("exact", "types", "lambda_one", "corrected", "uncorrected", "mardia", "agrawal_limit")
    for i in range(20):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(1, 60))
        alpha = float(rng.uniform(0.005, 0.6))
        method = methods[i % len(methods)]
        query = CriticalValueQuery(ExperimentShape(k, n), alpha, method=method)
        t_star = critical_value(query)
        achieved = evaluate_bound(method, TailQuery(query.shape, t_star)).value
        assert achieved == pytest.approx(alpha, rel=1e-9)


@pytest.mark.parametrize("method", ["corrected", "uncorrected", "agrawal_limit", "lambda_one", "types", "mardia"])
def test_plug_in_critical_values_are_conservative(method):
    # the secant solve accepts only a t whose bound is in the window, and
    # a factor method's log F - log alpha is stepped up until its bound is
    # at most alpha; at desk-scale shapes, at butterfly-scale ones and at the
    # extreme levels
    rng = np.random.default_rng(61)
    cases = [
        (ExperimentShape(int(rng.integers(2, 40)), int(rng.integers(1, 3000))), float(10 ** rng.uniform(-8, -0.5)))
        for _ in range(30)
    ]
    cases += [
        (ExperimentShape(int(rng.integers(2, 501)), int(rng.integers(1, 2101))), alpha)
        for alpha in (1e-300, 1 - 1e-6, 0.05)
        for _ in range(4)
    ]
    cases += [(ExperimentShape(436, 2029), alpha) for alpha in (1e-300, 1 - 1e-6)]
    for shape, alpha in cases:
        t_star = critical_value(CriticalValueQuery(shape, alpha, method=method))
        achieved = evaluate_bound(method, TailQuery(shape, t_star)).value
        assert math.isfinite(t_star)
        assert alpha * (1 - 1e-9) <= achieved <= alpha, (shape, alpha)


def test_plug_in_bracket_holds_on_random_shapes():
    # each plug-in bound is at least alpha just above k - 1 and at most alpha
    # at log G(1) + 2(k - 1) - 2 log alpha, the ends the solve starts from
    rng = np.random.default_rng(67)
    for i in range(40):
        shape = ExperimentShape(int(rng.integers(2, 501)), int(rng.integers(1, 2101)))
        alpha = (1e-300, 1 - 1e-6)[i % 2] if i % 4 < 2 else float(10 ** rng.uniform(-12, -0.01))
        hi = log_eval_gkn(build_evaluator(shape), 1.0) + 2.0 * (shape.k - 1) - 2.0 * math.log(alpha)
        just_above = math.nextafter(shape.k - 1.0, math.inf)
        for method in ("corrected", "uncorrected", "agrawal_limit"):
            assert evaluate_bound(method, TailQuery(shape, just_above)).value >= alpha, (method, shape, alpha)
            assert evaluate_bound(method, TailQuery(shape, hi)).value <= alpha, (method, shape, alpha)


def test_plug_in_bracket_failure_is_a_value_error(monkeypatch, capsys):
    query = CriticalValueQuery(ExperimentShape(6, 100), 0.05, method="corrected")
    # a bound of 1 everywhere fails the upper end of the bracket
    monkeypatch.setattr(bounds, "evaluate_bound", lambda method, q: bounds._make_result(method, 0.0))
    with pytest.raises(ValueError, match="'corrected' at k=6, n=100, alpha=0.05: .*upper end"):
        critical_value(query)
    argv = ["critical", "--k", "6", "--n", "100", "--alpha", "0.05", "--method", "corrected"]
    assert main(argv) == 1
    assert "'corrected' at k=6, n=100" in capsys.readouterr().err
    # a bound below the window everywhere fails the lower end: no t is accepted
    monkeypatch.setattr(bounds, "evaluate_bound", lambda method, q: bounds._make_result(method, -50.0))
    with pytest.raises(ValueError, match="'corrected' at k=6, n=100, alpha=0.05: no t"):
        critical_value(query)


def test_direct_inversion_round_trip_to_rounding():
    # the dual and closed-form inversions hit alpha to rounding, not to a bisection tolerance
    rng = np.random.default_rng(53)
    for i in range(40):
        k = int(rng.integers(2, 30))
        n = int(rng.integers(1, 400))
        alpha = float(10 ** rng.uniform(-12, -0.05))
        method = ("exact", "lambda_one", "types", "mardia")[i % 4]
        shape = ExperimentShape(k, n)
        t_star = critical_value(CriticalValueQuery(shape, alpha, method=method))
        achieved = evaluate_bound(method, TailQuery(shape, t_star)).value
        assert achieved == pytest.approx(alpha, rel=1e-12)


def test_exact_inversion_minimizer_below_first_grid_point():
    shape = ExperimentShape(2, 1000)
    alpha = 1 - 1e-6
    t_star = critical_value(CriticalValueQuery(shape, alpha))
    result = chernoff_exact(TailQuery(shape, t_star))
    assert 0.0 < result.lambda_used < 1.0 / 511
    assert result.value == pytest.approx(alpha, rel=1e-12)


@pytest.mark.parametrize("method", BOUND_METHODS)
@pytest.mark.parametrize("k, n, alpha", [(2, 1000, 1 - 1e-6), (3, 5, 1e-300)])
def test_inversion_extreme_alpha(method, k, n, alpha):
    shape = ExperimentShape(k, n)
    t_star = critical_value(CriticalValueQuery(shape, alpha, method=method))
    achieved = evaluate_bound(method, TailQuery(shape, t_star)).value
    assert achieved == pytest.approx(alpha, rel=1e-9)


def _bisect_reference(method, shape, alpha):
    """Crossing of bound(t) = alpha by doubling and plain bisection on t."""

    def above(t):
        if method in ("corrected", "uncorrected") and t <= shape.k - 1:
            return True
        return evaluate_bound(method, TailQuery(shape, t)).value > alpha

    lo, hi = 1e-9, 1.0
    while above(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("method", BOUND_METHODS)
@pytest.mark.parametrize("k, n, alpha", [(2, 7, 0.3), (5, 40, 0.05), (12, 300, 1e-4), (31, 93, 0.119)])
def test_inversion_matches_bisection_reference(method, k, n, alpha):
    shape = ExperimentShape(k, n)
    t_star = critical_value(CriticalValueQuery(shape, alpha, method=method))
    assert abs(t_star - _bisect_reference(method, shape, alpha)) <= 1e-6


def test_exact_dual_matches_dense_scan_at_convex_then_concave_shape():
    # At (31, 93) log G is convex on [0, ~0.775] and concave after, and the
    # dual's minimizer is interior: t* = 39.0621, where lambda = 1 gives 39.51.
    # The bisection reference inverts chernoff_exact, which shares the lambda
    # search, so a search that errs in both agrees with it; a scan does not.
    shape, alpha = ExperimentShape(31, 93), 0.119
    lams = np.linspace(0.0, 1.0, 20_001)[1:]
    dense = float(((log_eval_gkn_grid(build_evaluator(shape), lams) - math.log(alpha)) / lams).min())
    t_star = critical_value(CriticalValueQuery(shape, alpha))
    assert t_star <= dense + 1e-12
    assert t_star == pytest.approx(dense, abs=1e-6)
    assert t_star == pytest.approx(39.0621, abs=1e-4)


def test_exact_inversion_at_butterfly_shape_regression():
    # value before each coefficient table was cut per lambda
    t_star = critical_value(CriticalValueQuery(ExperimentShape(436, 2029), 0.05, method="exact"))
    assert t_star == pytest.approx(481.20148494857443, rel=1e-12)


def test_binary_kl():
    assert binary_kl(0.3, 0.3) == 0.0
    assert binary_kl(0.0, 0.5) == pytest.approx(math.log(2))
    assert binary_kl(1.0, 0.25) == pytest.approx(math.log(4))
    assert binary_kl(0.5, 1.0) == math.inf
    with pytest.raises(ValueError):
        binary_kl(-0.1, 0.5)


def test_binary_kl_matches_the_decimal_reference():
    # equal to rounding, +inf cases included.  SciPy's rel_entr(a, v) +
    # rel_entr(1 - a, 1 - v) is 2.8e-8 off at (0, 1e-9) and 4.2e-11 off at
    # (1e-9, 1e-300), from the rounded complements
    grid = (0.0, 1e-300, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0)
    for a in grid:
        for v in grid:
            ref = float(_decimal_kl(a, v, digits=100))
            assert binary_kl(a, v) == pytest.approx(ref, rel=1e-15, abs=0.0), (a, v)


def test_binary_kl_is_accurate_relative_to_the_separation():
    # the complement form was negative at 165 of 1,000 inputs with
    # |v - a| <= 1e-9 and 26% off at some v < a
    rng = np.random.default_rng(71)
    cases = 0
    for i in range(5000):
        a = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1e-12)), 1.0 - float(rng.uniform(0.0, 1e-12)))[i % 3]
        step = 10.0 ** float(rng.uniform(-12.0, -0.3))
        v = a + step if rng.integers(2) else a - step
        if not 0.0 < v < 1.0:
            v = 2.0 * a - v
        if not 0.0 < v < 1.0 or not 0.0 < a < 1.0:
            continue
        cases += 1
        d = binary_kl(a, v)
        ref = _decimal_kl(a, v, digits=100)
        assert d >= 0.0, (a, v)
        assert abs(Decimal(d) - ref) <= ref * Decimal(1e-15 / abs(v - a)), (a, v, d, ref)
    assert cases > 4900


def test_binary_kl_is_never_negative_a_few_ulp_apart():
    # the complement form goes negative here, and so does the log1p form
    # unclamped (39 of 1,500 one-ulp separations)
    rng = np.random.default_rng(73)
    for i in range(6000):
        a = float(rng.uniform(0.0, 1.0))
        v = a
        for _ in range(i % 4 + 1):
            v = math.nextafter(v, 1.0 if i % 8 < 4 else 0.0)
        assert binary_kl(a, v) >= 0.0, (a, v)


def test_coord_upper_closed_form_for_unseen():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(1, 5000))
        t = float(rng.uniform(0.01, 50.0))
        phat = ProbVector((0.0, 0.4, 0.6))
        ci = coord_upper_bound(phat, ExperimentShape(3, n), 1, t)
        assert ci.upper == pytest.approx(1 - math.exp(-t / n), abs=1e-9)


def test_coord_upper_butterfly_value():
    phat = ProbVector((0.0, 1.0 - 0.0))
    ci = coord_upper_bound(phat, ExperimentShape(2, 2029), 1, 481.20)
    assert ci.upper == pytest.approx(1 - math.exp(-481.20 / 2029), abs=1e-9)
    assert ci.upper == pytest.approx(0.2111, abs=5e-4)


def test_coord_upper_degenerate_pointmass():
    ci = coord_upper_bound(ProbVector((1.0, 0.0)), ExperimentShape(2, 5), 1, 0.3)
    assert ci.upper == 1.0


def test_coord_upper_validation():
    phat = ProbVector((0.5, 0.5))
    with pytest.raises(ValueError):
        coord_upper_bound(phat, ExperimentShape(2, 4), 1, 0.0)
    with pytest.raises(ValueError):
        coord_upper_bound(phat, ExperimentShape(2, 4), 1, math.inf)
    with pytest.raises(ValueError):
        coord_upper_bound(phat, ExperimentShape(2, 4), 0, 1.0)
    with pytest.raises(ValueError):
        coord_upper_bound(phat, ExperimentShape(2, 4), 3, 1.0)
    with pytest.raises(ValueError):
        coord_upper_bound(phat, ExperimentShape(3, 4), 1, 1.0)


def test_coord_upper_feasibility():
    rng = np.random.default_rng(47)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 100))
        counts = rng.multinomial(n, np.ones(k) / k)
        phat = ProbVector(tuple(c / n for c in counts))
        t = float(rng.uniform(0.05, 20.0))
        coord = int(rng.integers(1, k + 1))
        ci = coord_upper_bound(phat, ExperimentShape(k, n), coord, t)
        a = phat.probs[coord - 1]
        assert a <= ci.upper <= 1.0
        if ci.upper < 1.0:
            assert n * binary_kl(a, ci.upper) <= t + 1e-9
            if ci.upper + 1e-6 < 1.0:
                assert n * binary_kl(a, ci.upper + 1e-6) > t


def test_coord_upper_is_never_below_the_ball_edge():
    # (0.4, 0.6) at n = 10 is the ci-coord example; the lower end of the
    # final bisection bracket lies up to 1e-12 inside the ball
    shape = ExperimentShape(2, 10)
    alpha_t = critical_value(CriticalValueQuery(shape, 0.1))
    cases = [(ProbVector((0.4, 0.6)), shape, 2, t) for t in (1.0, alpha_t)]
    rng = np.random.default_rng(53)
    for _ in range(50):
        k, n = int(rng.integers(2, 6)), int(rng.integers(1, 100))
        phat = ProbVector(tuple(c / n for c in rng.multinomial(n, np.ones(k) / k)))
        cases.append((phat, ExperimentShape(k, n), int(rng.integers(1, k + 1)), float(rng.uniform(0.05, 20.0))))
    for phat, shape, coord, t in cases:
        a = phat.probs[coord - 1]
        ci = coord_upper_bound(phat, shape, coord, t)
        if a < 1.0:
            assert shape.n * binary_kl(a, ci.upper) >= t


def test_coord_upper_monotone_in_t():
    phat = ProbVector((0.3, 0.7))
    shape = ExperimentShape(2, 10)
    uppers = [coord_upper_bound(phat, shape, 1, t).upper for t in (0.1, 0.5, 2.0, 8.0)]
    assert all(b >= a for a, b in zip(uppers, uppers[1:]))


def test_unseen_single_observation():
    table = FrequencyTable.from_counts([1])
    ci = unseen_upper_bound(table, 0.05)
    # k=2, n=1: exact bound is 2 e^{-t}, so t = log(2/alpha); upper = 1 - e^{-t}
    t_expected = math.log(2 / 0.05)
    assert ci.t_used == pytest.approx(t_expected, rel=1e-9)
    assert ci.upper == pytest.approx(1 - math.exp(-t_expected), abs=1e-9)
    assert ci.coord == 2
    assert ci.alpha == 0.05


def test_unseen_shrinks_as_alpha_grows():
    table = FrequencyTable.from_counts([3, 2, 4, 1])
    cis = [unseen_upper_bound(table, a) for a in (0.01, 0.1, 0.5, 0.9)]
    assert all(b.upper < a.upper for a, b in zip(cis, cis[1:]))
    # each answer re-checks outside the ball with the public binary_kl
    assert all(table.n * binary_kl(0.0, ci.upper) > ci.t_used for ci in cis)


def test_coverage_conservative_at_desk_scale():
    shape = ExperimentShape(3, 10)
    p = ProbVector((0.2, 0.3, 0.5))
    t = critical_value(CriticalValueQuery(shape, 0.1))
    assert tail_exact(shape, p, t) <= 0.1


def test_coordinate_ci_fields():
    ci = CoordinateCI(coord=1, upper=0.4, t_used=2.0)
    assert ci.alpha is None


def _decimal_kl(a, v, digits=50):
    """d(a, v) in decimal from the exact binary values of a and v, with
    ``digits`` more than the smaller of a and v has leading zeros, so 1 - a
    and 1 - v keep their own digits."""
    a, v = Decimal(a), Decimal(v)
    one = Decimal(1)
    with localcontext() as ctx:
        ctx.prec = digits + max(0, -v.adjusted(), -a.adjusted())
        if (v == one and a != one) or (v == 0 and a != 0):
            return Decimal("Infinity")
        out = (one - a) * ((one - a) / (one - v)).ln() if a != one else Decimal(0)
        return out + a * (a / v).ln() if a else out


def _decimal_ball_root(a, n, t):
    """The root v of n d(a, v) = t in (a, 1), by bisection on log v in decimal,
    independent of the float solver and of binary_kl."""
    target = Decimal(t) / Decimal(n)
    with localcontext() as ctx:
        ctx.prec = 60
        lo, hi = Decimal(a).ln(), Decimal(0)
        for _ in range(130):
            mid = (lo + hi) / 2
            if _decimal_kl(a, mid.exp()) > target:
                hi = mid
            else:
                lo = mid
        return hi.exp()


def _assert_tight_ball_edge(a, n, t, upper):
    """upper is outside the ball by the true d, never below its edge, and
    above it by at most 1e-12 of it."""
    root = _decimal_ball_root(a, n, t)
    assert Decimal(n) * _decimal_kl(a, upper) >= Decimal(t)
    assert root <= Decimal(upper) <= root * (1 + Decimal("1e-12")), (a, n, t, upper, root)


@pytest.mark.parametrize("a", [1e-12, 1e-9, 1 / 2029])
@pytest.mark.parametrize("n, t", [(2029, 481.2), (2029, 0.01), (10**9, 3.0), (10**12 + 1, 5.74386451836333)])
def test_coord_upper_is_tight_relative_to_the_root(a, n, t):
    # bisection to a 1e-12 absolute width left small coordinates loose: at
    # a = 1e-12, n = 10^12 + 1 the bound was 2.8% above the root
    ci = coord_upper_bound(ProbVector((1.0 - a, a)), ExperimentShape(2, n), 2, t)
    _assert_tight_ball_edge(a, n, t, ci.upper)


def test_ci_coord_small_coordinate_matches_the_decimal_root():
    # ci-coord --counts 1000000000000,1 --coord 2 --alpha 0.05, at the t(0.05)
    # it prints: the root is 8.9337e-12, and the bisection printed 9.18545231594717e-12
    n = 10**12 + 1
    phat = ProbVector((10**12 / n, 1 / n))
    ci = coord_upper_bound(phat, ExperimentShape(2, n), 2, 5.74386451836333)
    assert ci.upper == pytest.approx(8.9337e-12, rel=1e-4)
    _assert_tight_ball_edge(1 / n, n, 5.74386451836333, ci.upper)


@pytest.mark.parametrize(
    "a, n, t",
    [
        (0.4, 10, 1e-300),  # the bisection returned a + 9.1e-13
        (0.6, 3, 1e-300),
        (1 - 1e-12, 10, 1e-13),
        (1 - 1e-12, 1, 1e-12),
        (0.3, 10, 1e-6),
        (0.9, 3, 1.1),
    ],
)
def test_coord_upper_edge_cases_are_tight(a, n, t):
    ci = coord_upper_bound(ProbVector((a, 1.0 - a)), ExperimentShape(2, n), 1, t)
    assert a < ci.upper <= 1.0
    _assert_tight_ball_edge(a, n, t, ci.upper)


@pytest.mark.parametrize("a, n, t", [(0.4, 10, 1e300), (1 - 1e-12, 10, 1.0), (0.5, 1, 40.0), (0.0, 1, 800.0)])
def test_coord_upper_is_one_when_the_ball_reaches_past_every_float_below_one(a, n, t):
    ci = coord_upper_bound(ProbVector((a, 1.0 - a)), ExperimentShape(2, n), 1, t)
    assert ci.upper == 1.0
    assert n * binary_kl(a, math.nextafter(1.0, 0.0)) <= t


@pytest.mark.parametrize("n, t", [(10, 1.0), (2029, 481.2), (10**12, 3.0), (7, 1e-300), (3, 30.0)])
def test_coord_upper_at_zero_is_the_closed_form(n, t):
    ci = coord_upper_bound(ProbVector((0.0, 1.0)), ExperimentShape(2, n), 1, t)
    closed = -math.expm1(-t / n)
    assert closed <= ci.upper <= closed * (1 + 1e-12)
    assert Decimal(n) * _decimal_kl(0.0, ci.upper) >= Decimal(t)


def test_coord_upper_answers_re_check_with_binary_kl():
    # every answer below 1 is outside the ball by the public binary_kl; with
    # the complement form, 243 of 2,000 were inside it by that function
    rng = np.random.default_rng(79)
    cases = [(0.37636541261165457, 10**11, 25.316405816136392)]
    for _ in range(2000):
        cases.append((float(rng.uniform(0.0, 1.0)), int(10 ** rng.uniform(6.0, 15.0)), float(rng.uniform(0.5, 30.0))))
    for a, n, t in cases:
        upper = coord_upper_bound(ProbVector((a, 1.0 - a)), ExperimentShape(2, n), 1, t).upper
        assert upper == 1.0 or n * binary_kl(a, upper) > t, (a, n, t, upper)
    # the pinned case: n * d is 25.3164067 there, and the complement form read
    # 25.3164011, inside the ball
    a, n, t = cases[0]
    upper = coord_upper_bound(ProbVector((a, 1.0 - a)), ExperimentShape(2, n), 1, t).upper
    assert upper == 0.3763763141463617
    assert binary_kl(a, upper) == pytest.approx(float(_decimal_kl(a, upper, digits=100)), rel=1e-15 / (upper - a))


def test_coord_upper_rejects_a_level_below_float_resolution():
    with pytest.raises(ValueError, match="below the least normal float"):
        coord_upper_bound(ProbVector((0.5, 0.5)), ExperimentShape(2, 10**6), 1, 1e-305)
