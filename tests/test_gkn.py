import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

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

F = Fraction

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
    ev = build_evaluator(ExperimentShape(*shape))
    assert ev.exact_coeffs == coeffs


def test_shape_validation():
    with pytest.raises(ValueError):
        ExperimentShape(0, 3)
    with pytest.raises(ValueError):
        ExperimentShape(2, -1)


def test_degenerate_shapes_are_constant_one():
    for shape in (ExperimentShape(1, 7), ExperimentShape(5, 0), ExperimentShape(1, 0)):
        ev = build_evaluator(shape)
        assert ev.exact_coeffs == (F(1),)
        for lam in (0.0, 0.3, 1.0):
            assert eval_gkn(ev, lam) == 1.0


@pytest.mark.parametrize("k,n", [(2, 1), (3, 5), (7, 12), (30, 30), (100, 50), (436, 2029)])
def test_log_coefficient_invariants(k, n):
    ev = build_evaluator(ExperimentShape(k, n))
    assert ev.log_coeffs[0] == 0.0
    assert ev.log_coeffs[1] == pytest.approx(math.log(k - 1), rel=1e-12)
    if ev.exact_coeffs is not None:
        for log_c, exact in zip(ev.log_coeffs, ev.exact_coeffs):
            assert math.exp(log_c) == pytest.approx(float(exact), rel=1e-12)


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
    ev = build_evaluator(ExperimentShape(5, 17))
    grid = np.linspace(0.0, 1.0, 37)
    vec = log_eval_gkn_grid(ev, grid)
    for lam, expected in zip(grid, vec):
        assert log_eval_gkn(ev, float(lam)) == pytest.approx(expected, rel=1e-14, abs=1e-14)
    with pytest.raises(ValueError):
        log_eval_gkn_grid(ev, np.array([0.5, 1.5]))


def test_derivative_examples():
    ev = build_evaluator(ExperimentShape(2, 2))
    assert eval_gkn_deriv(ev, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert eval_gkn_deriv(ev, 1.0) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        eval_gkn_deriv(build_evaluator(ExperimentShape(1, 3)), 0.5)


def test_derivative_matches_finite_difference():
    ev = build_evaluator(ExperimentShape(3, 4))
    lam, h = 0.3, 1e-6
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


def test_recurrence_examples():
    assert recurrence_residual(2, 1, 0.5) == pytest.approx(0.0, abs=1e-14)
    for lam in (0.0, 0.25, 0.7, 1.0):
        g = eval_gkn(build_evaluator(ExperimentShape(3, 2)), lam)
        assert abs(recurrence_residual(3, 2, lam)) <= 1e-10 * g
    g = eval_gkn(build_evaluator(ExperimentShape(5, 9)), 1.0)
    assert abs(recurrence_residual(5, 9, 1.0)) <= 1e-10 * g


def test_monotone_in_n_and_dominated_by_limit():
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
        base = list(build_evaluator(ExperimentShape(2, n)).exact_coeffs)
        coeffs = [F(0)] * (k - 2) + base
        for _ in range(k - 2):
            coeffs = [coeffs[i] * i for i in range(1, len(coeffs))]
        coeffs = [c / math.factorial(k - 2) for c in coeffs]
        assert tuple(coeffs) == build_evaluator(ExperimentShape(k, n)).exact_coeffs


def test_log_scaling_in_k():
    for n in (1, 2, 5):
        for k in (10**2, 10**3, 10**4, 10**5, 10**6):
            ratio = log_eval_gkn(build_evaluator(ExperimentShape(k, n)), 1.0) / (n * math.log(k))
            assert 0.5 <= ratio <= 1.5


def test_single_draw_polynomial_is_affine():
    for k in (2, 5, 17):
        assert build_evaluator(ExperimentShape(k, 1)).exact_coeffs == (F(1), F(k - 1))


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
