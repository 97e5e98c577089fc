import math

import numpy as np
import pytest

from klchernoff.bounds import TailQuery, evaluate_bound
from klchernoff.data import FrequencyTable
from klchernoff.gkn import ExperimentShape
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


def test_binary_kl():
    assert binary_kl(0.3, 0.3) == 0.0
    assert binary_kl(0.0, 0.5) == pytest.approx(math.log(2))
    assert binary_kl(1.0, 0.25) == pytest.approx(math.log(4))
    assert binary_kl(0.5, 1.0) == math.inf
    with pytest.raises(ValueError):
        binary_kl(-0.1, 0.5)


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
    uppers = [unseen_upper_bound(table, a).upper for a in (0.01, 0.1, 0.5, 0.9)]
    assert all(b < a for a, b in zip(uppers, uppers[1:]))


def test_coverage_conservative_at_desk_scale():
    shape = ExperimentShape(3, 10)
    p = ProbVector((0.2, 0.3, 0.5))
    t = critical_value(CriticalValueQuery(shape, 0.1))
    assert tail_exact(shape, p, t) <= 0.1


def test_coordinate_ci_fields():
    ci = CoordinateCI(coord=1, upper=0.4, t_used=2.0)
    assert ci.alpha is None
