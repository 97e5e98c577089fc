"""The many-t commands share work across their thresholds: a sweep makes one
lambda grid for the shape, and verify one grid and one enumeration per shape.
The inversions solve directly: a plug-in critical value takes a few bound
evaluations, and a coordinate bound a few evaluations of the binary relative
entropy, where bisection took 29-40.  The shape constants, log G(1) (the
full lambda = 1 sum), log C_T and log C_M, are computed once per shape,
whatever the number of queries.  The calls are counted by wrapping the names
the modules call (the ``count_calls`` fixture)."""

import numpy as np
import pytest

from klchernoff import bounds, inversion, oracle
from klchernoff.bounds import ALL_METHODS, BOUND_METHODS, CriticalValueQuery, TailQuery, critical_value, evaluate_bound
from klchernoff.cli import main
from klchernoff.data import ProbVector
from klchernoff.gkn import ExperimentShape


def test_sweep_makes_one_lambda_grid(count_calls, capsys):
    grids = count_calls(bounds, "log_eval_gkn_grid")
    argv = ["sweep", "--k", "6", "--n", "100", "--t-min", "5.001", "--t-max", "30", "--points", "200"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 200 * 7
    assert len(grids) == 1


def test_verify_makes_one_grid_and_one_enumeration_per_shape(count_calls, capsys):
    grids = count_calls(bounds, "log_eval_gkn_grid")
    enumerations = count_calls(oracle, "_coeff_blocks")
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.endswith("VERIFY: PASS\n")
    # k in [2, 4] and n in [1, 8]: 24 shapes, each enumerated once
    shapes = {(k, n) for k in range(2, 5) for n in range(1, 9)}
    assert sorted((s.k, s.n) for s in enumerations) == sorted(shapes)
    assert len(grids) == 24


@pytest.mark.parametrize("points", [1, 600])
def test_sweep_grid_count_does_not_grow_with_points(count_calls, capsys, points):
    grids = count_calls(bounds, "log_eval_gkn_grid")
    argv = ["sweep", "--k", "3", "--n", "10", "--t-min", "0.5", "--t-max", "20", "--points", str(points), "--methods", "exact"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + points
    assert len(grids) == 1


@pytest.mark.parametrize("method", ["corrected", "uncorrected", "agrawal_limit"])
@pytest.mark.parametrize(
    "k, n, alpha", [(436, 2029, 0.05), (436, 2029, 0.01), (436, 2029, 1e-6), (6, 100, 0.05), (30, 4, 0.05)]
)
def test_plug_in_critical_value_takes_few_bound_evaluations(count_calls, method, k, n, alpha):
    # bisection took 29-38 evaluations at these points, the secant solve 6-10;
    # a silent fallback to bisection fails the ceiling
    evaluations = count_calls(bounds, "evaluate_bound")
    critical_value(CriticalValueQuery(ExperimentShape(k, n), alpha, method))
    assert 1 <= len(evaluations) <= 11
    assert set(evaluations) == {method}


@pytest.mark.parametrize("coord", [1, 2])
@pytest.mark.parametrize("alpha", [None, 0.1])
def test_coordinate_bound_takes_few_divergence_evaluations(count_calls, coord, alpha):
    # the ci-coord example: (0.4, 0.6) at n = 10, at t = 1 and at t(0.1);
    # bisection took 39-40 evaluations, the Newton solve takes 5-6
    shape = ExperimentShape(2, 10)
    t = 1.0 if alpha is None else critical_value(CriticalValueQuery(shape, alpha))
    evaluations = count_calls(inversion, "binary_kl")
    inversion.coord_upper_bound(ProbVector((0.4, 0.6)), shape, coord, t)
    assert 1 <= len(evaluations) <= 7


@pytest.fixture
def shape_constants(count_calls):
    """Empties the evaluator and shape-constant caches, then counts the
    computations of each constant: returns a function giving the number of
    full lambda = 1 sums, of log C_T and of log C_M so far."""
    cached = (bounds._evaluator, bounds._log_g_one, bounds.log_types_factor, bounds.log_mardia_factor)
    for function in cached:
        function.cache_clear()
    lambdas = count_calls(bounds, "log_eval_gkn", arg=1)
    return lambda: (lambdas.count(1.0), cached[2].cache_info().misses, cached[3].cache_info().misses)


def test_bound_queries_compute_each_shape_constant_once(shape_constants):
    # the large-n workload's (2, 10^6) operation, every method, 200 thresholds
    shape = ExperimentShape(2, 10**6)
    for t in np.linspace(1.5, 12.0, 200).tolist():
        for method in ALL_METHODS:
            if bounds.defined_at(method, shape.k, t):
                evaluate_bound(method, TailQuery(shape, t))
    assert shape_constants() == (1, 1, 1)


def test_sweep_computes_each_shape_constant_once(shape_constants, capsys):
    argv = ["sweep", "--k", "6", "--n", "100", "--t-min", "5.001", "--t-max", "30", "--points", "200"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 200 * 7
    assert shape_constants() == (1, 1, 1)


def test_seven_method_critical_computes_each_shape_constant_once(shape_constants, capsys):
    # each critical value and the bound at it, as the critical command gives them
    for method in BOUND_METHODS:
        assert main(["critical", "--k", "436", "--n", "2029", "--alpha", "0.05", "--method", method]) == 0
    assert capsys.readouterr().out.count('"t_critical"') == 7
    assert shape_constants() == (1, 1, 1)
