"""The many-t commands share work across their thresholds: a sweep makes one
lambda grid for the shape, and verify one grid and one enumeration per shape.
The calls are counted by wrapping the names the modules call."""

import pytest

from klchernoff import bounds, oracle
from klchernoff.cli import main


def _count(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_makes_one_lambda_grid(monkeypatch, capsys):
    grids = _count(monkeypatch, bounds, "log_eval_gkn_grid")
    argv = ["sweep", "--k", "6", "--n", "100", "--t-min", "5.001", "--t-max", "30", "--points", "200"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 200 * 7
    assert len(grids) == 1


def test_verify_makes_one_grid_and_one_enumeration_per_shape(monkeypatch, capsys):
    grids = _count(monkeypatch, bounds, "log_eval_gkn_grid")
    enumerations = _count(monkeypatch, oracle, "_coeff_blocks")
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.endswith("VERIFY: PASS\n")
    # k in [2, 4] and n in [1, 8]: 24 shapes, each enumerated once
    shapes = {(k, n) for k in range(2, 5) for n in range(1, 9)}
    assert sorted((s.k, s.n) for s in enumerations) == sorted(shapes)
    assert len(grids) == 24


@pytest.mark.parametrize("points", [1, 600])
def test_sweep_grid_count_does_not_grow_with_points(monkeypatch, capsys, points):
    grids = _count(monkeypatch, bounds, "log_eval_gkn_grid")
    argv = ["sweep", "--k", "3", "--n", "10", "--t-min", "0.5", "--t-max", "20", "--points", str(points), "--methods", "exact"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + points
    assert len(grids) == 1
