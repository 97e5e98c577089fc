import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import klchernoff
from klchernoff import verify
from klchernoff.cli import main
from klchernoff.data import butterfly_fixture_path
from klchernoff.gkn import build_evaluator
from klchernoff.verify import run_suite

NUMBER_OR_NULL = {"type": ["number", "null"]}
PROBABILITY = {"type": "number", "minimum": 0.0, "maximum": 1.0}

BOUND_ROW_SCHEMA = {
    "type": "object",
    "required": ["method", "value", "log_value", "lambda_used", "meaningful"],
    "properties": {
        "method": {"type": "string"},
        "value": PROBABILITY,
        "log_value": {"type": "number"},
        "lambda_used": NUMBER_OR_NULL,
        "meaningful": {"type": "boolean"},
        "reference_only": {"type": "boolean"},
    },
}
BOUND_SCHEMA = {
    "type": "object",
    "required": ["k", "n", "t", "bounds"],
    "properties": {
        "k": {"type": "integer"},
        "n": {"type": "integer"},
        "t": {"type": "number"},
        "bounds": {"type": "array", "items": BOUND_ROW_SCHEMA},
    },
}
CRITICAL_SCHEMA = {
    "type": "object",
    "required": ["k", "n", "alpha", "method", "t_critical", "bound_at_t", "round_trip_rel_error"],
    "properties": {"bound_at_t": PROBABILITY, "alpha": PROBABILITY},
}
CI_SCHEMA = {
    "type": "object",
    "required": ["k", "n", "coord", "t_used", "upper"],
    "properties": {"upper": PROBABILITY, "alpha": PROBABILITY},
}
MC_SCHEMA = {
    "type": "object",
    "required": ["k", "n", "t", "samples", "seed", "hits", "estimate", "std_error"],
    "properties": {"estimate": PROBABILITY},
}


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_single_method_json(capsys):
    code, out, _ = run_cli(capsys, "bound", "--k", "6", "--n", "100", "--t", "12", "--method", "exact")
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, BOUND_SCHEMA)
    assert len(record["bounds"]) == 1
    assert record["bounds"][0]["method"] == "exact"


def test_bound_all_methods_marks_reference(capsys):
    code, out, _ = run_cli(capsys, "bound", "--k", "3", "--n", "10", "--t", "6")
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, BOUND_SCHEMA)
    methods = {row["method"]: row for row in record["bounds"]}
    assert len(methods) == 8
    assert methods["asymp_gamma"].get("reference_only") is True
    assert all("reference_only" not in row for m, row in methods.items() if m != "asymp_gamma")


def test_bound_types_value(capsys):
    code, out, _ = run_cli(capsys, "bound", "--k", "2", "--n", "2", "--t", "5", "--method", "types")
    record = json.loads(out)
    assert record["bounds"][0]["value"] == pytest.approx(3 * math.exp(-5), rel=1e-12)


def test_bound_explicit_undefined_method_errors(capsys):
    code, out, err = run_cli(capsys, "bound", "--k", "6", "--n", "100", "--t", "4", "--method", "uncorrected")
    assert code == 1
    assert "t > k - 1" in err


def test_bound_all_skips_undefined_rows(capsys):
    code, out, _ = run_cli(capsys, "bound", "--k", "6", "--n", "100", "--t", "4")
    assert code == 0
    methods = {row["method"] for row in json.loads(out)["bounds"]}
    assert "corrected" not in methods and "uncorrected" not in methods
    assert "exact" in methods


def test_sweep_row_count_and_determinism(capsys):
    args = ("sweep", "--k", "6", "--n", "100", "--t-min", "5.001", "--t-max", "30", "--points", "200")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0] == "t,method,value,log_value"
    assert len(lines) == 1 + 200 * 7
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    # rows ordered by (t, method)
    keys = [(float(l.split(",")[0]), l.split(",")[1]) for l in lines[1:]]
    assert keys == sorted(keys)


def test_sweep_degenerate_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--k", "2", "--n", "2", "--t-min", "5", "--t-max", "5", "--points", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 7


def test_sweep_invalid_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--k", "2", "--n", "2", "--t-min", "5", "--t-max", "4", "--points", "10")
    assert code == 1


def test_critical_closed_form(capsys):
    code, out, _ = run_cli(capsys, "critical", "--k", "2", "--n", "2", "--alpha", "0.5", "--method", "types")
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, CRITICAL_SCHEMA)
    assert record["t_critical"] == pytest.approx(math.log(6), rel=1e-9)
    assert record["round_trip_rel_error"] <= 1e-9


def test_ci_unseen_butterfly(capsys):
    code, out, _ = run_cli(capsys, "ci-unseen", "--data", str(butterfly_fixture_path()), "--alpha", "0.05")
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, CI_SCHEMA)
    assert record["k"] == 436
    assert record["n"] == 2029
    assert record["t_used"] == pytest.approx(481.20, abs=0.5)
    assert record["upper"] == pytest.approx(0.211, abs=1e-3)


def test_ci_unseen_counts_closed_form(capsys):
    code, out, _ = run_cli(capsys, "ci-unseen", "--counts", "5", "--alpha", "0.05")
    assert code == 0
    record = json.loads(out)
    assert record["k"] == 2 and record["n"] == 5
    assert record["upper"] == pytest.approx(1 - math.exp(-record["t_used"] / 5), abs=1e-9)


def test_ci_unseen_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("frequency,species\n3,0\n")
    code, _, err = run_cli(capsys, "ci-unseen", "--data", str(bad), "--alpha", "0.05")
    assert code == 1
    code, _, err = run_cli(capsys, "ci-unseen", "--alpha", "0.05")
    assert code == 1


def test_ci_coord(capsys):
    code, out, _ = run_cli(capsys, "ci-coord", "--counts", "4,6", "--coord", "2", "--alpha", "0.1")
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, CI_SCHEMA)
    assert record["phat_coord"] == pytest.approx(0.6)
    assert record["upper"] > 0.6
    # explicit t bypasses alpha
    code, out, _ = run_cli(capsys, "ci-coord", "--counts", "4,6", "--coord", "2", "--t", "1.0")
    record = json.loads(out)
    assert "alpha" not in record


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-k", "3", "--max-n", "3")
    assert code == 0
    assert "VERIFY: PASS" in out
    assert out.count("checks passed") == 5


def test_verify_fault_injection_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-k", "3", "--max-n", "3", "--inject-fault")
    assert code == 2
    assert "VERIFY: FAIL" in out


def test_verify_builds_each_polynomial_once(monkeypatch):
    # the recurrence property reads three polynomials at each of five lambdas
    built = []

    def counting_build(shape):
        built.append(shape)
        return build_evaluator(shape)

    monkeypatch.setattr(verify, "build_evaluator", counting_build)
    assert all(r.ok for r in run_suite(max_k=3, max_n=3))
    assert len(built) == len(set(built)) == 11


def test_verify_minimal_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-k", "2", "--max-n", "1")
    assert code == 0


def test_verify_empty_grid_exits_one(capsys):
    # an empty shape grid runs no checks, so it must not report PASS
    for args in (("--max-k", "1"), ("--max-n", "0")):
        code, out, err = run_cli(capsys, "verify", *args)
        assert code == 1
        assert out == ""
        assert "max_k >= 2 and max_n >= 1" in err
    with pytest.raises(ValueError):
        run_suite(max_k=1)
    with pytest.raises(ValueError):
        run_suite(max_n=0)


def test_mc_tail_deterministic_and_seeded(capsys, monkeypatch):
    args = ("mc-tail", "--k", "3", "--n", "10", "--t", "1.5", "--samples", "20000", "--seed", "4")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    record = json.loads(out1)
    jsonschema.validate(record, MC_SCHEMA)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, *args, "--workers", "4")
    assert json.loads(out3)["estimate"] == record["estimate"]
    # env var sets the default seed
    monkeypatch.setenv("KLCHERNOFF_SEED", "4")
    _, out4, _ = run_cli(capsys, "mc-tail", "--k", "3", "--n", "10", "--t", "1.5", "--samples", "20000")
    assert json.loads(out4)["seed"] == 4
    assert json.loads(out4)["estimate"] == record["estimate"]


def test_malformed_seed_env_fails_only_the_seeded_commands(capsys, monkeypatch):
    monkeypatch.setenv("KLCHERNOFF_SEED", "abc")
    code, out, _ = run_cli(capsys, "bound", "--k", "6", "--n", "100", "--t", "12")
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "bound_k6_n100_t12.json").read_text()
    for args in (("mc-tail", "--k", "3", "--n", "10", "--t", "1.5"), ("verify",)):
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"klchernoff {args[0]}: error: argument --seed: invalid int value: 'abc'"
        ]
        assert "Traceback" not in err
    # an explicit --seed never reads the environment
    code, out, _ = run_cli(capsys, "mc-tail", "--k", "3", "--n", "10", "--t", "1.5", "--samples", "2000", "--seed", "4")
    assert code == 0
    assert json.loads(out)["seed"] == 4


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "bound", "--k", "2")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "bound", "--k", "2", "--n", "2", "--t", "5", "--method", "bogus")[0] == 1


def test_domain_errors_exit_one(capsys):
    assert run_cli(capsys, "bound", "--k", "0", "--n", "2", "--t", "5")[0] == 1
    assert run_cli(capsys, "bound", "--k", "2", "--n", "2", "--t", "-1")[0] == 1
    assert run_cli(capsys, "critical", "--k", "1", "--n", "5", "--alpha", "0.05")[::2] == (1, "error: tail bounds require k >= 2\n")
    assert run_cli(capsys, "mc-tail", "--k", "2", "--n", "1", "--t", "0.1", "--p", "0.2,0.9")[0] == 1
    assert run_cli(capsys, "mc-tail", "--k", "3", "--n", "10", "--t", "1", "--p", "0.5,0.5,nan")[0] == 1


@pytest.mark.parametrize(
    "args",
    [
        ("ci-coord", "--counts", "4,6", "--coord", "2", "--t", "inf"),
        ("bound", "--k", "3", "--n", "10", "--t", "inf", "--method", "exact"),
        ("bound", "--k", "3", "--n", "10", "--t", "inf"),
        ("sweep", "--k", "3", "--n", "10", "--t-min", "1", "--t-max", "inf", "--points", "5"),
        ("sweep", "--k", "3", "--n", "10", "--t-min", "nan", "--t-max", "3", "--points", "5"),
        ("mc-tail", "--k", "3", "--n", "10", "--t", "nan"),
        ("mc-tail", "--k", "3", "--n", "10", "--t", "inf"),
    ],
)
def test_non_finite_t_exits_one(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_csv_format_uses_ten_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "bound", "--k", "2", "--n", "2", "--t", "5", "--method", "types", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    value = lines[1].split(",")[1]
    assert value == format(3 * math.exp(-5), ".10g")


def test_shape_beyond_the_term_limit_exits_one_under_a_memory_limit():
    # the table of (2, 10^18) would need ~10^10 terms; it is refused before
    # anything is allocated, so a 1 GiB address space is enough
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(klchernoff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["bound", "--k", "2", "--n", str(10**18), "--t", "5", "--method", "corrected"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "klchernoff.cli", *argv],
        env=env, capture_output=True, text=True, preexec_fn=limit_memory, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: shape k=2, n=1000000000000000000 is too large")
    assert len(proc.stderr.splitlines()) == 1
    assert elapsed < 2.0
