"""The package and every command, the oracle's verify and mc-tail included,
load no SciPy, numpy.ma, concurrent.futures, fractions or decimal; a bare
``import klchernoff`` loads none of its submodules, and each command loads
only the submodules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import klchernoff

_SRC = str(Path(klchernoff.__file__).resolve().parents[1])

# Prints, one JSON line each: the scipy, numpy.ma, concurrent, fractions and
# decimal modules loaded after the imports, after every command of
# ``commands`` and after the mc-tail command that follows, then that command's
# record.  scipy.special costs ~17 MiB resident; numpy.ma ~1.5 MiB, and
# np.unique imports it; concurrent.futures brings logging and queue along;
# fractions loads decimal, ~2-3 ms of every cold start.
_PROBE = """
import io, json, sys
from contextlib import redirect_stdout

def loaded():
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent", "fractions", "decimal") or m.split(".")[:2] == ["numpy", "ma"])))

import klchernoff, klchernoff.cli
loaded()
with redirect_stdout(io.StringIO()):
    codes = [klchernoff.cli.main(argv) for argv in {commands!r}]
assert codes == [0] * len(codes), codes
loaded()
buf = io.StringIO()
with redirect_stdout(buf):
    assert klchernoff.cli.main({mc_tail!r}) == 0
loaded()
print(json.dumps(json.loads(buf.getvalue())))
"""

_MC_TAIL = ["mc-tail", "--k", "3", "--n", "10", "--t", "1.5", "--samples", "20000", "--seed", "0"]


def _run(code: str) -> list:
    """Run ``code`` in a fresh interpreter; one JSON value per line it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def _probe(commands):
    return _run(_PROBE.format(commands=commands, mc_tail=_MC_TAIL))


def test_import_and_bound_command_load_no_scipy():
    after_import, after_bound, _, _ = _probe([["bound", "--k", "6", "--n", "100", "--t", "12"]])
    assert after_import == []
    assert after_bound == []


def test_inversion_and_oracle_commands_load_no_scipy():
    commands = [
        ["sweep", "--k", "6", "--n", "100", "--t-min", "1", "--t-max", "30", "--points", "5"],
        ["critical", "--k", "6", "--n", "100", "--alpha", "0.05", "--method", "exact"],
        ["critical", "--k", "6", "--n", "100", "--alpha", "0.05", "--method", "lambda_one"],
        ["ci-unseen", "--counts", "1,1,2,3,5,8", "--alpha", "0.05"],
        ["ci-coord", "--counts", "4,6", "--coord", "2", "--alpha", "0.1"],
        ["verify", "--max-k", "3", "--max-n", "4"],
    ]
    after_import, after_commands, after_mc_tail, mc = _probe(commands)
    assert after_import == after_commands == after_mc_tail == []
    # same record as the in-process golden fixture tests/golden/mc_tail.json
    golden = json.loads((Path(__file__).parent / "golden" / "mc_tail.json").read_text())
    assert mc == golden


# Runs one command as the process entry, as ``python -m klchernoff.cli`` does,
# and prints its exit code, the collector's freeze count and the package's
# modules it loaded (the command itself runs as ``__main__``).
_ENTRY_PROBE = """
import gc, io, json, runpy, sys
from contextlib import redirect_stdout

sys.argv = ["klchernoff", *{argv!r}]
try:
    with redirect_stdout(io.StringIO()):
        runpy.run_module("klchernoff.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, gc.get_freeze_count(), sorted(m for m in sys.modules if m.startswith("klchernoff."))]))
"""

_CORE = ["klchernoff.bounds", "klchernoff.gkn", "klchernoff.special"]
_COMMAND_MODULES = [
    (["bound", "--k", "6", "--n", "100", "--t", "12"], []),
    (["sweep", "--k", "6", "--n", "100", "--t-min", "1", "--t-max", "30", "--points", "5"], []),
    (["critical", "--k", "6", "--n", "100", "--alpha", "0.05"], []),
    (["ci-unseen", "--counts", "1,1,2,3,5,8", "--alpha", "0.05"], ["data", "inversion"]),
    (["ci-coord", "--counts", "4,6", "--coord", "2", "--alpha", "0.1"], ["data", "inversion"]),
    (_MC_TAIL, ["data", "oracle"]),
    (["verify", "--max-k", "3", "--max-n", "3"], ["data", "oracle", "verify"]),
]


def test_each_command_loads_only_the_modules_it_runs():
    for argv, extra in _COMMAND_MODULES:
        [(code, frozen, modules)] = _run(_ENTRY_PROBE.format(argv=argv))
        assert code == 0, argv
        assert modules == sorted(_CORE + [f"klchernoff.{m}" for m in extra]), argv
        # the process entry froze the start-up heap
        assert frozen > 0, argv


_PUBLIC = [
    "ALL_METHODS", "BOUND_METHODS", "BoundResult", "CoordinateCI", "CriticalValueQuery", "ExperimentShape",
    "FrequencyTable", "GknEvaluator", "MCTailResult", "Outcome", "ProbVector", "TailQuery",
    "agrawal_limit_bound", "asymp_gamma_tail", "binary_kl", "build_evaluator", "butterfly_fixture_path",
    "butterfly_table", "chernoff_corrected", "chernoff_exact", "chernoff_exact_many", "chernoff_uncorrected",
    "coord_upper_bound", "critical_value", "enumerate_outcomes", "eval_g2n_gamma_form", "eval_gkn",
    "eval_gkn_deriv", "eval_gkn_limit", "evaluate_bound", "gkn_from_definition", "kl_divergence",
    "lambda_one_bound", "log_eval_gkn", "log_eval_gkn_grid", "mardia_bound", "mardia_factor", "mc_tail",
    "meaningful_threshold", "mgf_exact", "n_outcomes", "recurrence_residual", "tail_exact", "types_bound",
    "unseen_upper_bound",
]
_SUBMODULES = ["bounds", "data", "gkn", "inversion", "oracle", "special"]

# Prints the package's modules and dir() after a bare import; for each name,
# whether it is a submodule or the object a submodule holds under that name;
# what a star import binds; and the error an unknown name raises.
_SURFACE_PROBE = """
import importlib, json, sys
import klchernoff

after_import = sorted(m for m in sys.modules if m.startswith("klchernoff."))
listing = dir(klchernoff)
values = {{name: getattr(klchernoff, name) for name in {public!r} + {submodules!r}}}
star = {{}}
exec("from klchernoff import *", star)
try:
    klchernoff.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
subs = [importlib.import_module("klchernoff." + s) for s in {submodules!r}]
resolved = {{
    name: value in subs or any(value is getattr(m, name, None) for m in subs) for name, value in values.items()
}}
print(json.dumps([after_import, resolved, sorted(k for k in star if k != "__builtins__"), listing, unknown, klchernoff.__version__]))
"""


def test_public_surface_resolves_lazily():
    [(after_import, resolved, star, listing, unknown, version)] = _run(
        _SURFACE_PROBE.format(public=_PUBLIC, submodules=_SUBMODULES)
    )
    assert after_import == []
    assert len(_PUBLIC) == 45
    assert klchernoff.__all__ == _PUBLIC
    assert resolved == dict.fromkeys(_PUBLIC + _SUBMODULES, True)
    assert star == _PUBLIC
    assert set(_PUBLIC + _SUBMODULES + ["__version__"]) <= set(listing)
    assert unknown == "module 'klchernoff' has no attribute 'no_such_name'"
    assert version == "0.1.0"
