"""The package and every command, the oracle's verify and mc-tail included,
load no SciPy, numpy.ma, concurrent.futures, fractions or decimal."""

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


def _probe(commands):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(commands=commands, mc_tail=_MC_TAIL)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return [json.loads(line) for line in out]


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
