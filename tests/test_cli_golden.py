"""Byte-for-byte CLI output against committed fixtures in ``tests/golden``.

Each case runs ``cli.main`` in process and compares stdout with the fixture
of the same name.  To regenerate after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from klchernoff.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_RECORD_COMMANDS = {
    "bound_k6_n100_t12": ["bound", "--k", "6", "--n", "100", "--t", "12"],
    "bound_k6_n100_t4": ["bound", "--k", "6", "--n", "100", "--t", "4"],
    "sweep_k6_n100_20pts": ["sweep", "--k", "6", "--n", "100", "--t-min", "1", "--t-max", "30", "--points", "20"],
    "sweep_all_skipped": [
        "sweep", "--k", "6", "--n", "100", "--t-min", "1", "--t-max", "4", "--points", "3", "--methods", "corrected",
    ],
    "critical_exact": ["critical", "--k", "6", "--n", "100", "--alpha", "0.05", "--method", "exact"],
    "critical_mardia": ["critical", "--k", "6", "--n", "100", "--alpha", "0.05", "--method", "mardia"],
    "critical_corrected": ["critical", "--k", "6", "--n", "100", "--alpha", "0.05", "--method", "corrected"],
    "critical_uncorrected": ["critical", "--k", "6", "--n", "100", "--alpha", "0.05", "--method", "uncorrected"],
    "critical_agrawal_limit": ["critical", "--k", "6", "--n", "100", "--alpha", "0.05", "--method", "agrawal_limit"],
    "critical_lambda_one": ["critical", "--k", "6", "--n", "100", "--alpha", "0.05", "--method", "lambda_one"],
    "critical_types": ["critical", "--k", "6", "--n", "100", "--alpha", "0.05", "--method", "types"],
    "ci_unseen": ["ci-unseen", "--counts", "1,1,2,3,5,8", "--alpha", "0.05"],
    "ci_coord_alpha": ["ci-coord", "--counts", "4,6", "--coord", "2", "--alpha", "0.1"],
    "ci_coord_t": ["ci-coord", "--counts", "4,6", "--coord", "2", "--t", "1.0"],
    "mc_tail": ["mc-tail", "--k", "3", "--n", "10", "--t", "1.5", "--samples", "20000", "--seed", "0"],
}

CASES = {
    f"{name}.{fmt}": argv + ["--format", fmt]
    for name, argv in _RECORD_COMMANDS.items()
    for fmt in ("json", "csv")
}
CASES["verify.txt"] = ["verify", "--max-k", "3", "--max-n", "3", "--seed", "0", "--format", "text"]
CASES["verify.json"] = ["verify", "--max-k", "3", "--max-n", "3", "--seed", "0", "--format", "json"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with redirect_stdout(buf):
            if main(argv) != 0:
                sys.exit(f"{name}: nonzero exit")
        (GOLDEN_DIR / name).write_text(buf.getvalue())
