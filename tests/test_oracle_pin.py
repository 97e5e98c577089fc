"""Bit-for-bit pin of the enumeration oracle's outputs in ``tests/oracle_pin.json``.

Each value is stored as ``float.hex``, so any change in the enumeration order,
the block partition or the reductions shows as a failure.  To regenerate after
an intended change, run ``PYTHONPATH=src python tests/test_oracle_pin.py`` and
review the diff.
"""

import json
from pathlib import Path

import pytest

from klchernoff.gkn import ExperimentShape
from klchernoff.oracle import ProbVector, enumerate_outcomes, gkn_from_definition, mgf_exact, tail_exact

PIN_FILE = Path(__file__).parent / "oracle_pin.json"
LAMBDAS = (0.0, 0.5, 1.0)
THRESHOLDS = (-1.0, 0.0, 0.7, 3.0)


def _probs(k):
    """An interior p, and p with a zero coordinate first and last."""
    ramp = [float(i) for i in range(1, k + 1)]
    vectors = {"interior": ramp, "zero_first": [0.0] + ramp[1:], "zero_last": ramp[:-1] + [0.0]}
    return {name: ProbVector(tuple(v / sum(w) for v in w)) for name, w in vectors.items()}


def _cases():
    settings = [
        (ExperimentShape(k, n), name, p)
        for k in range(2, 6)
        for n in (0, 1, 3, 9)
        for name, p in _probs(k).items()
    ]
    settings.append((ExperimentShape(3, 400), "half_half_zero", ProbVector((0.5, 0.5, 0.0))))
    for shape, name, p in settings:
        key = f"k{shape.k}_n{shape.n}_{name}"
        for lam in LAMBDAS:
            yield f"mgf_exact/{key}/lam={lam}", lambda s=shape, p=p, lam=lam: mgf_exact(s, p, lam)
            yield f"gkn_from_definition/{key}/lam={lam}", lambda s=shape, p=p, lam=lam: gkn_from_definition(s, p, lam)
        for t in THRESHOLDS:
            yield f"tail_exact/{key}/t={t}", lambda s=shape, p=p, t=t: tail_exact(s, p, t)


def _outcome_rows():
    shapes = [ExperimentShape(1, n) for n in (0, 1, 3, 9)] + [ExperimentShape(k, 0) for k in range(2, 6)]
    return {
        f"k{s.k}_n{s.n}": [[list(o.counts), o.log_multinomial_coeff.hex()] for o in enumerate_outcomes(s)]
        for s in shapes
    }


def _record():
    return {"values": {key: fn().hex() for key, fn in _cases()}, "outcomes": _outcome_rows()}


@pytest.fixture(scope="module")
def pin():
    return json.loads(PIN_FILE.read_text())


def test_oracle_values_match_pin(pin):
    got = {key: fn().hex() for key, fn in _cases()}
    assert got.keys() == pin["values"].keys()
    moved = {key: (pin["values"][key], got[key]) for key in got if got[key] != pin["values"][key]}
    assert not moved


def test_outcome_rows_match_pin(pin):
    assert _outcome_rows() == pin["outcomes"]


if __name__ == "__main__":
    PIN_FILE.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
