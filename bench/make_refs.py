"""Regenerate the benchmark's inputs and reference outputs.

    python3 bench/make_refs.py

Writes ``bench/synthetic_tables.csv`` (species-frequency tables drawn from a
fixed generator seed) and ``bench/refs.json`` (every output the workloads
can ask for, computed by the program in ``src/``).  References are meant to
be recorded once from a trusted commit and then kept: a change that moves
them is a change in the program's answers.  Takes about five minutes on a
2-core Xeon, most of it 384 unseen-mass inversions.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter

import numpy as np

from common import REFS_PATH, ROOT, TABLES_PATH, child_env, import_program
import workloads as W

TABLE_SEED = 20030861
K_RANGE = (100, 500)  # observed species, half-open
N_RANGE = (1800, 2201)  # individuals, half-open


def synthetic_tables_csv() -> str:
    """``N_SYNTHETIC`` tables of distinct shape with log-normal species abundances."""
    rng = np.random.default_rng(TABLE_SEED)
    shapes: set[tuple[int, int]] = set()
    lines = ["table,frequency,species"]
    while len(shapes) < W.N_SYNTHETIC:
        k_obs, n = int(rng.integers(*K_RANGE)), int(rng.integers(*N_RANGE))
        if (k_obs, n) in shapes:
            continue
        weights = rng.lognormal(0.0, 1.5, k_obs)
        counts = 1 + rng.multinomial(n - k_obs, weights / weights.sum())
        table_id = f"syn{len(shapes):03d}"
        shapes.add((k_obs, n))
        for frequency, species in sorted(Counter(counts.tolist()).items()):
            lines.append(f"{table_id},{frequency},{species}")
    return "\n".join(lines) + "\n"


def bound_refs(K, grids: dict) -> dict:
    out = {}
    for (k, n), ts in grids.items():
        runner = W.Runner(K, {})
        out[f"{k},{n}"] = {
            repr(t): runner.run(W.Op("bound", (k, n, t, W.bound_methods(K, k, n, t)))) for t in ts
        }
        print(f"bounds at ({k},{n}): {len(ts)} t values", flush=True)
    return out


def cli_refs() -> dict:
    out = {}
    for name, argv in W.CLI_COMMANDS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "klchernoff.cli", *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        out[name] = W.parse_cli(name, proc.stdout)
    return out


def main() -> int:
    K = import_program()
    TABLES_PATH.write_text(synthetic_tables_csv())
    inputs = W.load_inputs("inversion", K)
    runner = W.Runner(K, inputs)
    refs = {
        "bounds": {**bound_refs(K, W.CURVE_GRIDS), **bound_refs(K, W.LARGE_N_GRIDS)},
        "critical": runner.run(W.Op("critical", (W.CRITICAL_ALPHA,))),
        "coord": {str(c): upper for c, upper in runner.run(W.Op("coord", W.COORDS)).items()},
        "cli": cli_refs(),
        "unseen": {},
    }
    for i, table_id in enumerate(sorted(inputs["tables"])):
        refs["unseen"][table_id] = {
            repr(a): list(runner.run(W.Op("unseen", (table_id, a))).values()) for a in W.UNSEEN_ALPHAS
        }
        if i % 32 == 0:
            print(f"unseen references: {i + 1} of {len(inputs['tables'])} tables", flush=True)

    # The recorded answers must pass the benchmark's own checks.
    problems = []
    for table_id, by_alpha in refs["unseen"].items():
        for alpha in W.UNSEEN_ALPHAS:
            t_used, upper = by_alpha[repr(alpha)]
            op = W.Op("unseen", (table_id, alpha))
            problems += W.check(op, {"t_used": t_used, "upper": upper}, K, inputs, refs)
    for key, by_t in refs["bounds"].items():
        k, n = map(int, key.split(","))
        for t_repr, rows in by_t.items():
            t = float(t_repr)
            op = W.Op("bound", (k, n, t, tuple(rows)))
            problems += W.check(op, rows, K, inputs, refs)
    problems += W.check(W.Op("critical", (W.CRITICAL_ALPHA,)), refs["critical"], K, inputs, refs)
    for name in W.CLI_COMMANDS:
        problems += W.check(W.Op("cli", (name,)), {"code": 0, "parsed": refs["cli"][name]}, K, inputs, refs)
    butterfly_t = refs["critical"]["exact"]
    butterfly_upper = refs["unseen"]["butterfly"][repr(0.05)][1]
    if abs(butterfly_t - 481.2014849) > 1e-6 or abs(butterfly_upper - 0.2111364) > 1e-6:
        problems.append(f"butterfly answers moved: t*={butterfly_t!r}, upper={butterfly_upper!r}")
    if problems:
        print("\n".join(problems[:20]), file=sys.stderr)
        return 1
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS_PATH.name} and {TABLES_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
