"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py [--seconds 1]

First, for one operation of every kind in every workload, checks that the
untouched result passes and the perturbed one fails.  Then runs every
workload once with ``--inject-fault``, which perturbs one operation's result
after it is produced and before it is checked, and confirms that the run
counts it: ``failed`` > 0, so the error rate is above zero, and ``correct``
is false.  Exits 1 if any check misses a fault.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import workloads
from common import BENCH, ROOT, import_program
from workloads import WORKLOADS


def every_kind(seed: int) -> list[str]:
    """Workload/operation kinds whose perturbed result the checks do not catch."""
    K = import_program()
    refs = workloads.load_refs()
    missed = []
    for workload in WORKLOADS:
        inputs = workloads.load_inputs(workload, K)
        runner = workloads.Runner(K, inputs)
        seen = set()
        for op in next(workloads.blocks(workload, seed, K, inputs)):
            kind = op.kind if op.kind != "cli" else op.args[0]
            if kind in seen:
                continue
            seen.add(kind)
            result = runner.run(op)
            clean = not workloads.check(op, result, K, inputs, refs)
            caught = bool(workloads.check(op, workloads.tamper(op, result), K, inputs, refs))
            print(f"{workload}/{kind}: clean result {'passes' if clean else 'FAILS'}, "
                  f"perturbed result {'caught' if caught else 'MISSED'}")
            if not (clean and caught):
                missed.append(f"{workload}/{kind}")
    return missed


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    missed = every_kind(args.seed)
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0", "--inject-fault"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        rate = result["failed"] / result["attempted"]
        caught = result["failed"] > 0 and not result["correct"]
        print(f"{workload}: error_rate = {rate:.4f} ({result['failed']} of {result['attempted']}) "
              f"{'caught' if caught else 'MISSED'}")
        if not caught:
            missed.append(workload)
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
