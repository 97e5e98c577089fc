"""Work the benchmark runs in a fresh interpreter.

    python3 bench/child.py setup <workload>   time import + input loading, print JSON
    python3 bench/child.py cli <args...>      run ``klchernoff <args...>`` traced;
                                              the trace goes to stderr as one
                                              ``BENCH_TRACE {...}`` line
"""

from __future__ import annotations

import json
import sys
import time


def setup(workload: str) -> int:
    start = time.perf_counter()
    from common import import_program

    K = import_program()
    from workloads import load_inputs

    load_inputs(workload, K)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed}))
    return 0


def traced_cli(argv: list[str]) -> int:
    from common import import_program
    from tracing import Tracer

    import_program()
    import klchernoff.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span("cli", klchernoff.cli.main)(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print("BENCH_TRACE " + json.dumps(tracer.export()), file=sys.stderr)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        raise SystemExit(setup(rest[0]))
    if mode == "cli":
        raise SystemExit(traced_cli(rest))
    raise SystemExit(f"unknown mode {mode!r}")
