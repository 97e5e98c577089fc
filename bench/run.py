"""Benchmark of klchernoff: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload curves --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics (set-up time,
throughput, median and tail latency, peak memory) with nothing wrapped.
With ``--trace 1`` it runs the workload's operations once untraced and once
traced, reports per-layer metrics from the traced pass, the tracing
overhead (traced over untraced wall time), and the layer probes.

Every operation's output is checked against ``bench/refs.json`` after the
timed loop.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the run's metadata and every metric by name with its unit.
``--inject-fault`` perturbs the first operation's result before it is
checked, to show that the checks count it as failed.

Exit codes: 0 result printed, 2 the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

import numpy
import scipy

import probes
import tracing
import workloads
from common import BENCH, ROOT, ProgramMissing, child_env, import_program

SETUP_RUNS = 7
SEGMENTS = 5
SEGMENT_MIN_OPS = 100
IMPORTTIME_RUNS = 3
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-fault", action="store_true", help="perturb one result to test the checks")
    return p.parse_args(argv)


# ------------------------------------------------------------------- set-up


def fresh_interpreter_setup(workload: str) -> float:
    """Median over fresh interpreters of importing the program and loading inputs."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "setup", workload],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def import_times() -> dict[str, tuple[float, str]]:
    """Cumulative import time of ``klchernoff.cli`` and of ``scipy.special`` within it."""
    cli_s, scipy_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import klchernoff.cli"],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
            if match:
                cumulative.setdefault(match.group(2), int(match.group(1)) * 1e-6)
        cli_s.append(cumulative.get("klchernoff.cli", 0.0))
        scipy_s.append(cumulative.get("scipy.special", 0.0))
    return {
        "cli.import_s": (statistics.median(cli_s), "s"),
        "cli.import_scipy_special_s": (statistics.median(scipy_s), "s"),
    }


def metadata(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# --------------------------------------------------------------------- loop


def timed_loop(runner, block_source, seconds: float):
    """Run whole blocks until ``seconds`` have passed.

    Returns the records ``(op, result, error, latency)`` and, after each
    block, the number of records so far and the elapsed time.
    """
    records, marks = [], []
    start = time.perf_counter()
    for block in block_source:
        if time.perf_counter() - start >= seconds:
            break
        for op in block:
            t0 = time.perf_counter()
            try:
                result, error = runner.run(op), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            records.append((op, result, error, time.perf_counter() - t0))
        marks.append((len(records), time.perf_counter() - start))
    return records, marks


def replay(runner, ops):
    """Run a fixed list of operations; returns (records, wall)."""
    records, marks = timed_loop(runner, iter([ops]), float("inf"))
    return records, marks[-1][1]


def check_records(records, K, inputs, refs, inject_fault: bool):
    failed = 0
    for i, (op, result, error, _) in enumerate(records):
        if error is None and inject_fault and i == 0:
            result = workloads.tamper(op, result)
        problems = [error] if error is not None else workloads.check(op, result, K, inputs, refs)
        if problems:
            failed += 1
            if failed <= 5:
                print(f"FAILED {op.kind}{op.args[:3]}: {'; '.join(problems[:3])}")
    return failed


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile with >= TAIL_BEYOND samples beyond it.

    With too few samples for that percentile to lie above the median, the
    maximum is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.2f} of {n} samples"
    return ordered[-1], f"max of {n} samples"


def loop_metrics(records, marks) -> dict[str, tuple[float, str]]:
    """Throughput and latency of a timed loop.

    The loop is cut into up to ``SEGMENTS`` stretches of whole blocks with
    at least ``SEGMENT_MIN_OPS`` operations each; throughput and tail
    latency are the medians over the stretches, so a burst of load from
    outside the benchmark moves them less.  The median latency is over all
    operations.
    """
    wall = marks[-1][1]
    count = max(1, min(SEGMENTS, len(records) // SEGMENT_MIN_OPS))
    rates, tails, labels = [], [], []
    lo_ops, lo_t = 0, 0.0
    for j in range(count):
        # the first mark at or past the segment's share of the wall time
        hi_ops, hi_t = next((m for m in marks if m[1] >= wall * (j + 1) / count), marks[-1])
        ok = [lat for _, _, error, lat in records[lo_ops:hi_ops] if error is None]
        if ok:
            rates.append(len(ok) / (hi_t - lo_t))
            tail, label = tail_latency(ok)
            tails.append(tail)
            labels.append(label)
        lo_ops, lo_t = hi_ops, hi_t
    ok = [lat for _, _, error, lat in records if error is None]
    if not ok:  # every operation failed; the result line reports it
        return {"ops_per_s": (0.0, "op/s"), "latency_p50_ms": (0.0, "ms"), "latency_tail_ms": (0.0, "ms")}
    print(f"note latency_tail_ms is the median over {len(tails)} segments of: {', '.join(labels)}")
    return {
        "ops_per_s": (statistics.median(rates), "op/s"),
        "latency_p50_ms": (statistics.median(ok) * 1e3, "ms"),
        "latency_tail_ms": (statistics.median(tails) * 1e3, "ms"),
    }


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def trace_run(K, workload: str, runner, source, seconds: float):
    """Half the loop untraced, the same operations traced, then the probes.

    Both passes start from an empty evaluator cache.  Returns the records of
    both passes and the per-layer metrics.
    """
    cache_clear = getattr(getattr(K.bounds, "_evaluator", None), "cache_clear", lambda: None)
    cache_clear()
    plain, marks = timed_loop(runner, source, seconds / 2.0)
    cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        inputs = workloads.load_inputs(workload, K)  # traced, for data.load_s
        runner = workloads.Runner(K, inputs, traced_cli=workload == "cli-cold")
        traced, traced_wall = replay(runner, [op for op, *_ in plain])
    finally:
        tracer.uninstall()
    for child in runner.child_traces:
        tracer.merge(child)
    metrics = import_times()
    metrics.update(tracing.layer_metrics(tracer, probes.reference_query_trace(K)))
    metrics["tracing_overhead"] = (traced_wall / marks[-1][1], "ratio")
    metrics.update(probes.run_probes(K))
    return plain + traced, metrics


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        K = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(metadata(args), sort_keys=True))
    refs = workloads.load_refs()
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        metrics["setup_s"] = (fresh_interpreter_setup(args.workload), "s")

    inputs = workloads.load_inputs(args.workload, K)
    source = workloads.blocks(args.workload, args.seed, K, inputs)
    runner = workloads.Runner(K, inputs)

    # warm-up: one untimed operation finishes lazy set-up and loads the OS file cache
    runner.run(next(source)[0])

    if args.trace == 0:
        records, marks = timed_loop(runner, source, args.seconds)
        metrics.update(loop_metrics(records, marks))
        metrics["peak_rss_mib"] = (peak_rss_mib(args.workload), "MiB")
    else:
        records, traced_metrics = trace_run(K, args.workload, runner, source, args.seconds)
        metrics.update(traced_metrics)

    failed = check_records(records, K, inputs, refs, args.inject_fault)
    attempted = len(records)
    print(f"note error_rate = {failed / attempted if attempted else 0.0!r} ratio ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
