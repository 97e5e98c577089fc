"""Command-line interface.

Subcommands: bound, sweep, critical, ci-unseen, ci-coord, verify, mc-tail.
All logarithms and deviation levels are natural-log (nats).  Exit codes:
0 success, 1 usage or domain error, 2 verification failure.

Every process is a cold start, so each command loads only the modules it
runs.  ``bounds`` and ``gkn`` (with ``special``) load with this module and
serve ``bound``, ``sweep`` and ``critical``; the ``ci-*`` commands add
``data`` and ``inversion``, ``mc-tail`` adds ``data`` and ``oracle``, and
``verify`` adds ``data``, ``oracle`` and ``verify``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import bounds
from .bounds import CriticalValueQuery, critical_value
from .gkn import ExperimentShape

if TYPE_CHECKING:
    from .data import FrequencyTable
    from .inversion import CoordinateCI

_CSV_DIGITS = 10


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, f".{_CSV_DIGITS}g")
    return str(value)


def _emit(fmt: str, obj, header: list[str], rows: list[dict]) -> None:
    """Print ``obj`` as JSON, or the ``header`` columns of ``rows`` as CSV."""
    if fmt == "json":
        _emit_json(obj)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(_csv_cell(row[key]) for key in header))


def _bound_record(result: bounds.BoundResult) -> dict:
    record = {
        "method": result.method,
        "value": result.value,
        "log_value": result.log_value,
        "lambda_used": result.lambda_used,
        "meaningful": result.meaningful,
    }
    if result.method in bounds.REFERENCE_METHODS:
        record["reference_only"] = True
    return record


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_methods(names: str, allow_reference: bool) -> list[str]:
    if names == "all":
        return list(bounds.ALL_METHODS if allow_reference else bounds.BOUND_METHODS)
    methods = [m.strip() for m in names.split(",") if m.strip()]
    for m in methods:
        if m not in bounds.ALL_METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {bounds.ALL_METHODS}")
    if not methods:
        raise ValueError("empty method list")
    return methods


def _load_table(args) -> FrequencyTable:
    from .data import FrequencyTable

    if args.counts is not None:
        try:
            counts = [int(c) for c in args.counts.split(",") if c.strip()]
        except ValueError:
            raise ValueError(f"--counts must be a comma list of integers, got {args.counts!r}") from None
        return FrequencyTable.from_counts(counts)
    if args.data is not None:
        return FrequencyTable.from_csv_path(args.data)
    raise ValueError("one of --data or --counts is required")


def cmd_bound(args) -> int:
    shape = ExperimentShape(args.k, args.n)
    query = bounds.TailQuery(shape, args.t)
    methods = _parse_methods(args.method, allow_reference=True)
    explicit = args.method != "all"
    records = []
    for method in methods:
        if not explicit and not bounds.defined_at(method, shape.k, args.t):
            continue
        records.append(_bound_record(bounds.evaluate_bound(method, query)))
    _emit(
        args.format,
        {"k": shape.k, "n": shape.n, "t": args.t, "bounds": records},
        ["method", "value", "log_value", "lambda_used", "meaningful", "note"],
        [dict(r, note="reference-only" if r.get("reference_only") else "") for r in records],
    )
    return 0


def cmd_sweep(args) -> int:
    shape = ExperimentShape(args.k, args.n)
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)):
        raise ValueError(f"--t-min and --t-max must be finite, got [{args.t_min}, {args.t_max}]")
    if not 0.0 < args.t_min <= args.t_max:
        raise ValueError(f"need 0 < t-min <= t-max, got [{args.t_min}, {args.t_max}]")
    grid = np.linspace(args.t_min, args.t_max, args.points) if args.points > 1 else np.asarray([args.t_min])
    methods = sorted(_parse_methods(args.methods, allow_reference=False))
    # one lambda search gives the exact bound at every t of the grid
    exact = iter(bounds.chernoff_exact_many(shape, grid) if "exact" in methods else ())
    rows = []
    for t in grid:
        query = bounds.TailQuery(shape, float(t))
        for method in methods:
            if not bounds.defined_at(method, shape.k, t):
                continue
            result = next(exact) if method == "exact" else bounds.evaluate_bound(method, query)
            rows.append({"t": float(t), "method": method, "value": result.value, "log_value": result.log_value})
    _emit(args.format, rows, ["t", "method", "value", "log_value"], rows)
    return 0


def cmd_critical(args) -> int:
    shape = ExperimentShape(args.k, args.n)
    query = CriticalValueQuery(shape=shape, alpha=args.alpha, method=args.method)
    t_star = critical_value(query)
    achieved = bounds.evaluate_bound(args.method, bounds.TailQuery(shape, t_star)).value
    record = {
        "k": shape.k,
        "n": shape.n,
        "alpha": args.alpha,
        "method": args.method,
        "t_critical": t_star,
        "bound_at_t": achieved,
        "round_trip_rel_error": abs(achieved - args.alpha) / args.alpha,
    }
    _emit(args.format, record, list(record), [record])
    return 0


def _ci_record(shape: ExperimentShape, ci: CoordinateCI, extra: dict) -> dict:
    record = {"k": shape.k, "n": shape.n, "coord": ci.coord, "t_used": ci.t_used, "upper": ci.upper}
    if ci.alpha is not None:
        record["alpha"] = ci.alpha
    record.update(extra)
    return record


def cmd_ci_unseen(args) -> int:
    from .inversion import unseen_upper_bound

    table = _load_table(args)
    ci = unseen_upper_bound(table, args.alpha)
    shape = ExperimentShape(table.k_observed + 1, table.n)
    record = _ci_record(shape, ci, {"method": "exact"})
    _emit(args.format, record, list(record), [record])
    return 0


def cmd_ci_coord(args) -> int:
    from .data import ProbVector
    from .inversion import CoordinateCI, coord_upper_bound

    table = _load_table(args)
    shape = ExperimentShape(table.k_observed, table.n)
    if args.t is not None:
        t_used, alpha = args.t, None
    else:
        if args.alpha is None:
            raise ValueError("one of --alpha or --t is required")
        t_used = critical_value(CriticalValueQuery(shape=shape, alpha=args.alpha, method=args.method))
        alpha = args.alpha
    phat = ProbVector(probs=tuple(c / table.n for c in table.counts))
    ci = coord_upper_bound(phat, shape, args.coord, t_used)
    ci = CoordinateCI(coord=ci.coord, upper=ci.upper, t_used=ci.t_used, alpha=alpha)
    record = _ci_record(shape, ci, {"phat_coord": table.counts[args.coord - 1] / table.n, "method": args.method})
    _emit(args.format, record, list(record), [record])
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    reports = run_suite(max_k=args.max_k, max_n=args.max_n, seed=args.seed, inject_fault=args.inject_fault)
    ok = all(r.ok for r in reports)
    if args.format == "json":
        _emit_json(
            {
                "properties": [
                    {"name": r.name, "passed": r.passed, "failed": r.failed, "ok": r.ok} for r in reports
                ],
                "ok": ok,
            }
        )
    else:
        for r in reports:
            status = "ok" if r.ok else "FAIL"
            print(f"{r.name}: {r.passed}/{r.passed + r.failed} checks passed [{status}]")
            for msg in r.messages:
                print(f"  - {msg}")
        print(f"VERIFY: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_mc_tail(args) -> int:
    from .data import ProbVector
    from .oracle import mc_tail

    shape = ExperimentShape(args.k, args.n)
    if args.p is not None:
        probs = tuple(float(x) for x in args.p.split(","))
    else:
        probs = tuple([1.0 / args.k] * args.k)
    p = ProbVector(probs=probs)
    result = mc_tail(shape, p, args.t, samples=args.samples, seed=args.seed, workers=args.workers)
    record = {
        "k": shape.k,
        "n": shape.n,
        "t": args.t,
        "p": list(probs),
        "samples": result.samples,
        "seed": args.seed,
        "hits": result.hits,
        "estimate": result.estimate,
        "std_error": result.std_error,
    }
    _emit(args.format, record, [key for key in record if key != "p"], [record])
    return 0


def _add_format(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default=default)


def _add_table_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help="CSV file with header 'frequency,species'")
    parser.add_argument("--counts", help="comma list of per-category counts")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="klchernoff",
        description=(
            "Tail bounds on the scaled relative entropy n*D(phat||p) of multinomial "
            "empirical distributions, critical values, and simplex confidence bounds. "
            "All values are in nats (natural log)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse converts a string default with ``type`` only for the command that
    # runs, so a malformed KLCHERNOFF_SEED is a usage error of verify and mc-tail
    seed = os.environ.get("KLCHERNOFF_SEED", "0")

    p = sub.add_parser("bound", help="evaluate tail bounds at one deviation level")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", default="all", help="one method, comma list, or 'all'")
    _add_format(p, "json")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="evaluate bounds over a uniform t grid (CSV)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-min", dest="t_min", type=float, required=True)
    p.add_argument("--t-max", dest="t_max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--methods", default="all", help="comma list or 'all' (the seven bounds)")
    _add_format(p, "csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("critical", help="invert a bound into a critical value")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", default="exact", choices=bounds.BOUND_METHODS)
    _add_format(p, "json")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("ci-unseen", help="upper confidence bound on unseen-category mass")
    _add_table_args(p)
    p.add_argument("--alpha", type=float, required=True)
    _add_format(p, "json")
    p.set_defaults(func=cmd_ci_unseen)

    p = sub.add_parser("ci-coord", help="upper confidence bound for one observed coordinate")
    _add_table_args(p)
    p.add_argument("--coord", type=int, required=True, help="1-based coordinate index")
    p.add_argument("--alpha", type=float)
    p.add_argument("--t", type=float, help="deviation level; bypasses --alpha")
    p.add_argument("--method", default="exact", choices=bounds.BOUND_METHODS)
    _add_format(p, "json")
    p.set_defaults(func=cmd_ci_coord)

    p = sub.add_parser("verify", help="run the enumeration-based self-check suite")
    p.add_argument("--max-k", dest="max_k", type=int, default=4)
    p.add_argument("--max-n", dest="max_n", type=int, default=8)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--inject-fault", dest="inject_fault", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mc-tail", help="Monte Carlo tail estimate for a given p")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--p", help="comma list of probabilities (default: uniform)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--workers", type=int, default=1)
    _add_format(p, "json")
    p.set_defaults(func=cmd_mc_tail)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    ``argv=None`` means ``main`` is the process entry (``python -m
    klchernoff.cli`` or the ``klchernoff`` script): it reads ``sys.argv`` and
    freezes the garbage collector once the imports are done and again when
    the command returns, so later collections, the final ones at exit
    included, skip the start-up heap.  Nothing else is skipped: modules are
    torn down, streams flushed and ``atexit`` handlers run as usual.  A call
    with an explicit ``argv`` leaves the collector alone.
    """
    entry = argv is None
    if entry:
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if entry:
            gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
