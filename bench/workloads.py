"""The benchmark's workloads: seeded inputs, operations, output checks.

Every workload is a closed loop with one client.  Its operations come in
blocks of fixed composition whose order and parameters are drawn from the
workload seed, so a run of whole blocks always has the same mix of cheap and
expensive operations and its medians stay steady from seed to seed.

Workloads (see ``WHY`` for the one-line reasons):

curves     every bound method at one (shape, t) per operation, three
           operations at (6,100) to one at the butterfly shape (436,2029),
           t drawn from a fixed grid per shape
large-n    the same operation at (2,10^6) and (50,10^5); at (2,10^6) the
           exact method is left out of the loop (one call takes ~17 s) and is
           timed by the traced run's layer probe instead
inversion  unseen_upper_bound on the butterfly table and on synthetic
           species-frequency tables (three operations), critical_value for
           all seven methods at the butterfly shape (one operation),
           coord_upper_bound for three coordinates (one operation); grouping
           the cheap calls keeps the median inside the expensive cluster
cli-cold   one fresh ``klchernoff`` process per operation, seven commands
           twice per block
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from common import BENCH, BUTTERFLY_CSV, REFS_PATH, ROOT, TABLES_PATH, child_env

WHY = {
    "curves": "shapes repeat across t and the 512-point grid dominates, so per-shape reuse of the lambda grid shows here",
    "large-n": "coefficient sums over 1e5-1e6 terms dominate, so a certified coefficient window and chunk memory show here",
    "inversion": "each operation nests ~39 bound evaluations at one rarely repeated shape, so direct inversion shows here",
    "cli-cold": "every operation is a fresh process, so import cost, cold caches, CLI parsing and emitters show here",
}
WORKLOADS = tuple(WHY)

# t grids are fixed so that every value the loop can meet has a reference.
CURVE_GRIDS = {
    (6, 100): tuple(1.0 + 0.5 * i for i in range(59)),
    (436, 2029): tuple(300.0 + 5.0 * i for i in range(81)),
}
LARGE_N_GRIDS = {
    (2, 1_000_000): tuple(1.5 + 0.75 * i for i in range(15)),
    (50, 100_000): tuple(55.0 + 5.0 * i for i in range(14)),
}
# Methods the loop skips at a shape (see the module docstring).
SKIPPED_METHODS = {(2, 1_000_000): ("exact",)}

BUTTERFLY_SHAPE = (436, 2029)
CRITICAL_ALPHA = 0.05
UNSEEN_ALPHAS = (0.05, 0.01)
COORDS = (1, 119, 300, 420, 436)
COORD_T = 481.2
N_SYNTHETIC = 192

CLI_COMMANDS = {
    "bound": ["bound", "--k", "6", "--n", "100", "--t", "12"],
    "sweep": ["sweep", "--k", "6", "--n", "100", "--t-min", "5.001", "--t-max", "30", "--points", "200"],
    "critical": ["critical", "--k", "436", "--n", "2029", "--alpha", "0.05"],
    "ci-unseen": ["ci-unseen", "--data", str(BUTTERFLY_CSV), "--alpha", "0.05"],
    "ci-coord": ["ci-coord", "--counts", "4,6", "--coord", "2", "--alpha", "0.1"],
    "verify": ["verify"],
    "mc-tail": ["mc-tail", "--k", "6", "--n", "100", "--t", "8", "--samples", "100000", "--seed", "0"],
}
CLI_TIMEOUT_S = 120

VALUE_ABS_TOL = 1e-9
LOG_REL_TOL = 1e-9
CSV_TOL = 2e-9  # CSV output carries 10 significant digits
ROUND_TRIP_REL_TOL = 1e-9
T_STAR_ABS_TOL = 1e-6
UNSEEN_ABS_TOL = 1e-6
COORD_ABS_TOL = 1e-9
DOMINANCE_SLACK = 1e-12


@dataclass(frozen=True)
class Op:
    """One operation of a workload; ``args`` depend on ``kind``."""

    kind: str
    args: tuple


# --------------------------------------------------------------------- inputs


def load_inputs(workload: str, K) -> dict:
    """Read the workload's CSV tables through the program's data layer."""
    if workload == "inversion":
        tables = {"butterfly": K.FrequencyTable.from_csv_path(BUTTERFLY_CSV)}
        for table_id, text in split_tables(TABLES_PATH.read_text()).items():
            tables[table_id] = K.FrequencyTable.from_csv_text(text)
        return {"tables": tables}
    if workload == "cli-cold":
        return {"tables": {"butterfly": K.FrequencyTable.from_csv_path(BUTTERFLY_CSV)}}
    return {}


def split_tables(text: str) -> dict[str, str]:
    """Split the ``table,frequency,species`` file into one CSV text per table."""
    rows: dict[str, list[str]] = {}
    reader = csv.reader(io.StringIO(text))
    if next(reader) != ["table", "frequency", "species"]:
        raise ValueError(f"{TABLES_PATH.name} has an unexpected header")
    for table_id, frequency, species in reader:
        rows.setdefault(table_id, []).append(f"{frequency},{species}")
    return {tid: "frequency,species\n" + "\n".join(lines) + "\n" for tid, lines in rows.items()}


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def bound_methods(K, k: int, n: int, t: float) -> tuple[str, ...]:
    """Methods one bound operation evaluates, as ``klchernoff bound`` selects them."""
    skipped = SKIPPED_METHODS.get((k, n), ())
    return tuple(
        m
        for m in K.ALL_METHODS
        if m not in skipped and not (m in ("corrected", "uncorrected") and t <= k - 1)
    )


# --------------------------------------------------------------------- blocks


def blocks(workload: str, seed: int, K, inputs: dict):
    """Endless iterator of operation blocks drawn from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload in ("curves", "large-n"):
        grids = CURVE_GRIDS if workload == "curves" else LARGE_N_GRIDS
        (small, big) = grids
        # three operations at the first shape to one at the second keeps the
        # median latency inside the first shape's cluster
        pattern = [small, small, small, big]
        while True:
            ops = []
            for shape in pattern:
                k, n = shape
                t = grids[shape][int(rng.integers(len(grids[shape])))]
                ops.append(Op("bound", (k, n, t, bound_methods(K, k, n, t))))
            yield [ops[i] for i in rng.permutation(len(ops))]
    elif workload == "inversion":
        synthetic = sorted(tid for tid in inputs["tables"] if tid != "butterfly")
        order: list[str] = []
        while True:
            if len(order) < 2:
                order += [synthetic[i] for i in rng.permutation(len(synthetic))]
            ops = [
                Op("unseen", (tid, UNSEEN_ALPHAS[int(rng.integers(len(UNSEEN_ALPHAS)))]))
                for tid in ("butterfly", order.pop(), order.pop())
            ]
            ops.append(Op("critical", (CRITICAL_ALPHA,)))
            ops.append(Op("coord", tuple(int(c) for c in rng.choice(COORDS, size=3, replace=False))))
            yield [ops[i] for i in rng.permutation(len(ops))]
    elif workload == "cli-cold":
        # two rounds of the seven commands per block: a run of whole blocks
        # then holds the same number of processes over a wide range of
        # machine speeds, and the tail percentile keeps pointing at the
        # same command
        names = list(CLI_COMMANDS)
        while True:
            yield [Op("cli", (names[i],)) for _ in range(2) for i in rng.permutation(len(names))]
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------- execution


class Runner:
    """Executes operations against the imported program."""

    def __init__(self, K, inputs: dict, traced_cli: bool = False):
        self.K = K
        self.inputs = inputs
        self.traced_cli = traced_cli
        self.child_traces: list[dict] = []
        self._phat = None

    def butterfly_phat(self):
        if self._phat is None:
            table = self.inputs["tables"]["butterfly"]
            probs = tuple(c / table.n for c in table.counts) + (0.0,)
            self._phat = self.K.ProbVector(probs=probs)
        return self._phat

    def run(self, op: Op):
        K = self.K
        if op.kind == "bound":
            k, n, t, methods = op.args
            q = K.TailQuery(K.ExperimentShape(k, n), t)
            rows = {}
            for m in methods:
                result = K.bounds.evaluate_bound(m, q)
                rows[m] = (result.value, result.log_value)
            return rows
        if op.kind == "unseen":
            table_id, alpha = op.args
            ci = K.inversion.unseen_upper_bound(self.inputs["tables"][table_id], alpha)
            return {"t_used": ci.t_used, "upper": ci.upper}
        if op.kind == "critical":
            (alpha,) = op.args
            shape = K.ExperimentShape(*BUTTERFLY_SHAPE)
            return {
                m: K.inversion.critical_value(K.CriticalValueQuery(shape, alpha, m)) for m in K.BOUND_METHODS
            }
        if op.kind == "coord":
            shape = K.ExperimentShape(*BUTTERFLY_SHAPE)
            phat = self.butterfly_phat()
            return {c: K.inversion.coord_upper_bound(phat, shape, c, COORD_T).upper for c in op.args}
        if op.kind == "cli":
            return self.run_cli(op.args[0])
        raise ValueError(f"unknown operation kind {op.kind!r}")

    def run_cli(self, name: str) -> dict:
        if self.traced_cli:
            argv = [sys.executable, str(BENCH / "child.py"), "cli"]
        else:
            argv = [sys.executable, "-m", "klchernoff.cli"]
        proc = subprocess.run(
            argv + CLI_COMMANDS[name],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        if self.traced_cli:
            self.child_traces.append(_trace_from_stderr(proc.stderr))
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _trace_from_stderr(stderr: str) -> dict:
    for line in reversed(stderr.splitlines()):
        if line.startswith("BENCH_TRACE "):
            return json.loads(line[len("BENCH_TRACE "):])
    return {}


# -------------------------------------------------------------------- checks


def _close(x: float, ref: float, abs_tol: float = 0.0, rel_tol: float = 0.0) -> bool:
    return abs(x - ref) <= max(abs_tol, rel_tol * max(1.0, abs(ref)))


def check_bound_rows(k: int, n: int, t: float, rows: dict, ref: dict | None, tol: float, problems: list) -> None:
    """Range, NaN, reference and dominance-chain checks for one (shape, t)."""
    where = f"(k={k}, n={n}, t={t!r})"
    for method, (value, log_value) in rows.items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"{method} value {value!r} outside [0,1] at {where}")
        if math.isnan(log_value):
            problems.append(f"{method} log_value is NaN at {where}")
        if ref is None:
            continue
        if method not in ref:
            problems.append(f"no reference for {method} at {where}")
            continue
        ref_value, ref_log = ref[method]
        if not _close(value, ref_value, abs_tol=max(tol, VALUE_ABS_TOL)):
            problems.append(f"{method} value {value!r} != reference {ref_value!r} at {where}")
        if not _close(log_value, ref_log, rel_tol=max(tol, LOG_REL_TOL)):
            problems.append(f"{method} log_value {log_value!r} != reference {ref_log!r} at {where}")
    v = {m: rows[m][0] for m in rows}
    chain = [("exact", "lambda_one"), ("lambda_one", "types")]
    if t > k - 1:
        chain += [("exact", "corrected"), ("exact", "uncorrected"), ("exact", "agrawal_limit")]
    for lo, hi in chain:
        if lo in v and hi in v and not v[lo] <= v[hi] * (1.0 + DOMINANCE_SLACK):
            problems.append(f"dominance {lo} <= {hi} broken at {where}: {v[lo]!r} > {v[hi]!r}")


def round_trip_ok(K, k: int, n: int, method: str, t_star: float, alpha: float) -> bool:
    """Re-evaluate the bound at ``t_star``: |bound(t*) - alpha| <= 1e-9 alpha."""
    value = K.bounds.evaluate_bound(method, K.TailQuery(K.ExperimentShape(k, n), t_star)).value
    return abs(value - alpha) <= ROUND_TRIP_REL_TOL * alpha


def check(op: Op, result: dict, K, inputs: dict, refs: dict) -> list[str]:
    """Every problem with one operation's output; an empty list means correct."""
    problems: list[str] = []
    if op.kind == "bound":
        k, n, t, _ = op.args
        ref = refs["bounds"].get(f"{k},{n}", {}).get(repr(t))
        if ref is None:
            problems.append(f"no reference at (k={k}, n={n}, t={t!r})")
        check_bound_rows(k, n, t, result, ref, 0.0, problems)
    elif op.kind == "unseen":
        table_id, alpha = op.args
        table = inputs["tables"][table_id]
        k, n = table.k_observed + 1, table.n
        ref_t, ref_upper = refs["unseen"][table_id][repr(alpha)]
        _check_interval(result["upper"], 0.0, 1.0, "unseen upper", problems)
        if not _close(result["t_used"], ref_t, abs_tol=T_STAR_ABS_TOL):
            problems.append(f"unseen t* {result['t_used']!r} != reference {ref_t!r} for {table_id}")
        if not _close(result["upper"], ref_upper, abs_tol=UNSEEN_ABS_TOL):
            problems.append(f"unseen upper {result['upper']!r} != reference {ref_upper!r} for {table_id}")
        if not round_trip_ok(K, k, n, "exact", result["t_used"], alpha):
            problems.append(f"round trip failed for unseen {table_id} at alpha={alpha}")
    elif op.kind == "critical":
        (alpha,) = op.args
        for method, t_star in result.items():
            ref_t = refs["critical"][method]
            if not _close(t_star, ref_t, abs_tol=T_STAR_ABS_TOL):
                problems.append(f"critical t* {t_star!r} != reference {ref_t!r} for {method}")
            if not round_trip_ok(K, *BUTTERFLY_SHAPE, method, t_star, alpha):
                problems.append(f"round trip failed for critical {method} at alpha={alpha}")
    elif op.kind == "coord":
        for coord, upper in result.items():
            ref_upper = refs["coord"][str(coord)]
            _check_interval(upper, 0.0, 1.0, "coordinate upper", problems)
            if not _close(upper, ref_upper, abs_tol=COORD_ABS_TOL):
                problems.append(f"coord {coord} upper {upper!r} != reference {ref_upper!r}")
    elif op.kind == "cli":
        _check_cli(op.args[0], result, K, refs["cli"], problems)
    return problems


def _check_interval(x: float, lo: float, hi: float, what: str, problems: list) -> None:
    if not lo <= x <= hi:
        problems.append(f"{what} {x!r} outside [{lo}, {hi}]")


def parse_cli(name: str, stdout: str):
    """The command's output as numbers: JSON, CSV rows or the verify verdict."""
    if name == "sweep":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["t", "method", "value", "log_value"]:
            raise ValueError(f"unexpected sweep header {rows[0]!r}")
        return [[float(r[0]), r[1], float(r[2]), float(r[3])] for r in rows[1:]]
    if name == "verify":
        lines = stdout.strip().splitlines()
        return {"verdict": lines[-1] if lines else ""}
    return json.loads(stdout)


def _check_cli(name: str, result: dict, K, ref, problems: list) -> None:
    if result["code"] != 0:
        problems.append(f"{name} exited with {result['code']}: {result['stderr'].strip()[-200:]}")
        return
    try:
        out = result.get("parsed") or parse_cli(name, result["stdout"])
    except (ValueError, IndexError, KeyError) as exc:
        problems.append(f"{name} output does not parse: {exc}")
        return
    ref = ref[name]
    if name == "bound":
        rows = {r["method"]: (r["value"], r["log_value"]) for r in out["bounds"]}
        ref_rows = {r["method"]: (r["value"], r["log_value"]) for r in ref["bounds"]}
        if set(rows) != set(ref_rows):
            problems.append(f"bound rows {sorted(rows)} != reference {sorted(ref_rows)}")
        check_bound_rows(out["k"], out["n"], out["t"], rows, ref_rows, 0.0, problems)
    elif name == "sweep":
        if len(out) != len(ref):
            problems.append(f"sweep has {len(out)} rows, reference {len(ref)}")
            return
        by_t: dict[float, dict] = {}
        ref_by_t: dict[float, dict] = {}
        for (t, method, value, log_value), ref_row in zip(out, ref):
            by_t.setdefault(t, {})[method] = (value, log_value)
            ref_by_t.setdefault(ref_row[0], {})[ref_row[1]] = (ref_row[2], ref_row[3])
        for t, rows in by_t.items():
            check_bound_rows(6, 100, t, rows, ref_by_t.get(t), CSV_TOL, problems)
    elif name == "critical":
        if not _close(out["t_critical"], ref["t_critical"], abs_tol=T_STAR_ABS_TOL):
            problems.append(f"critical t* {out['t_critical']!r} != reference {ref['t_critical']!r}")
        if not round_trip_ok(K, out["k"], out["n"], out["method"], out["t_critical"], out["alpha"]):
            problems.append("critical round trip failed")
    elif name in ("ci-unseen", "ci-coord"):
        _check_interval(out["upper"], 0.0, 1.0, f"{name} upper", problems)
        if not _close(out["t_used"], ref["t_used"], abs_tol=T_STAR_ABS_TOL):
            problems.append(f"{name} t_used {out['t_used']!r} != reference {ref['t_used']!r}")
        tol = UNSEEN_ABS_TOL if name == "ci-unseen" else COORD_ABS_TOL
        if not _close(out["upper"], ref["upper"], abs_tol=tol):
            problems.append(f"{name} upper {out['upper']!r} != reference {ref['upper']!r}")
        if not round_trip_ok(K, out["k"], out["n"], out["method"], out["t_used"], out["alpha"]):
            problems.append(f"{name} round trip failed")
    elif name == "verify":
        if out["verdict"] != "VERIFY: PASS":
            problems.append(f"verify reported {out['verdict']!r}")
    elif name == "mc-tail":
        if out["hits"] != ref["hits"] or out["samples"] != ref["samples"]:
            problems.append(f"mc-tail hits {out['hits']} != reference {ref['hits']}")


# ------------------------------------------------------------- fault injection


def tamper(op: Op, result: dict) -> dict:
    """A copy of ``result`` with one number perturbed, as a fault would.

    Bound values are doubled (log value + log 2), the same change
    ``klchernoff verify --inject-fault`` makes to one polynomial coefficient.
    """
    out = dict(result)
    if op.kind == "bound":
        method = next(iter(out))
        value, log_value = out[method]
        out[method] = (2.0 * value, log_value + math.log(2.0))
    elif op.kind == "unseen":
        out["upper"] = 2.0 * out["upper"]
    elif op.kind in ("critical", "coord"):
        key = next(iter(out))
        out[key] = 2.0 * out[key]
    elif op.kind == "cli" and out["code"] == 0:  # a failed command already fails its check
        name = op.args[0]
        parsed = parse_cli(name, out["stdout"])
        if name == "bound":
            parsed["bounds"][0]["log_value"] += math.log(2.0)
        elif name == "sweep":
            parsed[0][3] += math.log(2.0)
        elif name == "critical":
            parsed["t_critical"] *= 2.0
        elif name in ("ci-unseen", "ci-coord"):
            parsed["upper"] *= 2.0
        elif name == "verify":
            parsed["verdict"] = "VERIFY: FAIL"
        elif name == "mc-tail":
            parsed["hits"] += 1
        out["parsed"] = parsed
    return out
