"""Layer probes: single calls into one layer at the fixed shapes.

Each probe times one public entry point on its own, untraced, so a change to
that layer shows in isolation.  Calls shorter than ``_PROBE_BUDGET_S`` are
repeated and the median reported; the slow ones (the 512-point grid and the
exact bound at (2,10^6), ~15 s each) run once.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracing import Tracer

PROBE_SHAPES = {(6, 100): 12.0, (436, 2029): 481.2, (50, 100_000): 80.0, (2, 1_000_000): 5.0}
INVERSION_SHAPES = ((6, 100), (436, 2029))
ALPHA = 0.05
ENUM_SHAPE = (5, 40)  # 135,751 outcomes, under ENUMERATION_GUARD
MC_SHAPE, MC_T, MC_CHUNK = (6, 100), 8.0, 8192

_PROBE_BUDGET_S = 0.3
_MAX_REPEATS = 7


def _time(fn) -> float:
    samples: list[float] = []
    spent = 0.0
    while not samples or (spent < _PROBE_BUDGET_S and len(samples) < _MAX_REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
        spent += samples[-1]
    return statistics.median(samples)


def _phat(K, k: int):
    """A fixed non-uniform empirical vector for coordinate probes."""
    weights = np.arange(1.0, k + 1.0)
    return K.ProbVector(probs=tuple(float(w) for w in weights / weights.sum()))


def run_probes(K) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    grid = np.linspace(0.0, 1.0, 512)
    for (k, n), t in PROBE_SHAPES.items():
        tag = f"k{k}_n{n}"
        shape = K.ExperimentShape(k, n)
        ev = K.build_evaluator(shape)
        out[f"probe.build_evaluator.{tag}_s"] = (_time(lambda: K.build_evaluator(shape)), "s")
        out[f"probe.log_g_scalar.{tag}_s"] = (_time(lambda: K.log_eval_gkn(ev, 0.5)), "s")
        out[f"probe.log_g_grid.{tag}_s"] = (_time(lambda: K.log_eval_gkn_grid(ev, grid)), "s")
        query = K.TailQuery(shape, t)
        K.lambda_one_bound(query)  # puts the shape's evaluator in the bound cache
        out[f"probe.chernoff_exact.{tag}_s"] = (_time(lambda: K.chernoff_exact(query)), "s")
    for k, n in INVERSION_SHAPES:
        tag = f"k{k}_n{n}"
        shape = K.ExperimentShape(k, n)
        cq = K.CriticalValueQuery(shape, ALPHA, "exact")
        out[f"probe.critical_value.{tag}_s"] = (_time(lambda: K.critical_value(cq)), "s")
        t_star = K.critical_value(cq)
        phat = _phat(K, k)
        out[f"probe.coord_upper_bound.{tag}_s"] = (
            _time(lambda: K.coord_upper_bound(phat, shape, k, t_star)),
            "s",
        )
    k, n = ENUM_SHAPE
    uniform = K.ProbVector(probs=(1.0 / k,) * k)
    out[f"probe.oracle_enum.k{k}_n{n}_s"] = (_time(lambda: K.tail_exact(K.ExperimentShape(k, n), uniform, 4.0)), "s")
    k, n = MC_SHAPE
    uniform = K.ProbVector(probs=(1.0 / k,) * k)
    mc_shape = K.ExperimentShape(k, n)
    out[f"probe.mc_chunk.k{k}_n{n}_s"] = (
        _time(lambda: K.mc_tail(mc_shape, uniform, MC_T, samples=MC_CHUNK, seed=0, chunk_size=MC_CHUNK)),
        "s",
    )
    return out


def reference_query_trace(K) -> Tracer:
    """Trace of one critical_value and one coord_upper_bound call at the butterfly shape.

    Gives the per-query counts (bound evaluations per critical value, binary
    divergence evaluations per coordinate bound) for the exact method at
    alpha = 0.05, independent of which workload runs.
    """
    tracer = Tracer()
    tracer.install()
    try:
        shape = K.ExperimentShape(436, 2029)
        t_star = K.inversion.critical_value(K.CriticalValueQuery(shape, ALPHA, "exact"))
        K.inversion.coord_upper_bound(_phat(K, 436), shape, 436, t_star)
    finally:
        tracer.uninstall()
    return tracer
