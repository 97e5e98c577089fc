"""Spans around the calls that cross between the program's modules.

Nothing in ``src/`` is edited: ``install`` replaces, at run time, the names a
module imported from another module (``bounds.log_eval_gkn_grid``,
``inversion.evaluate_bound``, ...) with wrappers that time the call and
count it against the span that made it.  ``uninstall`` puts the originals
back.  Spans are aggregated in memory as they close: calls, self time
(duration minus the time of child spans), total time, a work count (terms
summed, outcomes enumerated, samples drawn), exceptions that leave a layer,
and parent -> child call counts.

Names that a later version of the program no longer has are skipped, so the
affected per-layer metrics read 0 instead of the benchmark failing.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "data", "gkn", "bounds", "special", "inversion", "oracle", "verify")


def _terms(args, kwargs) -> float:
    return float(args[0].log_coeffs.size)


def _grid_terms(args, kwargs) -> float:
    return float(args[0].log_coeffs.size * len(args[1]))


def _outcomes(args, kwargs) -> float:
    shape = args[0]
    return float(math.comb(shape.n + shape.k - 1, shape.k - 1))


def _samples(args, kwargs) -> float:
    return float(kwargs["samples"] if "samples" in kwargs else args[3])


def _bound_span(args, kwargs) -> str:
    return "bounds.exact" if args[0] == "exact" else "bounds.closed_form"


_CLOSED_FORMS = ("chernoff_corrected", "chernoff_uncorrected", "lambda_one_bound", "types_bound", "agrawal_limit_bound")

# (module, attribute, span name or function of the call's arguments, work count)
SPANS = [
    # gkn, as bounds and verify import it
    ("bounds", "build_evaluator", "gkn.build", None),
    ("bounds", "log_eval_gkn", "gkn.scalar", _terms),
    ("bounds", "log_eval_gkn_grid", "gkn.grid", _grid_terms),
    ("verify", "build_evaluator", "gkn.build", None),
    ("verify", "eval_gkn", "gkn.scalar", _terms),
    ("verify", "recurrence_residual", "gkn.recurrence", None),
    # special, as bounds imports it
    ("bounds", "log_upper_gamma", "special", None),
    # bounds, as inversion imports it and as cli, verify and the benchmark reach it
    ("inversion", "evaluate_bound", _bound_span, None),
    ("inversion", "meaningful_threshold", "bounds.threshold", None),
    ("bounds", "evaluate_bound", _bound_span, None),
    ("bounds", "meaningful_threshold", "bounds.threshold", None),
    ("bounds", "chernoff_exact", "bounds.exact", None),
    *[("bounds", name, "bounds.closed_form", None) for name in _CLOSED_FORMS],
    # inversion, as cli imports it, the benchmark reaches it, and unseen_upper_bound uses it
    ("inversion", "critical_value", "inversion.critical", None),
    ("inversion", "coord_upper_bound", "inversion.coord", None),
    ("inversion", "unseen_upper_bound", "inversion.unseen", None),
    ("cli", "critical_value", "inversion.critical", None),
    ("cli", "coord_upper_bound", "inversion.coord", None),
    ("cli", "unseen_upper_bound", "inversion.unseen", None),
    # data, through the constructors cli and the benchmark call
    ("data", "FrequencyTable.from_csv_path", "data", None),
    ("data", "FrequencyTable.from_csv_text", "data", None),
    ("data", "FrequencyTable.from_counts", "data", None),
    # oracle, as verify and cli import it
    ("verify", "mgf_exact", "oracle.enum", _outcomes),
    ("verify", "gkn_from_definition", "oracle.enum", _outcomes),
    ("verify", "tail_exact", "oracle.enum", _outcomes),
    ("cli", "mc_tail", "oracle.mc", _samples),
    # verify, as cli imports it
    ("cli", "run_suite", "verify", None),
]
# Calls counted against the enclosing span but not timed.
COUNTERS = [("inversion", "binary_kl", "inversion.kl")]


class Tracer:
    """In-memory span aggregates for one traced section of a run."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.work: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.edges: Counter = Counter()
        self.cache = [0, 0]  # evaluator-cache hits and misses while installed
        self._undo: list = []
        self._cache_start = (0, 0)

    def span(self, name, fn, work=None):
        """Wrap ``fn`` so each call records a span; ``name`` may depend on the arguments."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [label, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if parent is None or parent[0].split(".")[0] != label.split(".")[0]:
                    tracer.errors[label.split(".")[0]] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                tracer.stack.pop()
                tracer.calls[label] += 1
                tracer.total_s[label] += elapsed
                tracer.self_s[label] += elapsed - frame[1]
                if work is not None:
                    tracer.work[label] += work(args, kwargs)
                if parent is not None:
                    parent[1] += elapsed
                    tracer.edges[parent[0], label] += 1

        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.edges[parent, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every name in ``SPANS`` and ``COUNTERS`` that the program has."""
        self._cache_start = evaluator_cache()
        for module_name, attr, name, work in SPANS:
            self._patch(module_name, attr, lambda fn, name=name, work=work: self.span(name, fn, work))
        for module_name, attr, name in COUNTERS:
            self._patch(module_name, attr, lambda fn, name=name: self.counter(name, fn))

    def _patch(self, module_name: str, attr: str, make) -> None:
        try:
            owner = importlib.import_module(f"klchernoff.{module_name}")
        except ImportError:
            return
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or leaf not in vars(owner):
            return
        original = vars(owner)[leaf]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        elif callable(original):
            replacement = make(original)
        else:
            return
        setattr(owner, leaf, replacement)
        self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)
        end = evaluator_cache()
        self.cache = [self.cache[i] + end[i] - self._cache_start[i] for i in (0, 1)]

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "work": dict(self.work),
            "errors": dict(self.errors),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "cache": self.cache,
        }

    def merge(self, data: dict) -> None:
        """Add the aggregates another process exported."""
        self.calls.update(data.get("calls", {}))
        for key in ("self_s", "total_s", "work"):
            for label, value in data.get(key, {}).items():
                getattr(self, key)[label] += value
        self.errors.update(data.get("errors", {}))
        for parent, child, n in data.get("edges", []):
            self.edges[parent, child] += n
        self.cache = [a + b for a, b in zip(self.cache, data.get("cache", (0, 0)))]


def evaluator_cache() -> tuple[int, int]:
    """(hits, misses) of the bounds module's evaluator cache, or zeros if it has none."""
    bounds = importlib.import_module("klchernoff.bounds")
    info = getattr(getattr(bounds, "_evaluator", None), "cache_info", None)
    if info is None:
        return (0, 0)
    ci = info()
    return (ci.hits, ci.misses)


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, ref: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a workload trace ``tr`` and the reference-query trace ``ref``.

    ``ref`` holds one critical_value call (butterfly shape, exact method,
    alpha = 0.05) and one coord_upper_bound call, so its per-query counts
    are the same on every workload.
    """
    hits, misses = tr.cache
    m: dict[str, tuple[float, str]] = {
        "cli.self_s": (tr.self_s["cli"], "s"),
        "data.load_s": (tr.self_s["data"], "s"),
    }
    for layer in ("build", "grid", "scalar"):
        label = f"gkn.{layer}"
        m[f"{label}.calls"] = (float(tr.calls[label]), "count")
        m[f"{label}.self_s"] = (tr.self_s[label], "s")
        if layer != "build":
            m[f"{label}.ns_per_term"] = (1e9 * _per(tr.self_s[label], tr.work[label]), "ns")
    exact = tr.calls["bounds.exact"]
    m.update(
        {
            "bounds.exact.calls": (float(exact), "count"),
            "bounds.exact.self_s": (tr.self_s["bounds.exact"], "s"),
            "bounds.exact.grid_calls_per_query": (_per(tr.edges["bounds.exact", "gkn.grid"], exact), "count"),
            "bounds.exact.scalar_evals_per_query": (_per(tr.edges["bounds.exact", "gkn.scalar"], exact), "count"),
            "bounds.evaluator_cache.hit_ratio": (_per(hits, hits + misses), "ratio"),
            "bounds.evaluator_cache.misses": (float(misses), "count"),
            "bounds.closed_form.self_s": (tr.self_s["bounds.closed_form"], "s"),
            "special.calls": (float(tr.calls["special"]), "count"),
            "special.self_s": (tr.self_s["special"], "s"),
            "inversion.critical.calls": (float(tr.calls["inversion.critical"]), "count"),
            "inversion.critical.self_s": (tr.self_s["inversion.critical"], "s"),
            "inversion.bound_evals_per_critical": (
                _per(
                    ref.edges["inversion.critical", "bounds.exact"]
                    + ref.edges["inversion.critical", "bounds.closed_form"],
                    ref.calls["inversion.critical"],
                ),
                "count",
            ),
            "inversion.coord.self_s": (tr.self_s["inversion.coord"], "s"),
            "inversion.kl_evals_per_coord": (
                _per(ref.edges["inversion.coord", "inversion.kl"], ref.calls["inversion.coord"]),
                "count",
            ),
            "oracle.enum.outcomes_per_s": (_per(tr.work["oracle.enum"], tr.total_s["oracle.enum"]), "1/s"),
            "oracle.enum.self_s": (tr.self_s["oracle.enum"], "s"),
            "oracle.mc.samples_per_s": (_per(tr.work["oracle.mc"], tr.total_s["oracle.mc"]), "1/s"),
            "oracle.mc.self_s": (tr.self_s["oracle.mc"], "s"),
            "verify.self_s": (tr.self_s["verify"], "s"),
        }
    )
    for layer in LAYERS:
        m[f"{layer}.errors"] = (float(tr.errors[layer]), "count")
    return m
