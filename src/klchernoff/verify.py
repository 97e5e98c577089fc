"""Self-check suite: enumeration-based properties runnable from the CLI.

Each property compares an analytic quantity against the exact enumeration
oracle on a grid of small shapes.  A hidden fault-injection hook tampers
with one polynomial coefficient so the suite's ability to fail can itself
be demonstrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .gkn import ExperimentShape, GknEvaluator, _recurrence_residual, build_evaluator, eval_gkn
from .oracle import gkn_from_definition, mgf_exact, random_prob_vector, tail_exact

_LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
_N_RANDOM_P = 5


@dataclass
class PropertyResult:
    name: str
    passed: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def check(self, condition: bool, message: str) -> None:
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)


def _tampered(ev: GknEvaluator) -> GknEvaluator:
    log_coeffs = ev.log_coeffs.copy()
    if log_coeffs.size > 1:
        log_coeffs[1] += math.log(2.0)
    else:
        log_coeffs[0] = math.log(2.0)
    log_coeffs.flags.writeable = False
    return GknEvaluator(shape=ev.shape, log_coeffs=log_coeffs, exact_coeffs=None)


def run_suite(max_k: int = 4, max_n: int = 8, seed: int = 0, inject_fault: bool = False) -> list[PropertyResult]:
    """Run every property over k in [2, max_k], n in [1, max_n]."""
    rng = np.random.default_rng(seed)
    shapes = [ExperimentShape(k, n) for k in range(2, max_k + 1) for n in range(1, max_n + 1)]

    def evaluator(shape: ExperimentShape) -> GknEvaluator:
        ev = build_evaluator(shape)
        if inject_fault and (shape.k, shape.n) == (2, 1):
            ev = _tampered(ev)
        return ev

    p_sets = {
        shape: [random_prob_vector(shape.k, rng) for _ in range(_N_RANDOM_P)]
        + [random_prob_vector(shape.k, rng, zero_coord=shape.k - 1)]
        for shape in shapes
    }

    p_indep = PropertyResult("p_independence")
    jensen = PropertyResult("jensen")
    recurrence = PropertyResult("recurrence")
    dominance = PropertyResult("dominance")
    tail_validity = PropertyResult("tail_validity")

    for shape in shapes:
        ev = evaluator(shape)
        for lam in _LAMBDA_GRID:
            g = eval_gkn(ev, lam)
            values = [gkn_from_definition(shape, p, lam) for p in p_sets[shape]]
            spread = (max(values) - min(values)) / g
            p_indep.check(
                spread < 1e-10 and abs(values[0] - g) <= 1e-10 * g,
                f"definition of G varies with p or misses the coefficient form at {shape}, lam={lam}",
            )
            for p in p_sets[shape]:
                jensen.check(
                    mgf_exact(shape, p, lam) <= g * (1.0 + 1e-12),
                    f"MGF exceeds the polynomial bound at {shape}, lam={lam}",
                )
            residual = _recurrence_residual(evaluator, shape.k, shape.n, lam)
            recurrence.check(
                abs(residual) <= 1e-10 * g,
                f"recurrence residual {residual:.3e} too large at {shape}, lam={lam}",
            )

        threshold = bounds.meaningful_threshold(shape)
        t_grid = np.linspace(threshold + 0.1, max(3.0 * (shape.k - 1), threshold + 6.0), 8)
        for t in t_grid:
            q = bounds.TailQuery(shape, float(t))
            exact = bounds.chernoff_exact(q)
            lam_one = bounds.lambda_one_bound(q)
            types = bounds.types_bound(q)
            chain = [
                exact.value <= lam_one.value * (1.0 + 1e-12),
                lam_one.value <= types.value * (1.0 + 1e-12),
            ]
            for method in ("agrawal_limit", "corrected", "uncorrected"):
                if bounds.defined_at(method, shape.k, t):
                    chain.append(exact.value <= bounds.evaluate_bound(method, q).value * (1.0 + 1e-12))
            dominance.check(all(chain), f"bound dominance chain broken at {shape}, t={t:.4f}")
            for p in p_sets[shape][:2]:
                tail = tail_exact(shape, p, float(t))
                tail_validity.check(
                    tail <= exact.value * (1.0 + 1e-12) + 1e-15,
                    f"exact tail {tail:.3e} exceeds bound {exact.value:.3e} at {shape}, t={t:.4f}",
                )

    return [p_indep, jensen, recurrence, dominance, tail_validity]
