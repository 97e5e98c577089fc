"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from klchernoff.bounds import (
    TailQuery,
    agrawal_limit_bound,
    chernoff_corrected,
    chernoff_exact,
    chernoff_uncorrected,
    lambda_one_bound,
    log_mardia_factor,
    log_types_factor,
    meaningful_threshold,
    mardia_bound,
    types_bound,
)
from klchernoff.data import butterfly_table
from klchernoff.gkn import (
    ExperimentShape,
    build_evaluator,
    eval_g2n_gamma_form,
    eval_gkn,
    eval_gkn_deriv,
    log_eval_gkn,
    recurrence_residual,
)
from klchernoff.inversion import unseen_upper_bound
from klchernoff.oracle import (
    ProbVector,
    exact_coefficients,
    gkn_from_definition,
    mc_tail,
    mgf_exact,
    random_prob_vector,
    tail_exact,
)

F = Fraction

# criterion 07 compares G(1) exactly where the rational coefficients are cheap
EXACT_LIMIT = 30


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {tag}{suffix}")


TABLE_1 = {
    (2, 1): (F(1), F(1)),
    (2, 2): (F(1), F(1), F(1, 2)),
    (2, 3): (F(1), F(1), F(2, 3), F(2, 9)),
    (2, 4): (F(1), F(1), F(3, 4), F(3, 8), F(3, 32)),
    (3, 1): (F(1), F(2)),
    (3, 2): (F(1), F(2), F(3, 2)),
    (3, 3): (F(1), F(2), F(2), F(8, 9)),
    (3, 4): (F(1), F(2), F(9, 4), F(3, 2), F(15, 32)),
    (4, 1): (F(1), F(3)),
    (4, 2): (F(1), F(3), F(3)),
    (4, 3): (F(1), F(3), F(4), F(20, 9)),
    (4, 4): (F(1), F(3), F(9, 2), F(15, 4), F(45, 32)),
}


def test_criterion_01_small_polynomial_table():
    start = time.perf_counter()
    mismatches = []
    for (k, n), coeffs in TABLE_1.items():
        shape = ExperimentShape(k, n)
        # the evaluator's log table is what log G sums
        table = np.exp(build_evaluator(shape).log_coeffs)
        close = table.size == len(coeffs) and table == pytest.approx([float(c) for c in coeffs], rel=1e-12)
        if exact_coefficients(shape) != coeffs or not close:
            mismatches.append((k, n))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    report(1, "exact coefficients of the 12 small polynomials", ok, f"{elapsed:.3f}s")
    assert not mismatches
    assert elapsed < 1.0


def test_criterion_02_butterfly_application():
    start = time.perf_counter()
    table = butterfly_table()
    ci = unseen_upper_bound(table, 0.05)
    elapsed = time.perf_counter() - start
    k, n = table.k_observed + 1, table.n
    ok = (
        k == 436
        and n == 2029
        and abs(ci.t_used - 481.20) <= 0.5
        and abs(ci.upper - 0.211) <= 0.001
        and elapsed < 30.0
    )
    report(2, "butterfly unseen-proportion bound", ok, f"t={ci.t_used:.2f}, upper={ci.upper:.4f}, {elapsed:.1f}s")
    assert k == 436 and n == 2029
    assert ci.t_used == pytest.approx(481.20, abs=0.5)
    assert ci.upper == pytest.approx(0.211, abs=0.001)
    assert elapsed < 30.0


def _dirichlet_sweep():
    rng = np.random.default_rng(2024)
    lam_grid = np.linspace(0.0, 1.0, 11)
    for k in (2, 3, 4):
        for n in range(1, 9):
            shape = ExperimentShape(k, n)
            ev = build_evaluator(shape)
            ps = [random_prob_vector(k, rng) for _ in range(25)]
            boundary = random_prob_vector(k, rng, zero_coord=k - 1)
            yield shape, ev, ps, boundary, lam_grid


def test_criterion_03_mgf_dominated_by_polynomial():
    start = time.perf_counter()
    worst = -math.inf
    for shape, ev, ps, _, lam_grid in _dirichlet_sweep():
        for lam in lam_grid:
            g = eval_gkn(ev, float(lam))
            for p in ps:
                worst = max(worst, mgf_exact(shape, p, float(lam)) / g - 1.0)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 120.0
    report(3, "MGF below polynomial bound", ok, f"max excess={worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 120.0


def test_criterion_04_p_independence():
    worst_spread = 0.0
    worst_match = 0.0
    for shape, ev, ps, boundary, lam_grid in _dirichlet_sweep():
        for lam in lam_grid:
            g = eval_gkn(ev, float(lam))
            vals = [gkn_from_definition(shape, p, float(lam)) for p in ps + [boundary]]
            worst_spread = max(worst_spread, (max(vals) - min(vals)) / g)
            worst_match = max(worst_match, abs(vals[0] - g) / g)
    ok = worst_spread < 1e-10 and worst_match < 1e-10
    report(4, "defining sum independent of p", ok, f"spread={worst_spread:.2e}")
    assert worst_spread < 1e-10
    assert worst_match < 1e-10


def test_criterion_05_recurrence():
    worst = 0.0
    for k in range(2, 11):
        for n in range(1, 31):
            g1 = eval_gkn(build_evaluator(ExperimentShape(k, n)), 1.0)
            for lam in np.linspace(0.0, 1.0, 11):
                g = eval_gkn(build_evaluator(ExperimentShape(k, n)), float(lam)) if lam < 1.0 else g1
                worst = max(worst, abs(recurrence_residual(k, n, float(lam))) / g)
    ok = worst < 1e-10
    report(5, "shape recurrence residual", ok, f"max rel residual={worst:.2e}")
    assert worst < 1e-10


def test_criterion_06_tail_dominance():
    rng = np.random.default_rng(7)
    failures = []
    for k in (2, 3, 4):
        for n in range(1, 9):
            shape = ExperimentShape(k, n)
            p = random_prob_vector(k, rng)
            thr = meaningful_threshold(shape)
            for t in np.linspace(thr + 1e-3, thr + 4.0 * k, 20):
                query = TailQuery(shape, float(t))
                tail = tail_exact(shape, p, float(t))
                exact = chernoff_exact(query).value
                lam_one = lambda_one_bound(query).value
                checks = [
                    tail <= exact * (1 + 1e-12) + 1e-15,
                    exact <= lam_one * (1 + 1e-12),
                    lam_one <= types_bound(query).value * (1 + 1e-12),
                ]
                if t > k - 1:
                    checks.append(exact <= chernoff_corrected(query).value * (1 + 1e-12))
                    checks.append(exact <= chernoff_uncorrected(query).value * (1 + 1e-12))
                if not all(checks):
                    failures.append((k, n, float(t)))
    ok = not failures
    report(6, "exact tail below every bound, bounds ordered", ok, f"{len(failures)} violations")
    assert not failures, failures[:5]


def test_criterion_07_combinatorial_comparison():
    # part (a): G(1) strictly below the type count on k in [2,50], n in [1,200]
    g_violations = []
    m_violations = []
    for k in range(2, 51):
        for n in range(1, 201):
            shape = ExperimentShape(k, n)
            if (k <= EXACT_LIMIT and n <= EXACT_LIMIT) or n == 1:
                # at n = 1 the polynomial is 1 + (k-1) lam for every alphabet
                g_lt = sum(exact_coefficients(shape)) < math.comb(n + k - 1, k - 1)
            else:
                g_lt = log_eval_gkn(build_evaluator(shape), 1.0) < log_types_factor(k, n)
            if not g_lt:
                g_violations.append((k, n))
            # part (b): the printed improved factor below the type count
            if not log_mardia_factor(k, n) < log_types_factor(k, n):
                m_violations.append((k, n))
    # part (c): square-root improvement of log G(1) at k = 2, n = 1e6
    n_big = 10**6
    ratio = log_eval_gkn(build_evaluator(ExperimentShape(2, n_big)), 1.0) / math.log(n_big + 1)
    ratio_ok = abs(ratio - 0.5) < 0.06

    ok = not g_violations and not m_violations and ratio_ok
    detail = (
        f"G(1)<C_T fails at {len(g_violations)} pairs (first {g_violations[:3]}); "
        f"C_M<C_T fails at {len(m_violations)} pairs (first {m_violations[:3]}); "
        f"sqrt ratio={ratio:.4f}"
    )
    report(7, "combinatorial factor comparison", ok, detail)
    # Strictness fails where the quantities coincide or the printed constant
    # is simply larger: at n=1 both G(1) and the type count equal k exactly,
    # and e.g. C_M(2,2) = 12/pi > 3 = C_T(2,2).  Asserted as stated.
    assert not g_violations, f"G(1) < C_T violated at {g_violations[:10]}"
    assert not m_violations, f"C_M < C_T violated at {m_violations[:10]}"
    assert ratio_ok


def test_criterion_08_minimizer_correction_fit():
    start = time.perf_counter()
    results = []
    for k, t in ((2, 3.0), (3, 5.0), (6, 8.0)):
        lam_inf = 1.0 - (k - 1) / t
        target = k * (t - k + 1) / (k - 1)
        ns = np.unique(np.geomspace(200, 2e4, 12).astype(int))
        seq = []
        for n in ns:
            lam_n = chernoff_exact(TailQuery(ExperimentShape(k, int(n)), t)).lambda_used
            seq.append(n * (lam_n - lam_inf))
        # extrapolate the limit of n * (lam_n - lam_inf): intercept in 1/n
        design = np.vstack([np.ones(ns.size), 1.0 / ns]).T
        coef, *_ = np.linalg.lstsq(design, np.asarray(seq), rcond=None)
        fitted = float(coef[0])
        results.append((k, t, fitted, target, abs(fitted - target) / target))
    elapsed = time.perf_counter() - start
    ok = all(rel <= 0.05 for *_, rel in results) and elapsed < 300.0
    detail = "; ".join(f"k={k},t={t}: fit={f:.4f} vs {tg:.4f}" for k, t, f, tg, _ in results)
    report(8, "first-order drift of the minimizer", ok, f"{detail}; {elapsed:.1f}s")
    for k, t, fitted, target, rel in results:
        assert rel <= 0.05, (k, t, fitted, target)
    assert elapsed < 300.0


def test_criterion_09_correction_combination_limit():
    worst = 0.0
    n = 10**5
    for k in (2, 3, 6):
        ev = build_evaluator(ExperimentShape(k, n))
        for lam in (0.3, 0.5, 0.8):
            target = k * (k - 1) * lam / (1 - lam) ** (k + 2)
            value = n * ((k - 1) / (1 - lam) * eval_gkn(ev, lam) - eval_gkn_deriv(ev, lam))
            worst = max(worst, abs(value - target) / target)
    ok = worst <= 0.02
    report(9, "combination limit at n=1e5", ok, f"max rel dev={worst:.4f}")
    assert worst <= 0.02


def test_criterion_10_incomplete_gamma_identity():
    worst = 0.0
    for n in list(range(1, 51)) + [1000]:
        ev = build_evaluator(ExperimentShape(2, n))
        for lam in np.linspace(0.1, 0.9, 9):
            poly = eval_gkn(ev, float(lam))
            gamma = eval_g2n_gamma_form(n, float(lam))
            worst = max(worst, abs(gamma - poly) / poly)
    ok = worst <= 1e-10
    report(10, "incomplete-gamma identity for k=2", ok, f"max rel dev={worst:.2e}")
    assert worst <= 1e-10


def test_criterion_11_crossover_and_limit_domination():
    shape = ExperimentShape(6, 100)
    thr = meaningful_threshold(shape)
    ts = np.linspace(thr + 1e-6, 30.0, 200)
    diffs = []
    limit_ok = True
    for t in ts:
        query = TailQuery(shape, float(t))
        exact = chernoff_exact(query).value
        diffs.append(exact - mardia_bound(query).value)
        if exact > agrawal_limit_bound(query).value * (1 + 1e-12):
            limit_ok = False
    signs = np.sign(diffs)
    changes = np.flatnonzero(np.diff(signs) != 0)
    crossover_ok = len(changes) == 1 and signs[0] < 0 and signs[-1] > 0
    t_cross = float(ts[changes[0]]) if len(changes) else math.nan
    ok = crossover_ok and limit_ok
    report(11, "single crossover vs factor bound; below limit bound", ok, f"T~{t_cross:.2f}")
    assert crossover_ok
    assert limit_ok


MC_QUERIES = (
    (2, 5, (0.5, 0.5), 0.5),
    (2, 10, (0.3, 0.7), 1.0),
    (2, 8, (0.1, 0.9), 1.1),
    (2, 1, (0.5, 0.5), 0.1),
    (3, 4, (1 / 3, 1 / 3, 1 / 3), 1.2),
    (3, 6, (0.2, 0.3, 0.5), 1.5),
    (3, 10, (0.2, 0.3, 0.5), 2.5),
    (4, 5, (0.25, 0.25, 0.25, 0.25), 2.0),
    (4, 8, (0.1, 0.2, 0.3, 0.4), 3.0),
    (6, 9, (1 / 6,) * 6, 4.5),
)


def test_criterion_12_monte_carlo_consistency():
    samples = 10**5
    worst_pull = 0.0
    for k, n, probs, t in MC_QUERIES:
        shape = ExperimentShape(k, n)
        p = ProbVector(probs)
        exact = tail_exact(shape, p, t)
        est = mc_tail(shape, p, t, samples=samples, seed=1)
        again = mc_tail(shape, p, t, samples=samples, seed=1)
        parallel = mc_tail(shape, p, t, samples=samples, seed=1, workers=4)
        assert est == again == parallel
        se = max(est.std_error, math.sqrt(exact * (1 - exact) / samples))
        if se == 0.0:
            assert est.estimate == exact
        else:
            worst_pull = max(worst_pull, abs(est.estimate - exact) / se)
    ok = worst_pull <= 4.0
    report(12, "Monte Carlo within 4 SE of enumeration", ok, f"max pull={worst_pull:.2f}")
    assert worst_pull <= 4.0
