import math

import numpy as np
import pytest
import scipy.special

from klchernoff.bounds import TailQuery, chernoff_exact, meaningful_threshold
from klchernoff.gkn import ExperimentShape, build_evaluator, eval_gkn
from klchernoff.oracle import (
    ProbVector,
    _coeff_blocks,
    _outcome_sums,
    _xlogy,
    enumerate_outcomes,
    gkn_from_definition,
    kl_divergence,
    mc_tail,
    mgf_exact,
    n_outcomes,
    random_prob_vector,
    tail_exact,
)

UNIFORM2 = ProbVector((0.5, 0.5))


def test_prob_vector_validation():
    with pytest.raises(ValueError):
        ProbVector(())
    with pytest.raises(ValueError):
        ProbVector((0.5, -0.5, 1.0))
    with pytest.raises(ValueError):
        ProbVector((0.5, 0.5001))
    for bad in (math.nan, math.inf, -math.inf):
        # nan passes both the sign and the sum check, so it needs its own rule
        with pytest.raises(ValueError, match="finite"):
            ProbVector((0.5, 0.5, bad))
    assert len(ProbVector((0.2, 0.3, 0.5))) == 3


def test_kl_examples():
    assert kl_divergence(UNIFORM2, UNIFORM2) == 0.0
    assert kl_divergence(ProbVector((1.0, 0.0)), UNIFORM2) == pytest.approx(math.log(2))
    assert kl_divergence(ProbVector((0.0, 1.0)), ProbVector((1.0, 0.0))) == math.inf
    with pytest.raises(ValueError):
        kl_divergence(UNIFORM2, ProbVector((0.2, 0.3, 0.5)))


def test_kl_matches_scipy_rel_entr_sum():
    rng = np.random.default_rng(3)
    for k in (2, 3, 7):
        vecs = [random_prob_vector(k, rng) for _ in range(4)]
        vecs += [random_prob_vector(k, rng, zero_coord=0), random_prob_vector(k, rng, zero_coord=k - 1)]
        for phat in vecs:
            for p in vecs:
                ref = float(scipy.special.rel_entr(phat.as_array(), p.as_array()).sum())
                assert kl_divergence(phat, p) == pytest.approx(ref, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("k, n", [(2, 5000), (3, 300), (4, 30), (6, 12)])
def test_log_multinomial_coefficients_match_gammaln(k, n):
    # the lgamma table is within 3 ulp of log m!, gammaln within 2; each side
    # sums k + 1 such entries, none larger than log n!
    lg_n = float(scipy.special.gammaln(n + 1.0))
    tol = 6 * (k + 1) * np.spacing(lg_n)
    rows = 0
    for block, log_coeff in _coeff_blocks(ExperimentShape(k, n)):
        ref = lg_n - scipy.special.gammaln(block + 1.0).sum(axis=1)
        np.testing.assert_allclose(log_coeff, ref, rtol=0.0, atol=tol)
        rows += len(block)
    assert rows == n_outcomes(ExperimentShape(k, n))


def test_xlogy_matches_scipy_on_counts_with_zeros():
    rng = np.random.default_rng(11)
    n = 40
    counts = rng.multinomial(n, [0.5, 0.3, 0.2, 0.0, 0.0], size=500)
    counts[::7, 0] = 0
    p_safe = np.array([0.5, 0.3, 0.2, 1.0, 1.0])
    for y in (counts, counts / (n * p_safe), 0.4 * counts / n + 0.6 * np.array([0.5, 0.3, 0.2, 0.0, 0.0])):
        got = _xlogy(counts, y)
        assert (got[counts == 0] == 0.0).all()
        np.testing.assert_allclose(got, scipy.special.xlogy(counts, y), rtol=1e-15, atol=0.0)


def test_enumeration_order_and_coefficients():
    outs = list(enumerate_outcomes(ExperimentShape(2, 2)))
    assert [o.counts for o in outs] == [(0, 2), (1, 1), (2, 0)]
    assert math.exp(outs[1].log_multinomial_coeff) == pytest.approx(2.0)
    assert len(list(enumerate_outcomes(ExperimentShape(3, 2)))) == 6
    assert n_outcomes(ExperimentShape(3, 2)) == 6
    outs = [o.counts for o in enumerate_outcomes(ExperimentShape(3, 3))]
    assert outs == sorted(outs)
    assert len(set(outs)) == len(outs) == n_outcomes(ExperimentShape(3, 3))


@pytest.mark.parametrize("k, n", [(1, 0), (1, 7), (4, 0), (2, 3), (5, 9), (3, 400)])
def test_coeff_blocks_partition_and_order(k, n):
    blocks = [block for block, _ in _coeff_blocks(ExperimentShape(k, n))]
    sizes = [len(block) for block in blocks]
    rows = np.concatenate(blocks)
    assert all(size == 65536 for size in sizes[:-1]) and 0 < sizes[-1] <= 65536
    assert len(rows) == n_outcomes(ExperimentShape(k, n))
    assert rows.shape[1] == k and (rows >= 0).all() and (rows.sum(axis=1) == n).all()
    # strictly increasing lexicographically, across block boundaries too:
    # the first coordinate where consecutive rows differ must increase
    step = np.diff(rows, axis=0)
    first = np.argmax(step != 0, axis=1)
    assert (step[np.arange(len(step)), first] > 0).all()
    if k == 1 or n == 0:
        assert rows.tolist() == [[n] if k == 1 else [0] * k]
    if (k, n) == (3, 400):
        assert sizes == [65536, 15065]


def test_enumeration_guard():
    with pytest.raises(ValueError, match="guard"):
        list(enumerate_outcomes(ExperimentShape(30, 40)))
    # the sums over outcomes check the guard before they draw the first block
    p = random_prob_vector(30, np.random.default_rng(0))
    for fn in (mgf_exact, gkn_from_definition, tail_exact):
        with pytest.raises(ValueError, match="guard"):
            fn(ExperimentShape(30, 40), p, 0.5)


@pytest.mark.parametrize("k, n", [(2, 1), (3, 8), (4, 6), (5, 30), (3, 400)])
def test_outcome_sums_match_one_argument_calls_bit_for_bit(k, n):
    # one enumeration for many (p, lambda) and (p, t), as verify uses it;
    # (5, 30) and (3, 400) span several blocks
    rng = np.random.default_rng(k * n)
    ps = [random_prob_vector(k, rng) for _ in range(3)] + [random_prob_vector(k, rng, zero_coord=k - 1)]
    lams = (0.0, 0.25, 0.6, 1.0)
    ts = [np.linspace(-0.5, 3.0 * k, 5).tolist(), [], [0.0, 1.5], [2.0]]
    shape = ExperimentShape(k, n)
    mgf, definition, tails = _outcome_sums(shape, [p.as_array() for p in ps], lams, lams[::-1], ts)
    for i, p in enumerate(ps):
        assert mgf[i] == [mgf_exact(shape, p, lam) for lam in lams]
        assert definition[i] == [gkn_from_definition(shape, p, lam) for lam in lams[::-1]]
        assert tails[i] == [tail_exact(shape, p, t) for t in ts[i]]


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.7, 1.0])
def test_mgf_two_outcome_closed_form(lam):
    assert mgf_exact(ExperimentShape(2, 1), UNIFORM2, lam) == pytest.approx(2**lam, rel=1e-13)


def test_mgf_at_one_is_p_free_and_capped():
    shape = ExperimentShape(2, 2)
    vals = [mgf_exact(shape, ProbVector((p, 1 - p)), 1.0) for p in (0.1, 0.37, 0.5, 0.8)]
    for v in vals:
        assert v == pytest.approx(vals[0], rel=1e-12)
        assert v <= 2.5 * (1 + 1e-12)
    assert vals[0] == pytest.approx(2.5, rel=1e-12)  # equals G(1) at lam = 1


def test_gkn_definition_examples():
    assert gkn_from_definition(ExperimentShape(2, 2), ProbVector((0.3, 0.7)), 0.5) == pytest.approx(
        1.625, rel=1e-12
    )
    for p in (ProbVector((0.2, 0.3, 0.5)), ProbVector((1 / 3, 1 / 3, 1 / 3))):
        for lam in (0.0, 0.4, 1.0):
            assert gkn_from_definition(ExperimentShape(3, 1), p, lam) == pytest.approx(
                1 + 2 * lam, rel=1e-12
            )
    assert gkn_from_definition(ExperimentShape(4, 6), ProbVector((0.1, 0.2, 0.3, 0.4)), 0.0) == pytest.approx(
        1.0, rel=1e-12
    )


def test_p_independence_sweep():
    rng = np.random.default_rng(17)
    for k in (2, 3, 4):
        for n in (1, 3, 6, 8):
            shape = ExperimentShape(k, n)
            ev = build_evaluator(shape)
            ps = [random_prob_vector(k, rng) for _ in range(10)]
            ps.append(random_prob_vector(k, rng, zero_coord=k - 1))
            for lam in np.linspace(0.0, 1.0, 5):
                g = eval_gkn(ev, float(lam))
                vals = [gkn_from_definition(shape, p, float(lam)) for p in ps]
                assert (max(vals) - min(vals)) / g < 1e-10
                assert abs(vals[0] - g) <= 1e-10 * g


def test_jensen_bound_on_mgf():
    rng = np.random.default_rng(23)
    for k in (2, 3, 4):
        for n in (2, 5, 8):
            shape = ExperimentShape(k, n)
            ev = build_evaluator(shape)
            for _ in range(8):
                p = random_prob_vector(k, rng)
                for lam in np.linspace(0.0, 1.0, 7):
                    assert mgf_exact(shape, p, float(lam)) <= eval_gkn(ev, float(lam)) * (1 + 1e-12)


def test_tail_step_function_for_single_draw():
    shape = ExperimentShape(2, 1)
    assert tail_exact(shape, UNIFORM2, 0.1) == 1.0
    assert tail_exact(shape, UNIFORM2, math.log(2)) == 0.0  # strict inequality
    assert tail_exact(shape, UNIFORM2, math.log(2) - 1e-12) == 1.0
    assert tail_exact(shape, UNIFORM2, -1.0) == 1.0


def test_tail_below_every_bound():
    rng = np.random.default_rng(29)
    for k in (2, 3, 4):
        for n in (3, 6, 8):
            shape = ExperimentShape(k, n)
            p = random_prob_vector(k, rng)
            thr = meaningful_threshold(shape)
            for t in np.linspace(0.02, thr + 8, 20):
                tail = tail_exact(shape, p, float(t))
                bound = chernoff_exact(TailQuery(shape, float(t))).value
                assert tail <= bound * (1 + 1e-12) + 1e-15


def test_tail_with_boundary_p():
    # outcomes outside the support of p carry zero probability
    shape = ExperimentShape(3, 4)
    p = ProbVector((0.5, 0.5, 0.0))
    assert tail_exact(shape, p, 1e9) == 0.0
    assert tail_exact(shape, p, -1.0) == pytest.approx(1.0, rel=1e-12)


def test_mc_deterministic_and_parallel_invariant():
    shape = ExperimentShape(3, 10)
    p = ProbVector((0.2, 0.3, 0.5))
    a = mc_tail(shape, p, 1.5, samples=50_000, seed=9)
    b = mc_tail(shape, p, 1.5, samples=50_000, seed=9)
    c = mc_tail(shape, p, 1.5, samples=50_000, seed=9, workers=4)
    assert a == b == c
    d = mc_tail(shape, p, 1.5, samples=50_000, seed=10)
    assert d.estimate != a.estimate


def test_mc_degenerate_statistic():
    r = mc_tail(ExperimentShape(2, 1), UNIFORM2, 0.1, samples=10**4, seed=0)
    assert r.estimate == 1.0 and r.std_error == 0.0
    # with no draws the statistic is 0, as in tail_exact, and no 0/0 arises
    p3 = ProbVector((0.2, 0.3, 0.5))
    for t, hits in ((-1.0, 1000), (0.0, 0), (2.0, 0)):
        r = mc_tail(ExperimentShape(3, 0), p3, t, samples=1000, seed=0)
        assert r.hits == hits and r.std_error == 0.0
        assert r.estimate == tail_exact(ExperimentShape(3, 0), p3, t)


@pytest.mark.parametrize("seed, hits", [(0, 744), (1, 768), (2, 801)])
def test_mc_hits_pinned(seed, hits):
    # the benchmark's mc-tail operation and two more seeds, as SciPy's xlogy counted them
    r = mc_tail(ExperimentShape(6, 100), ProbVector((1 / 6,) * 6), 8.0, samples=10**5, seed=seed)
    assert r.hits == hits


def test_mc_matches_enumeration():
    rng = np.random.default_rng(31)
    for k, n in ((2, 6), (3, 8), (4, 5)):
        shape = ExperimentShape(k, n)
        p = random_prob_vector(k, rng)
        t = 0.6 * meaningful_threshold(shape)
        exact = tail_exact(shape, p, t)
        est = mc_tail(shape, p, t, samples=10**5, seed=3)
        slack = 4 * max(est.std_error, math.sqrt(exact * (1 - exact) / est.samples))
        assert abs(est.estimate - exact) <= slack


def test_mc_validation():
    with pytest.raises(ValueError):
        mc_tail(ExperimentShape(2, 1), UNIFORM2, 0.1, samples=0, seed=0)
    with pytest.raises(ValueError):
        mc_tail(ExperimentShape(2, 1), UNIFORM2, 0.1, samples=10, seed=0, workers=0)
    with pytest.raises(ValueError):
        mc_tail(ExperimentShape(3, 1), UNIFORM2, 0.1, samples=10, seed=0)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            mc_tail(ExperimentShape(2, 3), UNIFORM2, t, samples=10, seed=0)
        with pytest.raises(ValueError, match="finite"):
            tail_exact(ExperimentShape(2, 3), UNIFORM2, t)
