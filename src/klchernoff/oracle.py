"""Ground-truth engine: exact enumeration and Monte Carlo for small shapes.

Enumerates every multinomial outcome at desk scale to evaluate the MGF, the
p-dependent polynomial definition, and exact tail probabilities; estimates
tails by seeded Monte Carlo where enumeration is out of reach; gives the
polynomial's coefficients as exact rationals for bit-exact checks.  These
routines are deliberately independent of the coefficient-based evaluation in
:mod:`klchernoff.gkn` so the two can cross-check each other; they share only
the log-sum-exp reduction, which is tested on its own against SciPy's.
They need only NumPy and ``math``, so no command loads SciPy.  The thread
pool of a multi-worker Monte Carlo run is imported inside :func:`mc_tail`, so
importing this module (and the package) does not load ``concurrent.futures``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .data import ProbVector
from .gkn import ExperimentShape, logsumexp
from .special import rel_entr

ENUMERATION_GUARD = 10**7
_BLOCK = 65536


@dataclass(frozen=True)
class Outcome:
    """One count vector summing to n, with its log multinomial coefficient."""

    counts: tuple[int, ...]
    log_multinomial_coeff: float


def kl_divergence(phat: ProbVector, p: ProbVector) -> float:
    """D(phat || p) in nats with the conventions 0 log 0 = 0, 0 log(0/0) = 0.

    Returns +inf when phat puts mass where p has none.
    """
    if len(phat) != len(p):
        raise ValueError(f"length mismatch: {len(phat)} vs {len(p)}")
    return float(np.array([rel_entr(a, b) for a, b in zip(phat.probs, p.probs)]).sum())


def n_outcomes(shape: ExperimentShape) -> int:
    """Number of count vectors: C(n+k-1, k-1)."""
    return math.comb(shape.n + shape.k - 1, shape.k - 1)


def _check_guard(shape: ExperimentShape) -> None:
    total = n_outcomes(shape)
    if total > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration over {total} outcomes exceeds guard of {ENUMERATION_GUARD}"
        )


def _count_blocks(shape: ExperimentShape) -> Iterator[np.ndarray]:
    """Yield lexicographically ordered count vectors in blocks of rows."""
    k, n = shape.k, shape.n
    block = np.empty((_BLOCK, k), dtype=np.int64)
    x = [0] * k
    x[-1] = n
    filled = 0
    while True:
        block[filled] = x
        filled += 1
        if filled == _BLOCK:
            yield block.copy()
            filled = 0
        # lexicographic successor: move one unit left from the last positive
        # entry, dumping whatever remains of it onto the final coordinate
        last = k - 1
        while last >= 1 and x[last] == 0:
            last -= 1
        if last < 1:
            break
        rest = x[last] - 1
        x[last] = 0
        x[last - 1] += 1
        x[k - 1] = rest
    if filled:
        yield block[:filled].copy()


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x log y elementwise for counts x >= 0, and 0 wherever x = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def _coeff_blocks(shape: ExperimentShape) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of count vectors, each with its rows' log multinomial coefficients.

    The log factorials 0!, ..., n! are one ``math.lgamma`` table per call,
    indexed by the counts.
    """
    n = shape.n
    log_fact = np.array([math.lgamma(m + 1.0) for m in range(n + 1)])
    for block in _count_blocks(shape):
        yield block, log_fact[n] - log_fact[block].sum(axis=1)


def enumerate_outcomes(shape: ExperimentShape) -> Iterator[Outcome]:
    """Every count vector exactly once, in lexicographic order."""
    _check_guard(shape)
    for block, coeffs in _coeff_blocks(shape):
        for row, lc in zip(block, coeffs):
            yield Outcome(counts=tuple(int(v) for v in row), log_multinomial_coeff=float(lc))


def _stat_blocks(shape: ExperimentShape, p: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per block, per row: log multinomial coeff, sum X log(X/n), sum X log p (or -inf)."""
    n = shape.n
    support = p > 0.0
    log_p = np.where(support, np.log(np.where(support, p, 1.0)), 0.0)
    for block, log_coeff in _coeff_blocks(shape):
        a = _xlogy(block, block).sum(axis=1) - n * math.log(n)
        b = block @ log_p
        if not support.all():
            off = block[:, ~support].sum(axis=1) > 0
            b = np.where(off, -np.inf, b)
        yield log_coeff, a, b


def mgf_exact(shape: ExperimentShape, p: ProbVector, lam: float) -> float:
    """E exp(lam * n * D(phat || p)) by exact enumeration, log-domain per term."""
    if len(p) != shape.k:
        raise ValueError("probability vector length must equal k")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    _check_guard(shape)
    if shape.n == 0:
        return 1.0
    block_sums = []
    for log_coeff, a, b in _stat_blocks(shape, p.as_array()):
        valid = b > -np.inf
        terms = log_coeff[valid] + lam * a[valid] + (1.0 - lam) * b[valid]
        if terms.size:
            block_sums.append(logsumexp(terms))
    return math.exp(logsumexp(np.asarray(block_sums)))


def exact_coefficients(shape: ExperimentShape) -> tuple[Fraction, ...]:
    """All n + 1 coefficients n! / (n^m (n-m)!) * C(m+k-2, k-2) of the
    polynomial as exact rationals; ``(1,)`` for k = 1 or n = 0.

    Built from the closed form, independently of the log-domain ratio walk
    of :func:`klchernoff.gkn.build_evaluator`, so the two can be compared.
    """
    k, n = shape.k, shape.n
    if k == 1 or n == 0:
        return (Fraction(1),)
    return tuple(
        Fraction(math.factorial(n), n**m * math.factorial(n - m)) * math.comb(m + k - 2, k - 2)
        for m in range(n + 1)
    )


def gkn_from_definition(shape: ExperimentShape, p: ProbVector, lam: float) -> float:
    """The p-dependent polynomial sum over outcomes of
    coeff * prod_i [lam X_i / n + (1-lam) p_i]^{X_i}, with 0^0 = 1.

    Equals the p-free coefficient form for every p; evaluated here directly
    from its defining sum as an independent check of that fact.
    """
    if len(p) != shape.k:
        raise ValueError("probability vector length must equal k")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    _check_guard(shape)
    if shape.n == 0:
        return 1.0
    parr = p.as_array()
    n = shape.n
    block_sums = []
    for block, log_coeff in _coeff_blocks(shape):
        w = lam * block / n + (1.0 - lam) * parr[None, :]
        terms = log_coeff + _xlogy(block, w).sum(axis=1)
        terms = terms[terms > -np.inf]
        if terms.size:
            block_sums.append(logsumexp(terms))
    return math.exp(logsumexp(np.asarray(block_sums)))


def _require_finite(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"threshold t must be finite, got {t}")


def tail_exact(shape: ExperimentShape, p: ProbVector, t: float) -> float:
    """P(n * D(phat || p) > t) by exact enumeration (strict inequality)."""
    if len(p) != shape.k:
        raise ValueError("probability vector length must equal k")
    _require_finite(t)
    _check_guard(shape)
    if shape.n == 0:
        return 0.0 if t >= 0.0 else 1.0
    acc = 0.0
    for log_coeff, a, b in _stat_blocks(shape, p.as_array()):
        valid = b > -np.inf
        stat = a[valid] - b[valid]
        log_prob = log_coeff[valid] + b[valid]
        acc += float(np.exp(log_prob[stat > t]).sum())
    return min(acc, 1.0)


@dataclass(frozen=True)
class MCTailResult:
    """Monte Carlo tail estimate with its binomial standard error."""

    estimate: float
    std_error: float
    samples: int
    hits: int


def _sample_chunk(shape: ExperimentShape, p: np.ndarray, t: float, size: int, seed: int, chunk_index: int) -> int:
    rng = np.random.default_rng([seed, chunk_index])
    k, n = shape.k, shape.n
    counts = np.zeros((size, k), dtype=np.int64)
    remaining = np.full(size, n, dtype=np.int64)
    rest_mass = 1.0
    for i in range(k - 1):
        cond = min(max(p[i] / rest_mass, 0.0), 1.0) if rest_mass > 1e-300 else 0.0
        draw = rng.binomial(remaining, cond)
        counts[:, i] = draw
        remaining -= draw
        rest_mass -= p[i]
    counts[:, k - 1] = remaining
    p_safe = np.where(p > 0.0, p, 1.0)
    stat = _xlogy(counts, counts / (n * p_safe[None, :])).sum(axis=1)
    return int((stat > t).sum())


def mc_tail(
    shape: ExperimentShape,
    p: ProbVector,
    t: float,
    samples: int,
    seed: int,
    workers: int = 1,
    chunk_size: int = 8192,
) -> MCTailResult:
    """Estimate P(n * D(phat || p) > t) from seeded multinomial sampling.

    Samples are drawn by sequential binomial conditioning (O(k) per draw,
    independent of n) in fixed-size chunks whose generators are seeded from
    (seed, chunk index); the estimate is therefore deterministic for fixed
    (seed, samples, chunk_size) and invariant to the number of workers.
    """
    if len(p) != shape.k:
        raise ValueError("probability vector length must equal k")
    _require_finite(t)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    parr = p.as_array()
    sizes = [chunk_size] * (samples // chunk_size)
    if samples % chunk_size:
        sizes.append(samples % chunk_size)

    def run(idx_size: tuple[int, int]) -> int:
        idx, size = idx_size
        return _sample_chunk(shape, parr, t, size, seed, idx)

    jobs = list(enumerate(sizes))
    if shape.n == 0:
        # the one outcome has statistic 0, which exceeds t exactly when t < 0
        hits = samples if t < 0.0 else 0
    elif workers == 1:
        hits = sum(run(job) for job in jobs)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(run, jobs))
    estimate = hits / samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
    return MCTailResult(estimate=estimate, std_error=std_error, samples=samples, hits=hits)


def random_prob_vector(k: int, rng: np.random.Generator, zero_coord: int | None = None) -> ProbVector:
    """Interior simplex point from normalized exponentials (symmetric Dirichlet(1)).

    With ``zero_coord`` set, that coordinate is pinned to exactly zero to
    exercise boundary behavior.
    """
    g = rng.exponential(size=k)
    if zero_coord is not None:
        g[zero_coord] = 0.0
    g /= g.sum()
    return ProbVector(probs=tuple(float(v) for v in g))
