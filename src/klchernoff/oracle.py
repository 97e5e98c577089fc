"""Ground-truth engine: exact enumeration and Monte Carlo for small shapes.

Enumerates every multinomial outcome at desk scale to evaluate the MGF, the
p-dependent polynomial definition, and exact tail probabilities; estimates
tails by seeded Monte Carlo where enumeration is out of reach; gives the
polynomial's coefficients as exact rationals for bit-exact checks.  One
generator, :func:`_coeff_blocks`, enumerates by stars and bars, and one
per-shape helper, :func:`_outcome_sums`, draws its blocks once for any number
of sums: the MGF and the polynomial's definition at many (p, lambda), and the
tail at many (p, t).  :func:`mgf_exact`, :func:`gkn_from_definition` and
:func:`tail_exact` are that helper for one argument, and ``verify`` calls it
once per shape.  The rows p cannot produce are masked once per block, and
every value is bit for bit what a call for it alone gives.  The module loads
``fractions`` only inside :func:`exact_coefficients`, as no command needs
it.  All of it is independent of the
coefficient-based evaluation in :mod:`klchernoff.gkn`, so the two cross-check
each other; they share only the log-sum-exp reduction, tested on its own
against SciPy's.  It needs only NumPy and ``math``, so no command loads SciPy.
:func:`mc_tail` imports its thread pool only for several workers, so importing
this module (and the package) does not load ``concurrent.futures``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .data import ProbVector
from .gkn import ExperimentShape, logsumexp
from .special import rel_entr

if TYPE_CHECKING:
    from fractions import Fraction

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


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x log y elementwise for counts x >= 0, and 0 wherever x = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def _coeff_blocks(shape: ExperimentShape) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of ``_BLOCK`` count vectors (the last one shorter), each with its
    rows' log multinomial coefficients from one ``math.lgamma`` table.

    Stars and bars: k - 1 bars among n + k - 1 slots give the counts as the
    gaps between the edges ``[-1, bars..., n + k - 1]``, minus one.  Bars in
    lexicographic order give counts in lexicographic order; k = 1 has one
    empty bar tuple, so its one row is ``(n,)``.
    """
    k, n = shape.k, shape.n
    log_fact = np.array([math.lgamma(m + 1.0) for m in range(n + 1)])
    bars = itertools.combinations(range(n + k - 1), k - 1)
    for chunk in iter(lambda: list(itertools.islice(bars, _BLOCK)), []):
        block = np.diff(np.array(chunk, dtype=np.int64), axis=1, prepend=-1, append=n + k - 1) - 1
        yield block, log_fact[n] - log_fact[block].sum(axis=1)


def enumerate_outcomes(shape: ExperimentShape) -> Iterator[Outcome]:
    """Every count vector exactly once, in lexicographic order."""
    _check_guard(shape)
    for block, coeffs in _coeff_blocks(shape):
        for row, lc in zip(block, coeffs):
            yield Outcome(counts=tuple(int(v) for v in row), log_multinomial_coeff=float(lc))


def _append_row_sums(sums: list[list], terms: np.ndarray) -> None:
    """Append to ``sums[r]`` the log-sum-exp of the finite entries of row r of
    ``terms``, for each row with one.  Rows reduce along the contiguous axis,
    which sums each pairwise as the 1-d sum of that row alone; a row with
    -inf entries drops them first, as a lone row would."""
    if not terms.shape[1]:
        return
    if (terms > -np.inf).all():
        for row_sums, value in zip(sums, logsumexp(terms, axis=-1).tolist()):
            row_sums.append(value)
        return
    for row_sums, row in zip(sums, terms):
        row = row[row > -np.inf]
        if row.size:
            row_sums.append(logsumexp(row))


def _outcome_sums(
    shape: ExperimentShape,
    ps: list[np.ndarray],
    mgf_lams: Sequence[float] = (),
    definition_lams: Sequence[float] = (),
    ts: Sequence[Sequence[float]] | None = None,
) -> tuple[list[list[float]], list[list[float]], list[list[float]]]:
    """Sums over the outcomes of ``shape`` for many arguments, from one
    enumeration: for each probability array p of ``ps``, the MGF at each
    lambda of ``mgf_lams``, the polynomial's definition at each lambda of
    ``definition_lams``, and the tail P(n D > t) at each t of ``ts[i]``
    (no tails if ``ts`` is None).  Returns the three tables, indexed
    [p][lambda] and [p][t].

    Each value is, bit for bit, what a call for its argument alone returns.
    The lambdas of one p are evaluated together in ``(lambdas, outcomes)``
    arrays, with the same elementwise steps as one lambda, and each row
    reduces on its own (:func:`_append_row_sums`); the rows p cannot produce
    are masked before its sums, and a block's exponentials are taken once for
    all its thresholds.  The arguments and the guard are checked before the
    first block is drawn.
    """
    k, n = shape.k, shape.n
    ts = [()] * len(ps) if ts is None else ts
    if any(len(p) != k for p in ps):
        raise ValueError("probability vector length must equal k")
    for lam in (*mgf_lams, *definition_lams):
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    for t_list in ts:
        for t in t_list:
            _require_finite(t)
    _check_guard(shape)
    if n == 0:
        # the one outcome has statistic 0 and weight 1
        return (
            [[1.0] * len(mgf_lams) for _ in ps],
            [[1.0] * len(definition_lams) for _ in ps],
            [[0.0 if t >= 0.0 else 1.0 for t in t_list] for t_list in ts],
        )
    mgf_col = np.array(mgf_lams, dtype=float)[:, None]
    definition_col = np.array(definition_lams, dtype=float)[:, None, None]
    supports = [p > 0.0 for p in ps]
    log_ps = [np.log(np.where(support, p, 1.0)) for p, support in zip(ps, supports)]
    mgf_sums = [[[] for _ in mgf_lams] for _ in ps]
    definition_sums = [[[] for _ in definition_lams] for _ in ps]
    tails = [[0.0] * len(t_list) for t_list in ts]
    statistic = bool(mgf_lams) or any(ts)
    for block, log_coeff in _coeff_blocks(shape):
        # sum X log(X/n), the p-free part of n D(phat || p)
        a_block = _xlogy(block, block).sum(axis=1) - n * math.log(n) if statistic else None
        for i, p in enumerate(ps):
            if definition_lams:
                y = definition_col * block / n + (1.0 - definition_col) * p
                _append_row_sums(definition_sums[i], log_coeff + _xlogy(block, y).sum(axis=-1))
            if not (mgf_lams or ts[i]):
                continue
            # the rows p can produce, with their sum X log p, all finite
            rows, log_c, a = block, log_coeff, a_block
            if not supports[i].all():
                keep = ~block[:, ~supports[i]].any(axis=1)
                rows, log_c, a = block[keep], log_coeff[keep], a_block[keep]
            b = rows @ log_ps[i]
            if mgf_lams:
                _append_row_sums(mgf_sums[i], log_c + mgf_col * a + (1.0 - mgf_col) * b)
            if ts[i]:
                weights, stat = np.exp(log_c + b), a - b
                for j, t in enumerate(ts[i]):
                    tails[i][j] += float(weights[stat > t].sum())
    return (
        [[math.exp(logsumexp(np.asarray(sums))) for sums in per_p] for per_p in mgf_sums],
        [[math.exp(logsumexp(np.asarray(sums))) for sums in per_p] for per_p in definition_sums],
        [[min(acc, 1.0) for acc in per_p] for per_p in tails],
    )


def mgf_exact(shape: ExperimentShape, p: ProbVector, lam: float) -> float:
    """E exp(lam * n * D(phat || p)) by exact enumeration, log-domain per term."""
    return _outcome_sums(shape, [p.as_array()], mgf_lams=[lam])[0][0][0]


def exact_coefficients(shape: ExperimentShape) -> tuple[Fraction, ...]:
    """All n + 1 coefficients n! / (n^m (n-m)!) * C(m+k-2, k-2) of the
    polynomial as exact rationals; ``(1,)`` for k = 1 or n = 0.

    Built from the closed form, independently of the log-domain ratio walk
    of :func:`klchernoff.gkn.build_evaluator`, so the two can be compared.
    """
    # imported here: fractions loads decimal, which no command needs
    from fractions import Fraction

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
    return _outcome_sums(shape, [p.as_array()], definition_lams=[lam])[1][0][0]


def _require_finite(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"threshold t must be finite, got {t}")


def tail_exact(shape: ExperimentShape, p: ProbVector, t: float) -> float:
    """P(n * D(phat || p) > t) by exact enumeration (strict inequality)."""
    return _outcome_sums(shape, [p.as_array()], ts=[[t]])[2][0][0]


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
