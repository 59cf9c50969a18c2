"""The covering game: exact expected-duration oracles and Monte Carlo runs.

The game fixes measures p_1..p_n < 1 and repeatedly draws points; it ends on
the first round after which every set i has been missed at least once.  Under
independence the round count is T = max_i G_i where G_i is the number of
draws up to and including the first miss of set i, a geometric variable with
P(G_i > k) = p_i^k.

Two exact oracles cross-check each other:

* ``paper_T_series``            sum_{k>=1} (1 - prod_i (1 - p_i^k)),
* ``paper_T_inclusion_exclusion``  the same quantity expanded over nonempty
  index subsets as sum (-1)^(|s|-1) (1/(1-p_s) - 1).

Both equal E[T] - 1 (the k = 0 term of E[T] = sum_{k>=0} P(T > k) is always
1 and is not part of the series); ``expected_rounds`` adds it back and is
what simulations measure.  The series stops at the first K whose union
bound sum_i p_i^(K+1)/(1 - p_i) on the tail is <= tol/2, found by bisection
on k, and ``moment_zeta.blocked_sum`` sums the terms in numpy blocks of k,
so p_max near 1 costs milliseconds, not a Python loop over k; its rounding
bound, about 1/(1 - p_max) times 30 u, takes the other half of tol.

Reproducibility: trials are processed in fixed blocks of 4096, block b
drawing from numpy's default PCG64 generator seeded by
SeedSequence(seed, spawn_key=(b,)), and the block statistics accumulate in
block order, so a seed fixes the report bit for bit.  A run holds one
float64 workspace that every block draws into and reduces in place, stored
set-major (slabs x n x 4096) so that each per-trial reduction over the sets
runs along axis 0 as whole-vector operations: 2 x n x 4096 for random-p
(64 KB per set; 6.5 MB at n = 100), one n x 4096 slab for fixed-p and
zeta-mc.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import binom_sums
from .dist_core import EdgeDistribution, moment_sequence
from .errors import Divergence, TooManySets
from .moment_zeta import SumResult, blocked_sum, moment_zeta as _moment_zeta_sum

__all__ = [
    "GameParams",
    "SimulationReport",
    "win_prob_by",
    "paper_T_series",
    "paper_T_inclusion_exclusion",
    "expected_rounds",
    "run_trials",
    "zeta_expectation_mc",
    "TRIAL_BLOCK",
]

TRIAL_BLOCK = 4096
_SUBSET_LIMIT = 20
# paper_T_series stops here even when the tail bound is still above tol
_SERIES_CAP = 10_000_000
# elements per (k-block x n) array in paper_T_series
_SERIES_BLOCK = 1 << 16


@dataclass(frozen=True)
class GameParams:
    """Measures p_i of the covered sets; every p_i must be < 1."""

    p: tuple[float, ...]

    def __init__(self, p: Sequence[float]) -> None:
        vals = tuple(float(v) for v in p)
        for v in vals:
            if not (0.0 <= v < 1.0):
                raise ValueError(f"each p_i must lie in [0, 1), got {v}")
        object.__setattr__(self, "p", vals)

    @property
    def n(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class SimulationReport:
    """Summary statistics of a Monte Carlo run (stderr = sqrt(variance/trials)).

    heavy_tail is True when the sampled quantity has infinite variance, so
    that variance and stderr are not estimates of anything finite.
    """

    mode: str
    n: int
    trials: int
    seed: int
    mean: float
    variance: float
    stderr: float
    target: float | None = None
    target_kind: str | None = None
    heavy_tail: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


def win_prob_by(k: int, params: GameParams) -> float:
    """P(game over after k rounds) = prod_i (1 - p_i^k); 0 at k = 0 when n >= 1."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if params.n == 0:
        return 1.0
    if k == 0:
        return 0.0
    p = np.asarray(params.p, dtype=np.float64)
    return float(np.prod(1.0 - p ** float(k)))


def paper_T_series(params: GameParams, tol: float = 1e-12) -> SumResult:
    """sum_{k>=1} (1 - prod_i (1 - p_i^k)) with a geometric tail certificate.

    The tail past K is at most B(K) = sum_i p_i^(K+1)/(1 - p_i) by the union
    bound, and K is the first k with B(k) <= tol/2, capped at 10,000,000
    terms.  B decreases in k, so K is found by bisection on [1, cap].  The
    terms are summed by ``blocked_sum`` over (k-block x n) arrays of about
    2^16 elements, and tail_bound is B(K) plus its rounding bound.  It
    exceeds tol at the cap, or when that rounding, which grows like
    1/(1 - p_max), is above tol/2.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    if params.n == 0:
        return SumResult(value=0.0, tail_bound=0.0, terms_used=0, method="series")
    p = np.asarray(params.p, dtype=np.float64)
    live = p > 0.0
    if not np.any(live):
        return SumResult(value=0.0, tail_bound=0.0, terms_used=1, method="series")
    logs = np.log(p[live])
    one_minus = 1.0 - p[live]

    def bound(k: int) -> float:
        return float(np.sum(np.exp((k + 1.0) * logs) / one_minus))

    def terms(ks: np.ndarray) -> np.ndarray:
        # 1 - prod(1 - p_i^k) = 1 - win_prob_by(k), assembled in logs to keep
        # tiny terms honest
        return -np.expm1(np.sum(np.log1p(-np.exp(ks[:, None] * logs)), axis=1))

    K = 1 + bisect.bisect_left(range(1, _SERIES_CAP), True, key=lambda k: bound(k) <= tol / 2.0)
    total, rounding = blocked_sum(terms, K, max(1, _SERIES_BLOCK // logs.size))
    return SumResult(value=total, tail_bound=bound(K) + rounding, terms_used=K, method="series")


def paper_T_inclusion_exclusion(params: GameParams) -> float:
    """Exact subset expansion sum_{s nonempty} (-1)^(|s|-1) (1/(1-p_s) - 1).

    Enumerates all 2^n - 1 nonempty subsets; n is capped at 20.
    """
    n = params.n
    if n > _SUBSET_LIMIT:
        raise TooManySets(f"subset enumeration needs n <= {_SUBSET_LIMIT}, got {n}")
    if n == 0:
        return 0.0
    # products over subsets by doubling: prods[s] = prod_{i in s} p_i
    prods = np.ones(1, dtype=np.float64)
    sizes = np.zeros(1, dtype=np.int64)
    for pi in params.p:
        prods = np.concatenate([prods, prods * pi])
        sizes = np.concatenate([sizes, sizes + 1])
    terms = prods[1:] / (1.0 - prods[1:])  # 1/(1-p_s) - 1
    signs = np.where(sizes[1:] % 2 == 1, 1.0, -1.0)
    return float(np.sum(signs * terms))


def expected_rounds(params: GameParams, tol: float = 1e-12) -> float:
    """E[T] = 1 + paper_T_series: the k = 0 round of P(T > k) is certain."""
    return 1.0 + paper_T_series(params, tol=tol).value


def _block_rng(seed: int, index: int) -> np.random.Generator:
    """Block ``index``'s PCG64 stream: the seed's low 64 bits, spawned at (index,)."""
    return np.random.default_rng(np.random.SeedSequence(seed % 2**64, spawn_key=(index,)))


def _rounds(log_p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """T = max(1, max_i ceil(log(1 - u_i) / log p_i)) for each column of u, u_i in [0, 1).

    u is (n, m), one row per set, and log_p is (n, 1) or (n, m).  u is
    overwritten; the max runs over the sets along axis 0 and the (m,) result
    is a fresh array.  ceil is monotone, so the max is taken first.  A set
    with p_i = 0 gives log(1 - u_i) / -inf = +-0, which the initial 1
    absorbs, as it does no sets.
    """
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    np.divide(u, log_p, out=u)
    t = u.max(axis=0, initial=1.0)
    return np.ceil(t, out=t)


def _games_fixed(log_p: np.ndarray, work: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One play per column of work, with the measures whose logs are the column log_p."""
    return _rounds(log_p, rng.random(out=work[0]))


def _games_random_p(dist: EdgeDistribution, work: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """One play per column of work, each with fresh measures from dist (draws of 1.0 redrawn)."""
    p = np.asarray(dist.ppf(rng.random(out=work[0])), dtype=np.float64)
    while True:
        bad = p >= 1.0
        if not np.any(bad):
            break
        p[bad] = dist.ppf(rng.random(int(np.count_nonzero(bad))))
    with np.errstate(divide="ignore"):
        np.log(p, out=work[0])
    return _rounds(work[0], rng.random(out=work[1]))


def _zeta_draws(dist: EdgeDistribution, work: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw of 1/(1 - x_1 ... x_n) per column of work, the x_i independent from dist."""
    x = np.asarray(dist.ppf(rng.random(out=work[0])), dtype=np.float64)
    d = np.prod(x, axis=0)
    np.subtract(1.0, d, out=d)
    return np.divide(1.0, d, out=d)


Draw = Callable[[np.ndarray, "np.random.Generator"], np.ndarray]


def _blocks(draw: Draw, slabs: int, n: int, trials: int, seed: int) -> Iterator[np.ndarray]:
    """Each block's ``draw(work, rng)``, in order: trials in blocks of TRIAL_BLOCK,
    block b drawing from ``_block_rng(seed, b)``.

    One flat buffer of slabs x n x min(trials, TRIAL_BLOCK) floats serves the
    whole run; a block of m trials gets its first slabs x n x m as the
    contiguous (slabs, n, m) array work.  Every yielded array is the draw's
    own, so blocks may be kept while later ones are drawn.
    """
    buf = np.empty(slabs * n * min(trials, TRIAL_BLOCK))
    for b0 in range(0, trials, TRIAL_BLOCK):
        m = min(TRIAL_BLOCK, trials - b0)
        yield draw(buf[: slabs * n * m].reshape(slabs, n, m), _block_rng(seed, b0 // TRIAL_BLOCK))


def _fixed_draw(params: GameParams) -> Draw:
    """The fixed-p kernel for params, with log p_i taken once for the run as an (n, 1) column."""
    with np.errstate(divide="ignore"):
        return partial(_games_fixed, np.log(np.asarray(params.p, dtype=np.float64))[:, None])


def _simulate(mode: str, n: int, draw: Draw, slabs: int, trials: int, seed: int,
              target: float | None, target_kind: str, heavy_tail: bool) -> SimulationReport:
    """Mean and variance of ``trials`` draws; block sums accumulate in block order."""
    total = total_sq = 0.0
    for out in _blocks(draw, slabs, n, trials, seed):
        total += float(out.sum())
        total_sq += float((out * out).sum())
    mean = total / trials
    variance = max(total_sq - trials * mean * mean, 0.0) / max(trials - 1, 1)
    return SimulationReport(
        mode=mode, n=n, trials=trials, seed=seed, mean=mean, variance=variance,
        stderr=math.sqrt(variance / trials), target=target, target_kind=target_kind,
        heavy_tail=heavy_tail,
    )


def run_trials(
    mode: str,
    source: GameParams | EdgeDistribution,
    trials: int,
    seed: int,
    n: int | None = None,
) -> SimulationReport:
    """Aggregate many plays of the game, deterministically in seed.

    mode="fixed-p": ``source`` is a GameParams played every trial; the target
    is the exact expected_rounds, and T has every moment, so heavy_tail is
    False.  mode="random-p": each trial draws fresh p_1..p_n from ``source``
    (p = 1.0 draws are rejected and resampled); the target is 1 - A(n; 1)
    over the distribution's moment sequence when that sum converges,
    otherwise the report is flagged divergent.  E[T^2] = sum_k (2k+1)
    (1 - (1 - m_k)^n) is finite exactly when alpha > 2, so heavy_tail is
    alpha <= 2.  Targets are computed before any trial is played.

    The run holds one set-major float64 workspace, 2 x n x 4096 for random-p
    (6.5 MB at n = 100) and n x 4096 for fixed-p; each block of 4096 trials
    draws into it from its own PCG64 stream and reduces over the sets along
    axis 0, in place.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if mode == "fixed-p":
        if not isinstance(source, GameParams):
            raise TypeError("fixed-p mode needs GameParams")
        return _simulate("fixed-p", source.n, _fixed_draw(source), 1, trials, seed,
                         expected_rounds(source, tol=1e-10), "expected-rounds", False)
    if mode == "random-p":
        if not isinstance(source, EdgeDistribution):
            raise TypeError("random-p mode needs an EdgeDistribution")
        if n is None or n < 1:
            raise ValueError("random-p mode needs the number of sets n >= 1")
        n = int(n)
        ms = moment_sequence(source)
        try:
            target = 1.0 - binom_sums.alt_sum_stable(ms, n, kmin=1, tol=1e-4).value
            target_kind = "one-minus-alt-sum"
        except Divergence:
            target, target_kind = None, "divergent"
        return _simulate("random-p", n, partial(_games_random_p, source), 2, trials, seed,
                         target, target_kind, ms.power_law.alpha <= 2.0)
    raise ValueError(f"mode must be 'fixed-p' or 'random-p', got {mode!r}")


def zeta_expectation_mc(
    dist: EdgeDistribution, n: int, trials: int, seed: int
) -> SimulationReport:
    """Monte Carlo mean of 1/(1 - x_1 ... x_n) over independent draws from dist.

    The mean estimates 1 + Z(n) = sum_{j>=0} m_j^n (the j = 0 term is the
    unit mass).  When Z(n) diverges the report carries target_kind
    "divergent" instead of a comparison value.  The second moment
    sum_{j>=0} (j+1) m_j^n is finite exactly when alpha n > 2, so heavy_tail
    is alpha n <= 2 (the uniform case below n = 3).  The target is computed
    before any draw.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"need integer n >= 1, got {n!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = int(n)
    ms = moment_sequence(dist)
    try:
        target = 1.0 + _moment_zeta_sum(ms, float(n), tol=1e-10).value
        target_kind = "one-plus-moment-zeta"
    except Divergence:
        target, target_kind = None, "divergent"
    return _simulate("zeta-mc", n, partial(_zeta_draws, dist), 1, trials, seed, target,
                     target_kind, ms.power_law.alpha * n <= 2.0)
