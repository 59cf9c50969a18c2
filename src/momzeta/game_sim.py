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
bound sum_i p_i^(K+1)/(1 - p_i) on the tail is <= tol, found inside a
closed-form bracket for K, and the terms are summed in numpy blocks of k, so
p_max near 1 costs milliseconds, not a Python loop over k.

Reproducibility: trials are processed in fixed blocks of 4096, each block
drawing from a Philox stream keyed by (seed, block index), and the block
statistics accumulate in block order, so a seed fixes the report bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox

from . import binom_sums
from .dist_core import EdgeDistribution, moment_sequence
from .errors import Divergence, TooManySets
from .moment_zeta import SumResult, moment_zeta as _moment_zeta_sum

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
# a single max-term carrying >=10% of the sample total marks a heavy tail
_HEAVY_TAIL_SHARE = 0.10
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
    """Summary statistics of a Monte Carlo run (stderr = sqrt(variance/trials))."""

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


def _first_within(k_lo: int, k_hi: int, logs: np.ndarray, one_minus: np.ndarray,
                  tol: float, rows: int) -> tuple[int, float]:
    """First k >= k_lo whose union bound sum_i p_i^(k+1)/(1 - p_i) is <= tol,
    or the cap, with that bound.

    The bracket [k_lo, k_hi] is scanned first; past it only rounding in the
    bracket's own logs could leave the first such k.
    """
    for lo, hi in ((k_lo, k_hi), (k_hi + 1, _SERIES_CAP)):
        for k0 in range(lo, hi + 1, rows):
            ks = np.arange(k0, min(k0 + rows, hi + 1), dtype=np.float64)
            bounds = np.sum(np.exp((ks + 1.0)[:, None] * logs) / one_minus, axis=1)
            hit = np.flatnonzero(bounds <= tol)
            if hit.size:
                return int(ks[hit[0]]), float(bounds[hit[0]])
    return _SERIES_CAP, float(bounds[-1])


def paper_T_series(params: GameParams, tol: float = 1e-12) -> SumResult:
    """sum_{k>=1} (1 - prod_i (1 - p_i^k)) with a geometric tail certificate.

    The tail past K is at most B(K) = sum_i p_i^(K+1)/(1 - p_i) by the union
    bound, and K is the first k with B(k) <= tol, capped at 10,000,000 terms
    (then tail_bound is B(cap) and exceeds tol).  B(k) lies between its
    largest term and p_max^(k+1) sum_i 1/(1 - p_i), which bracket K in closed
    form; B is evaluated in blocks of k inside that bracket only.  The terms
    are summed over (k-block x n) arrays of about 2^16 elements.
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
    rows = max(1, _SERIES_BLOCK // logs.size)
    # B(k) <= tol needs every term p_i^(k+1)/(1 - p_i) <= tol and holds once
    # p_max^(k+1) sum_i 1/(1 - p_i) <= tol.  Two steps of slack at each end
    # give B a margin of a factor p_max, larger than the rounding of these
    # logs and of B until 1 - p_max nears 1e-13, far inside the cap.
    log_tol = math.log(tol)
    lower = np.max(np.ceil((log_tol + np.log(one_minus)) / logs)) - 3.0
    upper = np.ceil((log_tol - math.log(np.sum(1.0 / one_minus))) / logs.max()) + 1.0
    k_lo = int(np.clip(lower, 1, _SERIES_CAP))
    k_hi = int(np.clip(upper, k_lo, _SERIES_CAP))
    K, bound = _first_within(k_lo, k_hi, logs, one_minus, tol, rows)
    total = 0.0
    for k0 in range(1, K + 1, rows):
        ks = np.arange(k0, min(k0 + rows, K + 1), dtype=np.float64)
        # 1 - prod(1 - p_i^k) = 1 - win_prob_by(k), assembled in logs to keep
        # tiny terms honest
        log_win = np.sum(np.log1p(-np.exp(ks[:, None] * logs)), axis=1)
        total -= float(np.sum(np.expm1(log_win)))
    return SumResult(value=total, tail_bound=bound, terms_used=K, method="series")


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


def _block_rng(seed: int, index: int) -> Generator:
    return Generator(Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, index]))


def _games_fixed(params: GameParams, m: int, rng: Generator) -> np.ndarray:
    """m plays: T = max_i ceil(log U_i / log p_i), with G_i = 1 when p_i = 0
    and T = 1 when there are no sets."""
    p = np.asarray(params.p, dtype=np.float64)
    u = 1.0 - rng.random((m, params.n))
    with np.errstate(divide="ignore"):
        g = np.ceil(np.log(u) / np.log(p)[None, :])
    g = np.where(p[None, :] == 0.0, 1.0, np.maximum(g, 1.0))
    return g.max(axis=1, initial=1.0)


def _games_random_p(dist: EdgeDistribution, n: int, m: int, rng: Generator) -> np.ndarray:
    p = np.asarray(dist.ppf(rng.random((m, n))), dtype=np.float64)
    while True:
        bad = p >= 1.0
        if not np.any(bad):
            break
        p[bad] = dist.ppf(rng.random(int(np.count_nonzero(bad))))
    u = 1.0 - rng.random((m, n))
    with np.errstate(divide="ignore"):
        g = np.ceil(np.log(u) / np.log(p))
    g = np.where(p == 0.0, 1.0, np.maximum(g, 1.0))
    return g.max(axis=1)


def _zeta_draws(dist: EdgeDistribution, n: int, m: int, rng: Generator) -> np.ndarray:
    """m draws of 1/(1 - x_1 ... x_n), the x_i independent from dist."""
    x = np.asarray(dist.ppf(rng.random((m, n))), dtype=np.float64)
    return 1.0 / (1.0 - np.prod(x, axis=1))


def _sim_blocks(draw: Callable[[int, Generator], np.ndarray], trials: int, seed: int):
    """Run trials in fixed blocks, block b drawing ``draw(m, rng)`` from the
    stream keyed by (seed, b); block sums accumulate in block order."""
    total = 0.0
    total_sq = 0.0
    top = 0.0
    for b0 in range(0, trials, TRIAL_BLOCK):
        out = draw(min(TRIAL_BLOCK, trials - b0), _block_rng(seed, b0 // TRIAL_BLOCK))
        total += float(out.sum())
        total_sq += float((out * out).sum())
        top = max(top, float(out.max()))
    mean = total / trials
    variance = max(total_sq - trials * mean * mean, 0.0) / max(trials - 1, 1)
    stderr = math.sqrt(variance / trials)
    heavy = trials >= 100 and top >= _HEAVY_TAIL_SHARE * total
    return mean, variance, stderr, heavy


def run_trials(
    mode: str,
    source: GameParams | EdgeDistribution,
    trials: int,
    seed: int,
    n: int | None = None,
) -> SimulationReport:
    """Aggregate many plays of the game, deterministically in seed.

    mode="fixed-p": ``source`` is a GameParams played every trial; the target
    is the exact expected_rounds.  mode="random-p": each trial draws fresh
    p_1..p_n from ``source`` (p = 1.0 draws are rejected and resampled); the
    target is 1 - A(n; 1) over the distribution's moment sequence when that
    sum converges, otherwise the report is flagged divergent.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if mode == "fixed-p":
        if not isinstance(source, GameParams):
            raise TypeError("fixed-p mode needs GameParams")
        params = source
        mean, variance, stderr, heavy = _sim_blocks(
            lambda m, rng: _games_fixed(params, m, rng), trials, seed
        )
        target = expected_rounds(params, tol=1e-10)
        return SimulationReport(
            mode="fixed-p", n=params.n, trials=trials, seed=seed, mean=mean,
            variance=variance, stderr=stderr, target=target,
            target_kind="expected-rounds", heavy_tail=heavy,
        )
    if mode == "random-p":
        if not isinstance(source, EdgeDistribution):
            raise TypeError("random-p mode needs an EdgeDistribution")
        if n is None or n < 1:
            raise ValueError("random-p mode needs the number of sets n >= 1")
        n = int(n)
        mean, variance, stderr, heavy = _sim_blocks(
            lambda m, rng: _games_random_p(source, n, m, rng), trials, seed
        )
        ms = moment_sequence(source)
        if ms.tail is not None and ms.tail.alpha > 1.0:
            target = 1.0 - binom_sums.alt_sum_stable(ms, n, kmin=1, tol=1e-4).value
            target_kind = "one-minus-alt-sum"
        else:
            target = None
            target_kind = "divergent"
        return SimulationReport(
            mode="random-p", n=n, trials=trials, seed=seed, mean=mean,
            variance=variance, stderr=stderr, target=target,
            target_kind=target_kind, heavy_tail=heavy,
        )
    raise ValueError(f"mode must be 'fixed-p' or 'random-p', got {mode!r}")


def zeta_expectation_mc(
    dist: EdgeDistribution, n: int, trials: int, seed: int
) -> SimulationReport:
    """Monte Carlo mean of 1/(1 - x_1 ... x_n) over independent draws from dist.

    The mean estimates 1 + Z(n) = sum_{j>=0} m_j^n (the j = 0 term is the
    unit mass).  When Z(n) diverges the report carries target_kind
    "divergent" instead of a comparison value.  Below n = 3 the uniform case
    has infinite variance, so the stderr is indicative only; the heavy-tail
    flag reports when a single draw dominates the sample.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"need integer n >= 1, got {n!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = int(n)
    mean, variance, stderr, heavy = _sim_blocks(
        lambda m, rng: _zeta_draws(dist, n, m, rng), trials, seed
    )
    ms = moment_sequence(dist)
    try:
        target = 1.0 + _moment_zeta_sum(ms, float(n), tol=1e-10).value
        target_kind = "one-plus-moment-zeta"
    except Divergence:
        target = None
        target_kind = "divergent"
    return SimulationReport(
        mode="zeta-mc", n=n, trials=trials, seed=seed, mean=mean,
        variance=variance, stderr=stderr, target=target,
        target_kind=target_kind, heavy_tail=heavy,
    )
