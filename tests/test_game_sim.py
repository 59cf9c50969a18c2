import functools
import itertools
import math
import tracemalloc
from dataclasses import asdict, dataclass
from functools import partial

import mpmath
import numpy as np
import pytest

from momzeta.binom_sums import alt_sum_stable, predict
from momzeta.dist_core import BetaEdge, TabulatedDensity, Uniform, moment_sequence
from momzeta import game_sim
from momzeta.errors import Divergence, InvalidTail, TailUnavailable, TooManySets
from momzeta.game_sim import (
    TRIAL_BLOCK,
    GameParams,
    _block_rng,
    _blocks,
    _fixed_draw,
    _games_random_p,
    _zeta_draws,
    expected_rounds,
    paper_T_inclusion_exclusion,
    paper_T_series,
    run_trials,
    win_prob_by,
    zeta_expectation_mc,
)
from momzeta.moment_zeta import _pairwise_roundings, higham_gamma, moment_zeta

ZETA3 = 1.2020569031595942854


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

def test_win_prob_examples():
    assert win_prob_by(1, GameParams([0.5])) == pytest.approx(0.5)
    assert win_prob_by(2, GameParams([0.5, 0.5])) == pytest.approx(0.5625)
    assert win_prob_by(0, GameParams([0.5, 0.2])) == 0.0
    assert win_prob_by(7, GameParams([])) == 1.0


def test_win_prob_monotone_to_one():
    params = GameParams([0.9, 0.5, 0.3])
    values = [win_prob_by(k, params) for k in range(0, 200)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-8)


def test_series_fixed_values():
    assert paper_T_series(GameParams([0.5]), tol=1e-14).value == pytest.approx(1.0, abs=1e-12)
    assert paper_T_series(GameParams([0.5, 0.5]), tol=1e-14).value == pytest.approx(
        5.0 / 3.0, abs=1e-12
    )
    empty = paper_T_series(GameParams([]))
    assert empty.value == 0.0 and empty.tail_bound == 0.0


def test_series_tail_bound_is_honest():
    params = GameParams([0.5, 0.5])
    res = paper_T_series(params, tol=1e-6)
    assert abs(res.value - 5.0 / 3.0) <= res.tail_bound


def test_inclusion_exclusion_fixed_values():
    assert paper_T_inclusion_exclusion(GameParams([0.5])) == pytest.approx(1.0, abs=1e-14)
    assert paper_T_inclusion_exclusion(GameParams([0.5, 0.5])) == pytest.approx(
        5.0 / 3.0, abs=1e-14
    )
    # 3*1 - 3*(1/3) + 1/7
    assert paper_T_inclusion_exclusion(GameParams([0.5, 0.5, 0.5])) == pytest.approx(
        15.0 / 7.0, abs=1e-14
    )


def test_inclusion_exclusion_set_cap():
    with pytest.raises(TooManySets):
        paper_T_inclusion_exclusion(GameParams([0.1] * 21))


def test_oracles_agree_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        params = GameParams(rng.uniform(0.0, 0.9, size=n))
        series = paper_T_series(params, tol=1e-13).value
        subsets = paper_T_inclusion_exclusion(params)
        assert abs(series - subsets) <= 1e-9


def _first_k_within(p, tol):
    # the union bound sum_i p_i^(k+1)/(1 - p_i) of the series tail past k
    k = 1
    while sum(v ** (k + 1) / (1.0 - v) for v in p if v > 0.0) > tol:
        k += 1
    return k


@pytest.mark.parametrize("p_max", [0.99, 0.999])
@pytest.mark.parametrize("seed, tol", [(1, 1e-10), (2, 1e-11), (3, 1e-12), (4, 1e-13)])
def test_oracles_agree_near_one(p_max, seed, tol):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 17))
    params = GameParams([p_max, *rng.uniform(0.0, p_max, size=n - 1)])
    res = paper_T_series(params, tol=tol)
    assert abs(res.value - paper_T_inclusion_exclusion(params)) <= 1e-9
    # the union bound takes half of tol, the rounding of the head the other
    assert res.terms_used == _first_k_within(params.p, tol / 2.0)


def _union_bound(p, k):
    return math.fsum(v ** (k + 1) / (1.0 - v) for v in p if v > 0.0)


@pytest.mark.parametrize("p_max, tol", [(0.9999, 1e-12), (0.99999, 1e-9)])
def test_series_length_is_first_k_within_tol_near_one(p_max, tol):
    # K is in the hundreds of thousands to millions here, past a per-k loop
    p = [p_max, 0.5, 0.0, 0.99 * p_max]
    res = paper_T_series(GameParams(p), tol=tol)
    K = res.terms_used
    assert _union_bound(p, K) <= tol / 2.0 < _union_bound(p, K - 1)
    # the terms are positive, so the sum of their magnitudes is the value;
    # three live sets sum 2^16 // 3 values of k to a block
    rows = 2**16 // 3
    g = higham_gamma(_pairwise_roundings(rows) + math.ceil(K / rows) - 1)
    assert res.tail_bound == pytest.approx(_union_bound(p, K) + g * res.value / (1.0 - g), rel=1e-9)


def _subset_expansion(p):
    """E[T] - 1 = sum over nonempty subsets of (-1)^(|S|-1) p_S/(1 - p_S), at 40 digits."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for r in range(1, len(p) + 1):
            for subset in itertools.combinations([mpmath.mpf(v) for v in p], r):
                q = mpmath.fprod(subset)
                total += (-1) ** (r - 1) * q / (1 - q)
        return total


@pytest.mark.parametrize("p_max, count, n_max", [
    (0.9, 25, 9), (0.99, 25, 9), (0.999, 25, 9), (0.9999, 25, 9),
    # about 4e6 terms an instance: fewer and smaller instances
    (0.99999, 10, 6),
])
def test_series_error_within_its_bound(p_max, count, n_max):
    # the union bound alone is nearly the true tail when one p_i dominates,
    # so without the head's rounding the error overshot it (up to 94x)
    rng = np.random.default_rng(round(-math.log10(1.0 - p_max)))
    for _ in range(count):
        p = [p_max, *rng.uniform(0.0, p_max, size=int(rng.integers(1, n_max)))]
        res = paper_T_series(GameParams(p), tol=1e-12)
        assert abs(mpmath.mpf(res.value) - _subset_expansion(p)) <= res.tail_bound, p


def test_series_stops_at_cap():
    p = 0.9999999
    res = paper_T_series(GameParams([p]), tol=1e-12)
    assert res.terms_used == 10_000_000
    assert res.tail_bound == pytest.approx(p ** 10_000_001 / (1.0 - p), rel=1e-8)
    # one set: the terms are p^k, so the partial sum is geometric
    assert res.value == pytest.approx(p * (1.0 - p ** 10_000_000) / (1.0 - p), rel=1e-8)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_series_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        paper_T_series(GameParams([0.5]), tol=tol)


def test_expected_rounds_examples():
    assert expected_rounds(GameParams([0.5])) == pytest.approx(2.0, abs=1e-11)
    assert expected_rounds(GameParams([0.5, 0.5])) == pytest.approx(8.0 / 3.0, abs=1e-11)
    assert expected_rounds(GameParams([])) == 1.0


def test_game_params_validation():
    with pytest.raises(ValueError):
        GameParams([0.5, 1.0])
    with pytest.raises(ValueError):
        GameParams([-0.1])


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_rounds_takes_the_max_before_the_ceiling():
    # against the per-set form: ceil each G_i, G_i = 1 where p_i = 0, then the max
    # (one row per set, one column per trial)
    rng = np.random.default_rng(5)
    p = rng.random((6, 4096)) ** 0.2
    p[[1, 4]] = 0.0
    r = rng.random((6, 4096))
    r[:, ::7] = 0.0
    for n in (6, 2, 1, 0):
        pp, rr = p[:n], r[:n]
        with np.errstate(divide="ignore"):
            log_p = np.log(pp)
            g = np.ceil(np.log(1.0 - rr) / log_p)
        old = np.where(pp == 0.0, 1.0, np.maximum(g, 1.0)).max(axis=0, initial=1.0)
        assert game_sim._rounds(log_p, rr.copy()).tobytes() == old.tobytes()
        # the fixed-p kernel's (n, 1) column of logs, one measure per set
        with np.errstate(divide="ignore"):
            col = np.log(pp[:, :1])
            g = np.ceil(np.log(1.0 - rr) / col)
        old = np.where(pp[:, :1] == 0.0, 1.0, np.maximum(g, 1.0)).max(axis=0, initial=1.0)
        assert game_sim._rounds(col, rr.copy()).tobytes() == old.tobytes()


def test_games_fixed_all_zero_measures():
    t = _fixed_draw(GameParams([0.0, 0.0, 0.0]))(np.empty((1, 3, 20)), _block_rng(3, 0))
    assert np.all(t == 1.0)


def test_games_fixed_returns_positive_integers():
    t = _fixed_draw(GameParams([0.7, 0.2]))(np.empty((1, 2, 50)), _block_rng(3, 0))
    assert t.shape == (50,)
    assert np.all(t >= 1.0) and np.all(t == np.floor(t))


def test_run_trials_fixed_no_sets():
    rep = run_trials("fixed-p", GameParams([]), trials=10, seed=1)
    assert rep.mean == 1.0 and rep.variance == 0.0
    assert rep.target == 1.0


def test_run_trials_fixed_consistency():
    rep = run_trials("fixed-p", GameParams([0.5]), trials=20_000, seed=42)
    assert abs(rep.mean - 2.0) <= 4.0 * rep.stderr
    assert rep.target == pytest.approx(2.0, abs=1e-9)
    assert rep.stderr == pytest.approx(math.sqrt(rep.variance / rep.trials), rel=1e-12)
    assert not rep.heavy_tail


def test_run_trials_deterministic():
    a = run_trials("fixed-p", GameParams([0.5, 0.3]), trials=30_000, seed=11)
    b = run_trials("fixed-p", GameParams([0.5, 0.3]), trials=30_000, seed=11)
    assert a == b


def test_run_trials_random_p_matches_alt_sum_target():
    rep = run_trials("random-p", BetaEdge(beta=1.0), trials=10_000, seed=42, n=100)
    assert rep.target_kind == "one-minus-alt-sum"
    assert abs(rep.mean - rep.target) <= 4.0 * rep.stderr
    # the exact mean sits within 10% of the growth-law prediction plus 1
    guide = predict("mainisdef", 100, c=2.0, beta=1.0).value + 1.0
    assert 0.9 <= rep.target / guide <= 1.1


def _tab21():
    # 21 nodes of (1 - x)(1 + 0.3 sin 7x) with f(1) = 0 and its beta = 1 edge
    x = np.linspace(0.0, 1.0, 21)
    f = (1.0 - x) * (1.0 + 0.3 * np.sin(7.0 * x))
    f = f / np.trapezoid(f, x)
    f[-1] = 0.0
    return TabulatedDensity(x, f, edge=(f[-2] / (x[-1] - x[-2]), 1.0))


def test_run_trials_random_p_tabulated_pinned():
    # sampled through the table's ppf
    rep = run_trials("random-p", _tab21(), trials=8192, seed=3, n=20)
    assert rep.mean == 9.530029296875
    assert rep.variance == 282.45960356402986


def test_run_trials_random_p_uniform_flags_heavy_tail():
    rep = run_trials("random-p", Uniform(), trials=1_000, seed=42, n=10)
    assert rep.target is None and rep.target_kind == "divergent"
    assert rep.heavy_tail


@pytest.mark.parametrize(
    "run, heavy",
    [
        (partial(run_trials, "random-p", BetaEdge(beta=1.0), n=5), True),  # alpha = 2
        (partial(run_trials, "random-p", BetaEdge(beta=2.0), n=5), False),  # alpha = 3
        (partial(zeta_expectation_mc, Uniform(), 2), True),  # alpha n = 2
        (partial(zeta_expectation_mc, Uniform(), 3), False),
        (partial(run_trials, "fixed-p", GameParams([0.999])), False),
    ],
    ids=["random-p-beta1", "random-p-beta2", "zeta-mc-n2", "zeta-mc-n3", "fixed-p"],
)
def test_heavy_tail_means_infinite_variance(run, heavy):
    # the flag comes from the tail exponent, not from the sample
    assert run(trials=256, seed=3).heavy_tail is heavy


@pytest.mark.parametrize("sampler, run", [
    ("_games_random_p", partial(run_trials, "random-p", n=5)),
    ("_zeta_draws", lambda dist, trials, seed: zeta_expectation_mc(dist, 3, trials, seed)),
], ids=["random-p", "zeta-mc"])
def test_missing_edge_data_raises_before_any_trial(monkeypatch, sampler, run):
    def fail(*args):
        raise AssertionError("a trial ran before the target was computed")

    monkeypatch.setattr(game_sim, sampler, fail)
    # the last segment of f = 1 has edge (1, 0), not the (2, 0) claimed
    wrong = TabulatedDensity(np.array([0.0, 1.0]), np.array([1.0, 1.0]), edge=(2.0, 0.0))
    with pytest.raises(InvalidTail):
        run(wrong, trials=10_000, seed=1)
    # a zero last segment has no edge (c, beta) and no power-law form at all
    edgeless = TabulatedDensity([0.0, 0.5, 0.75, 1.0], [2.0, 2.0, 0.0, 0.0], normalize=True)
    with pytest.raises(TailUnavailable):
        run(edgeless, trials=10_000, seed=1)


def test_run_trials_validation():
    with pytest.raises(TypeError):
        run_trials("fixed-p", Uniform(), trials=10, seed=1)
    with pytest.raises(ValueError):
        run_trials("random-p", Uniform(), trials=10, seed=1)  # missing n
    with pytest.raises(ValueError):
        run_trials("nonsense", GameParams([0.5]), trials=10, seed=1)


def test_duration_cdf_matches_product_law():
    params = GameParams([0.5, 0.3])
    trials = 20_000
    t = np.concatenate(list(_blocks(_fixed_draw(params), 1, 2, trials, 5))).astype(np.int64)
    ks = 0.0
    for k in range(1, int(t.max()) + 1):
        ks = max(ks, abs(float(np.mean(t <= k)) - win_prob_by(k, params)))
    assert ks <= 0.02


@pytest.mark.parametrize("dist, n", [(BetaEdge(beta=2.0), 20), (Uniform(), 5)],
                         ids=["beta2-n20", "uniform-n5"])
def test_random_p_duration_cdf_matches_moment_law(dist, n):
    # P(T <= k) = (1 - m_k)^n: given p_i, set i is missed by round k with
    # probability 1 - p_i^k, whose mean over dist is 1 - m_k
    trials = 100_000
    t = np.concatenate(list(_blocks(partial(_games_random_p, dist), 2, n, trials, 31)))
    v, counts = np.unique(t, return_counts=True)
    below = np.concatenate([[0], np.cumsum(counts)[:-1]]) / trials  # P_emp(T <= v - 1)
    upto = np.cumsum(counts) / trials  # P_emp(T <= v)

    def law(k):
        m = np.where(k >= 1.0, dist.moments(np.maximum(k, 1.0)), 1.0)
        return (1.0 - m) ** n

    # the empirical CDF steps only at the observed values, and the law
    # increases in k, so the sup over k sits at some v or v - 1
    ks = max(float(np.max(np.abs(upto - law(v)))), float(np.max(np.abs(below - law(v - 1.0)))))
    assert v[0] >= 1.0 and np.all(v == np.floor(v))
    assert ks <= 0.01


def test_block_rng_is_pcg64_spawned_from_the_seed():
    mask = 0xFFFF_FFFF_FFFF_FFFF
    pinned = {
        (42, 0): ["0x1.d55f7d7efeabap-1", "0x1.d26cd83129b28p-1", "0x1.c0d0bb966f9fep-1",
                  "0x1.3cbdf7155fba0p-2"],
        (42, 1): ["0x1.deb5e72c4c7d0p-2", "0x1.7c826565d63e0p-5", "0x1.30e6b01f4fe67p-1",
                  "0x1.b76640f643aa8p-4"],
        (-1, 3): ["0x1.58b2e49402720p-4", "0x1.17345ff553db3p-1", "0x1.3001906e20394p-2",
                  "0x1.c361dd49901cap-1"],
    }
    for (seed, b), want in pinned.items():
        rng = _block_rng(seed, b)
        assert type(rng.bit_generator) is np.random.PCG64
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed & mask,
                                                                         spawn_key=(b,))))
        got = rng.random(4)
        assert [float(v).hex() for v in got] == want
        assert got.tobytes() == ref.random(4).tobytes()
    # a negative seed keeps mapping through the mask
    for seed in (-1, -42, -(2**70) + 5):
        assert (_block_rng(seed, 2).random(4).tobytes()
                == _block_rng(seed & mask, 2).random(4).tobytes())
    # distinct blocks, and distinct seeds, give distinct streams
    firsts = {_block_rng(seed, b).random(4).tobytes() for seed in (0, 1, 42) for b in range(64)}
    assert len(firsts) == 3 * 64


# ---------------------------------------------------------------------------
# zeta expectation Monte Carlo
# ---------------------------------------------------------------------------

def test_zeta_expectation_target_is_series_value():
    rep = zeta_expectation_mc(Uniform(), 3, trials=200_000, seed=9)
    assert rep.target == pytest.approx(ZETA3, abs=1e-9)
    assert rep.target_kind == "one-plus-moment-zeta"
    assert abs(rep.mean - ZETA3) <= 4.0 * rep.stderr


def test_zeta_expectation_divergent_case():
    rep = zeta_expectation_mc(Uniform(), 1, trials=1_000, seed=9)
    assert rep.target is None and rep.target_kind == "divergent"


def test_report_json_schema_keys():
    rep = run_trials("fixed-p", GameParams([0.5]), trials=256, seed=1)
    assert list(rep.to_json_dict()) == [
        "mode", "n", "trials", "seed", "mean", "variance", "stderr",
        "target", "target_kind", "heavy_tail",
    ]


# ---------------------------------------------------------------------------
# the run's workspace: reports match the allocating block kernels bit for bit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OnesOnShare(Uniform):
    """Uniform, except that ppf returns 1.0 wherever u < share (redrawn by random-p).

    in_place=True writes into u and returns it, as a ppf that returns its
    input does when handed the workspace.
    """

    share: float = 0.3
    in_place: bool = False

    def ppf(self, u):
        x = u if self.in_place else np.array(u, dtype=np.float64)
        x[np.asarray(u) < self.share] = 1.0
        return x


def _ref_ppf(dist, u):
    if isinstance(dist, BetaEdge):
        return 1.0 - (1.0 - u) ** (1.0 / (dist.beta + 1.0))
    return dist.ppf(u)


def _ref_rounds(p, u):
    with np.errstate(divide="ignore"):
        return np.ceil((np.log(u) / np.log(p)).max(axis=0, initial=1.0))


def _ref_fixed(params, n, m, rng):
    return _ref_rounds(np.asarray(params.p, dtype=np.float64)[:, None], 1.0 - rng.random((n, m)))


def _ref_random_p(dist, n, m, rng):
    p = np.asarray(_ref_ppf(dist, rng.random((n, m))), dtype=np.float64)
    while True:
        bad = p >= 1.0
        if not np.any(bad):
            break
        p[bad] = _ref_ppf(dist, rng.random(int(np.count_nonzero(bad))))
    return _ref_rounds(p, 1.0 - rng.random((n, m)))


def _ref_zeta(dist, n, m, rng):
    x = np.asarray(_ref_ppf(dist, rng.random((n, m))), dtype=np.float64)
    return 1.0 / (1.0 - np.prod(x, axis=0))


def _reference_report(mode, source, trials, seed, n=None):
    """The report as set-major kernels that allocate every block's arrays produce it."""
    if mode == "fixed-p":
        n, draw = source.n, _ref_fixed
        target, kind, heavy = expected_rounds(source, tol=1e-10), "expected-rounds", False
    else:
        ms = moment_sequence(source)
        try:
            if mode == "random-p":
                target = 1.0 - alt_sum_stable(ms, n, kmin=1, tol=1e-4).value
                kind = "one-minus-alt-sum"
            else:
                target = 1.0 + moment_zeta(ms, float(n), tol=1e-10).value
                kind = "one-plus-moment-zeta"
        except Divergence:
            target, kind = None, "divergent"
        if mode == "random-p":
            draw, heavy = _ref_random_p, ms.power_law.alpha <= 2.0
        else:
            draw, heavy = _ref_zeta, ms.power_law.alpha * n <= 2.0
    total = total_sq = 0.0
    for b0 in range(0, trials, TRIAL_BLOCK):
        m = min(TRIAL_BLOCK, trials - b0)
        out = draw(source, n, m, _block_rng(seed, b0 // TRIAL_BLOCK))
        total += float(out.sum())
        total_sq += float((out * out).sum())
    mean = total / trials
    variance = max(total_sq - trials * mean * mean, 0.0) / max(trials - 1, 1)
    return game_sim.SimulationReport(
        mode=mode, n=n, trials=trials, seed=seed, mean=mean, variance=variance,
        stderr=math.sqrt(variance / trials), target=target, target_kind=kind, heavy_tail=heavy,
    )


def _hex(rep):
    return {k: v.hex() if isinstance(v, float) else v for k, v in asdict(rep).items()}


_CASES = {
    "fixed-p-with-zero": ("fixed-p", GameParams([0.5, 0.0, 0.9, 0.3]), None),
    "fixed-p-no-sets": ("fixed-p", GameParams([]), None),
    "random-p-beta0": ("random-p", BetaEdge(beta=0.0), 13),
    "random-p-beta1": ("random-p", BetaEdge(beta=1.0), 13),
    "random-p-beta2": ("random-p", BetaEdge(beta=2.0), 13),
    "random-p-beta2.5": ("random-p", BetaEdge(beta=2.5), 13),
    "random-p-uniform": ("random-p", Uniform(), 13),
    "random-p-tab21": ("random-p", _tab21(), 20),
    "random-p-redraw": ("random-p", _OnesOnShare(), 13),
    "random-p-redraw-in-place": ("random-p", _OnesOnShare(in_place=True), 13),
    "zeta-mc-uniform": ("zeta-mc", Uniform(), 3),
    "zeta-mc-beta2": ("zeta-mc", BetaEdge(beta=2.0), 3),
}


def _run(mode, source, trials, seed, n):
    if mode == "zeta-mc":
        return zeta_expectation_mc(source, n, trials, seed)
    return run_trials(mode, source, trials, seed, n=n)


@pytest.mark.parametrize("trials", [1, 4095, 4096, 3 * 4096 + 17])
@pytest.mark.parametrize("case", list(_CASES))
def test_reports_match_allocating_kernels_bit_for_bit(case, trials):
    mode, source, n = _CASES[case]
    got = _run(mode, source, trials, 29, n)
    assert _hex(got) == _hex(_reference_report(mode, source, trials, 29, n))


def test_redraw_stub_redraws():
    # the stub sends about 30% of the first draws through the redraw loop
    rng = _block_rng(29, 0)
    assert np.mean(_OnesOnShare().ppf(rng.random((4096, 13))) == 1.0) > 0.25


@pytest.mark.parametrize("draw, slabs, n", [
    (_fixed_draw(GameParams([0.5, 0.0, 0.9])), 1, 3),
    (partial(_games_random_p, BetaEdge(beta=2.0)), 2, 7),
    (partial(_games_random_p, Uniform()), 2, 7),
    (partial(_games_random_p, _OnesOnShare(in_place=True)), 2, 7),
    (partial(_zeta_draws, Uniform()), 1, 3),
    (partial(_zeta_draws, BetaEdge(beta=2.0)), 1, 3),
], ids=["fixed-p", "random-p-beta2", "random-p-uniform", "random-p-redraw", "zeta-mc-uniform",
        "zeta-mc-beta2"])
def test_blocks_are_their_own_arrays(draw, slabs, n):
    # callers keep blocks (acceptance criterion 8 and the duration CDF test):
    # a view into the workspace would be overwritten by the next block
    trials = 3 * TRIAL_BLOCK + 17
    kept = list(_blocks(draw, slabs, n, trials, 8))
    one_at_a_time = [out.copy() for out in _blocks(draw, slabs, n, trials, 8)]
    assert [a.tobytes() for a in kept] == [b.tobytes() for b in one_at_a_time]
    assert [a.shape for a in kept] == [(TRIAL_BLOCK,)] * 3 + [(17,)]
    for i, a in enumerate(kept):
        assert all(not np.shares_memory(a, b) for b in kept[i + 1:])


@functools.cache
def _draw_block():
    return np.random.default_rng(4).random((100, TRIAL_BLOCK))


def _ppf_of_block(dist, trials, seed):
    # one ppf call on a (100, TRIAL_BLOCK) block of draws made before tracing
    return dist.ppf(_draw_block())


@pytest.mark.parametrize("run, slabs", [
    (partial(run_trials, "random-p", BetaEdge(beta=2.0), n=100), 3.25),
    (partial(run_trials, "fixed-p", GameParams(np.linspace(0.0, 0.99, 100))), 1.25),
    (partial(zeta_expectation_mc, Uniform(), 100), 1.25),
    # BetaEdge.ppf returns one fresh array next to the one-slab workspace
    (partial(zeta_expectation_mc, BetaEdge(beta=2.0), 100), 2.25),
    # the table's ppf holds about six arrays the size of its input
    (partial(_ppf_of_block, _tab21()), 10.5),
    (partial(run_trials, "random-p", _tab21(), n=100), 12.5),
], ids=["random-p-beta2", "fixed-p", "zeta-mc-uniform", "zeta-mc-beta2", "tab21-ppf",
        "random-p-tab21"])
def test_run_peak_memory_in_slabs(run, slabs):
    # a slab is one TRIAL_BLOCK x n float64 array; numpy reports its buffers
    # to tracemalloc, so the traced peak counts every block temporary
    trials = 3 * TRIAL_BLOCK + 17
    run(trials=trials, seed=2)  # targets and caches built outside the measurement
    tracemalloc.start()
    try:
        run(trials=trials, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= slabs * TRIAL_BLOCK * 100 * 8
