"""Acceptance checks: one callable per criterion, shared by pytest and the CLI.

Each check returns a CriterionResult with the measured numbers in ``details``
so reports stay machine-readable.  Checks are deterministic given the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import binom_sums, euler_maclaurin, game_sim
from .dist_core import BetaEdge, PowerMoments, TabulatedDensity, Uniform, moment_sequence
from .game_sim import GameParams

__all__ = ["CriterionResult", "run_criterion", "run_all", "CRITERIA", "RIEMANN_RESIDUAL_SCALE"]

# Residual scale for the Riemann-case remainder test: the extended-precision
# oracle gives 50*|res(50)| = 0.08333000; n*|res(n)| keeps creeping up toward
# its limit beyond n = 50, so the recorded constant is rounded up one part in
# ~2e3 to cover the higher-order part of the remainder it calibrates.
RIEMANN_RESIDUAL_SCALE = 0.0834

# Tabulated instance with edge value c = 1/2 at x = 1: f(x) = 1/2 + (1 - x).
ALPHA1_EDGE_C = 0.5

_ZETA3 = 1.2020569031595943
_ZETA4 = 1.0823232337111382


@dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid}: {self.description}"


def criterion_1(seed: int = 42) -> CriterionResult:
    """Naive oracle vs stable evaluation, Riemann sequence, n = 2..40."""
    ms = moment_sequence(PowerMoments(1.0))
    source = binom_sums.riemann_zeta_source()
    worst = 0.0
    worst_n = 0
    for n in range(2, 41):
        stable = binom_sums.alt_sum_stable(ms, n, kmin=2, tol=1e-10).value
        naive = binom_sums.alt_sum_naive(n, 2, source)
        gap = abs(stable - naive)
        if gap > worst:
            worst, worst_n = gap, n
    return CriterionResult(
        cid="1",
        description="oracle equivalence |naive - stable| <= 1e-8 for n in 2..40",
        passed=worst <= 1e-8,
        details={"max_abs_gap": worst, "worst_n": worst_n, "tolerance": 1e-8},
    )


def criterion_2(seed: int = 42) -> CriterionResult:
    """Riemann remainder: res(n) shrinks like 1/n with the calibrated scale."""
    ms = moment_sequence(PowerMoments(1.0))
    res = {n: binom_sums.alt_sum_stable(ms, n, kmin=2, tol=1e-9).value
           - binom_sums.predict("riemann", n).value for n in (10, 100, 1000)}
    decreasing = abs(res[1000]) < abs(res[100]) < abs(res[10])
    within = abs(res[1000]) <= RIEMANN_RESIDUAL_SCALE / 1000.0
    return CriterionResult(
        cid="2",
        description="Riemann residual decay |res(1000)| < |res(100)| < |res(10)| and"
        " |res(1000)| <= C/1000",
        passed=decreasing and within,
        details={
            "res_10": res[10],
            "res_100": res[100],
            "res_1000": res[1000],
            "calibration_C": RIEMANN_RESIDUAL_SCALE,
            "limit_at_1000": RIEMANN_RESIDUAL_SCALE / 1000.0,
        },
    )


def criterion_3(seed: int = 42) -> CriterionResult:
    """Scaled-Riemann growth law at n = 1e4 for s in {2, 3}."""
    n = 10_000
    ratios = {}
    ok = True
    for s in (2.0, 3.0):
        ms = moment_sequence(PowerMoments(s))
        value = binom_sums.alt_sum_stable(ms, n, kmin=1, tol=1e-8).value
        pred = binom_sums.predict("riemann_scaled", n, s=s).value
        ratio = abs(value) / pred
        ratios[f"s={s:g}"] = ratio
        ok = ok and 0.95 <= ratio <= 1.05
    return CriterionResult(
        cid="3",
        description="|A(n;1)| / (Gamma(1-1/s) n^(1/s)) in [0.95, 1.05] at n=1e4, s in {2,3}",
        passed=ok,
        details=ratios,
    )


def criterion_4(seed: int = 42) -> CriterionResult:
    """Edge-density growth law: -A(n;1) ~ sqrt(2 pi n) for f = 2(1-x)."""
    n = 10_000
    ms = moment_sequence(BetaEdge(beta=1.0))
    value = binom_sums.alt_sum_stable(ms, n, kmin=1, tol=0.05).value
    target = binom_sums.sequence_law("mainisdef", ms.power_law, 1)(n)  # sqrt(2 pi n)
    ratio = -value / target
    return CriterionResult(
        cid="4",
        description="-A(1e4;1) / sqrt(2 pi 1e4) in [0.95, 1.05] for the beta=1 edge density",
        passed=0.95 <= ratio <= 1.05,
        details={"value": value, "target": target, "ratio": ratio},
    )


def criterion_5(seed: int = 42) -> CriterionResult:
    """Moment asymptotics k^(beta+1) m_k -> c Gamma(beta+1) at k = 1e4."""
    k = 10_000
    ok = True
    details = {}
    for beta in (1.0, 2.0):
        dist = BetaEdge(beta=beta)
        target = dist.c * math.gamma(beta + 1.0)
        scaled = k ** (beta + 1.0) * float(dist.moments([k])[0])
        gap = abs(scaled - target)
        details[f"beta={beta:g}"] = {"scaled_moment": scaled, "limit": target, "gap": gap}
        ok = ok and gap <= 0.01 * target
    return CriterionResult(
        cid="5",
        description="|k^(beta+1) m_k - c Gamma(beta+1)| <= 1% at k=1e4 for beta in {1,2}",
        passed=ok,
        details=details,
    )


def criterion_6(seed: int = 42) -> CriterionResult:
    """Defect law: D_n -> 1/2, n|D_n - 1/2| decreasing, direct n=1 limit 1-gamma."""
    devs = {}
    for n in (10, 100, 1000):
        devs[n] = abs(euler_maclaurin.defect_dnform(n, tol=1e-12).deviation)
    chain = 10 * devs[10] > 100 * devs[100] > 1000 * devs[1000]
    at_100 = devs[100] <= 0.02
    d1 = euler_maclaurin.defect_direct(1, 10**6)
    direct_ok = abs(d1 - (1.0 - np.euler_gamma)) <= 1e-5
    return CriterionResult(
        cid="6",
        description="|D_100 - 1/2| <= 0.02, n|D_n - 1/2| strictly decreasing on {10,100,1000},"
        " defect_direct(1, 1e6) within 1e-5 of 1-gamma",
        passed=chain and at_100 and direct_ok,
        details={
            "n_dev_10": 10 * devs[10],
            "n_dev_100": 100 * devs[100],
            "n_dev_1000": 1000 * devs[1000],
            "defect_direct_1": d1,
            "one_minus_gamma": 1.0 - np.euler_gamma,
        },
    )


def criterion_7(seed: int = 42) -> CriterionResult:
    """Series oracle vs inclusion-exclusion oracle, exact fixed cases included."""
    fixed = {
        "p=(1/2)": (GameParams([0.5]), 1.0),
        "p=(1/2,1/2)": (GameParams([0.5, 0.5]), 5.0 / 3.0),
        "p=(1/2,1/2,1/2)": (GameParams([0.5, 0.5, 0.5]), 15.0 / 7.0),
    }
    details = {}
    ok = True
    for label, (params, exact) in fixed.items():
        series = game_sim.paper_T_series(params, tol=1e-14).value
        subsets = game_sim.paper_T_inclusion_exclusion(params)
        details[label] = {"series": series, "inclusion_exclusion": subsets, "exact": exact}
        ok = ok and abs(series - exact) <= 1e-12 and abs(subsets - exact) <= 1e-12
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        params = GameParams(rng.uniform(0.0, 0.9, size=n))
        gap = abs(
            game_sim.paper_T_series(params, tol=1e-13).value
            - game_sim.paper_T_inclusion_exclusion(params)
        )
        worst = max(worst, gap)
    details["max_random_gap"] = worst
    ok = ok and worst <= 1e-9
    return CriterionResult(
        cid="7",
        description="series = inclusion-exclusion to 1e-9 on 100 random games; fixed values"
        " 1, 5/3, 15/7 exact to 1e-12",
        passed=ok,
        details=details,
    )


def criterion_8(seed: int = 42) -> CriterionResult:
    """Simulation mean matches expected rounds; duration CDF matches the product law."""
    details = {}
    ok = True
    for label, p, exact in (("p=(1/2)", [0.5], 2.0), ("p=(1/2,1/2)", [0.5, 0.5], 8.0 / 3.0)):
        rep = game_sim.run_trials("fixed-p", GameParams(p), trials=10**5, seed=seed)
        gap = abs(rep.mean - exact)
        details[label] = {"mean": rep.mean, "exact": exact, "stderr": rep.stderr}
        ok = ok and gap <= 4.0 * rep.stderr
    # empirical CDF of T against prod_i (1 - p_i^k) for p = (0.5, 0.3)
    params = GameParams([0.5, 0.3])
    trials = 10**5
    counts: dict[int, int] = {}
    for out in game_sim._blocks(game_sim._fixed_draw(params), 1, params.n, trials, seed + 1):
        for v, c in zip(*np.unique(out.astype(np.int64), return_counts=True)):
            counts[int(v)] = counts.get(int(v), 0) + int(c)
    kmax = max(counts)
    cum = 0
    ks = 0.0
    for k in range(1, kmax + 1):
        cum += counts.get(k, 0)
        ks = max(ks, abs(cum / trials - game_sim.win_prob_by(k, params)))
    details["ks_distance"] = ks
    ok = ok and ks <= 0.01
    return CriterionResult(
        cid="8",
        description="simulation means within 4 stderr of 2 and 8/3; duration CDF within"
        " KS distance 0.01 of the product law",
        passed=ok,
        details=details,
    )


def criterion_9(seed: int = 42) -> CriterionResult:
    """Monte Carlo E[1/(1 - x_1..x_n)] against the series values, n in {3, 4}."""
    details = {}
    ok = True
    for n, target in ((3, _ZETA3), (4, _ZETA4)):
        rep = game_sim.zeta_expectation_mc(Uniform(), n, trials=10**6, seed=seed)
        gap = abs(rep.mean - target)
        details[f"n={n}"] = {"mean": rep.mean, "series_value": target, "stderr": rep.stderr,
                             "library_target": rep.target}
        ok = ok and gap <= 4.0 * rep.stderr
    return CriterionResult(
        cid="9",
        description="MC mean of 1/(1-x1..xn) within 4 stderr of zeta(3), zeta(4) for"
        " uniform draws, 1e6 trials",
        passed=ok,
        details=details,
    )


def criterion_10(seed: int = 42) -> CriterionResult:
    """Limit-integral identities: quadrature vs closed form to 1e-6 on the grid."""
    worst = 0.0
    details = {}
    for length in (0.5, 1.0, 2.0):
        for alpha in (1.5, 2.0, 3.0, 1.0):  # alpha = 1 is the log form
            quad, closed = binom_sums.gamma_integral_identity_check(length, alpha)
            gap = abs(quad - closed)
            details[f"L={length:g},alpha={alpha:g}"] = gap
            worst = max(worst, gap)
    return CriterionResult(
        cid="10",
        description="integral identities agree with closed forms to 1e-6 on the (L, alpha) grid",
        passed=worst <= 1e-6,
        details={"max_abs_gap": worst, **details},
    )


def criterion_11(seed: int = 42) -> CriterionResult:
    """alpha = 1 growth law on a perturbed linear density with edge value c."""
    n = 10_000
    ms = moment_sequence(TabulatedDensity([0.0, 1.0], [2.0 - ALPHA1_EDGE_C, ALPHA1_EDGE_C]))
    value = binom_sums.alt_sum_stable(ms, n, kmin=2, tol=25.0).value
    target = binom_sums.sequence_law("alpha1", ms.power_law, 2)(n)  # c = L of the form
    ratio = value / target
    return CriterionResult(
        cid="11",
        description="A(1e4;2) / (c n log n) in [0.9, 1.1] for the perturbed density"
        f" with edge value c={ALPHA1_EDGE_C}",
        passed=0.9 <= ratio <= 1.1,
        details={"value": value, "c_n_log_n": target, "ratio": ratio},
    )


CRITERIA = {
    "1": criterion_1,
    "2": criterion_2,
    "3": criterion_3,
    "4": criterion_4,
    "5": criterion_5,
    "6": criterion_6,
    "7": criterion_7,
    "8": criterion_8,
    "9": criterion_9,
    "10": criterion_10,
    "11": criterion_11,
}


def run_criterion(cid: str, seed: int = 42) -> CriterionResult:
    start = time.perf_counter()
    result = CRITERIA[cid](seed=seed)
    result.seconds = time.perf_counter() - start
    return result


def run_all(seed: int = 42, only: list[str] | None = None) -> list[CriterionResult]:
    cids = list(CRITERIA) if only is None else [str(c) for c in only]
    return [run_criterion(cid, seed=seed) for cid in cids]
