"""Seeded operation lists for the three workloads.

Inputs are drawn inside fixed strata, so every seed costs about the same:
each decade of n holds four strata, narrow log-windows starting at the
quarter-decade marks (10^(d + i/4) to 10^(d + i/4 + 0.05)), with one
log-uniform draw each, and each family also keeps the top of its range as a
fixed anchor row.  The windows are narrow because a run's tail latency is an
order statistic of the heavy rows, whose cost grows with n.  Only the drawn
numbers reach the program; the operation list itself is plain data.
"""

from __future__ import annotations

import random

import numpy as np

# family -> (kmin, tol, decades of n, anchor n)
SUM_FAMILIES = {
    "riemann": (2, 1e-9, (1, 2, 3), 10_000),
    "scaled2": (1, 1e-9, (1, 2, 3, 4), 100_000),
    "scaled3": (1, 1e-9, (1, 2, 3, 4), 100_000),
    "uniform": (2, 1e-9, (1, 2, 3), 10_000),
    "beta1": (1, 1e-2, (1, 2, 3), 10_000),
    "beta2": (1, 1e-7, (1, 2, 3), 10_000),
    "tab2": (2, 25.0, (1, 2, 3), 10_000),
    "tab21": (1, 0.5, (1, 2, 3), 10_000),
}
POWER_LAW = {"riemann": (1.0, 1.0, 0.0), "scaled2": (1.0, 2.0, 0.0),
             "scaled3": (1.0, 3.0, 0.0), "uniform": (1.0, 1.0, 1.0)}
# the library's zeta sources for the naive oracle, per power-law family
NAIVE_FAMILIES = {"riemann": 2, "uniform": 2, "scaled2": 1}
P_MAX_STRATA = (0.5, 0.9, 0.99, 0.999)
SET_BANDS = ((2, 5), (6, 10), (11, 16))


def tab2_table() -> tuple[list[float], list[float]]:
    """f(x) = 3/2 - x: edge value c = 1/2 at x = 1, so alpha = 1."""
    return [0.0, 1.0], [1.5, 0.5]


def tab21_table() -> tuple[list[float], list[float]]:
    """21 nodes of (1 - x)(1 + 0.3 sin 7x), normalised: a beta = 1 edge."""
    x = np.linspace(0.0, 1.0, 21)
    f = (1.0 - x) * (1.0 + 0.3 * np.sin(7.0 * x))
    f = f / np.trapezoid(f, x)
    f[-1] = 0.0
    return x.tolist(), f.tolist()


def tab21_edge() -> float:
    x, f = tab21_table()
    return f[-2] / (x[-1] - x[-2])


STRATUM_WIDTH = 0.05  # decades


def _stratified_n(rng: random.Random, decades, anchor: int) -> list[int]:
    out = []
    for d in decades:
        for i in range(4):
            out.append(int(round(10.0 ** (d + i / 4 + STRATUM_WIDTH * rng.random()))))
    out.append(anchor)
    return out


def sums_ops(seed: int) -> list[dict]:
    rng = random.Random(f"sums:{seed}")
    ops = []
    for family, (kmin, tol, decades, anchor) in SUM_FAMILIES.items():
        for n in _stratified_n(rng, decades, anchor):
            ops.append({"kind": "alt_sum_stable", "family": family, "n": n, "kmin": kmin, "tol": tol})
    # the cap-hitting generic row: BetaEdge(1) at tol 1e-4 stops at the term cap
    ops.append({"kind": "alt_sum_stable", "family": "beta1", "n": 1000, "kmin": 1, "tol": 1e-4})
    ops.append({"kind": "moment_zeta", "family": "uniform", "s": 3, "tol": 1e-10})
    ops.append({"kind": "moment_zeta", "family": "beta1", "s": 1, "tol": 1e-6})
    for family, kmin in NAIVE_FAMILIES.items():
        for lo in (1.3, 2.2):  # n near 20 and 160; the oracle is capped at 256
            n = int(round(10.0 ** (lo + STRATUM_WIDTH * rng.random())))
            ops.append({"kind": "alt_sum_naive", "family": family, "n": n, "kmin": kmin})
    for n in _stratified_n(rng, (1, 2), 1000):
        ops.append({"kind": "defect_dnform", "n": n, "tol": 1e-12})
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def _game_p(rng: random.Random, n_sets: int, p_max: float) -> list[float]:
    """One set at exactly p_max (so the series length is fixed), the rest below."""
    p = [p_max] + [rng.uniform(0.0, p_max) for _ in range(n_sets - 1)]
    rng.shuffle(p)
    return p


def games_ops(seed: int) -> list[dict]:
    """Covering-game operations in cost plateaus, plus one heavy run.

    The median and the p75 tail of a pass fall inside a plateau of operations
    of similar cost, not between two groups: ~0.4 s (the 0.999 oracles,
    beta2 random-p runs, tabulated ppf round trips; 13 of 40, holding the
    p75), ~20 ms (fixed-p and zeta-mc runs, 17 of 40, holding the median),
    the 0.99 oracles between them and the cheap oracles below; the tabulated
    random-p run (~3 s) stands alone.
    """
    rng = random.Random(f"games:{seed}")
    ops = []
    for p_max in P_MAX_STRATA:
        for lo, hi in SET_BANDS:
            p = _game_p(rng, rng.randint(lo, hi), p_max)
            ops.append({"kind": "game_oracles", "p": p})
    for p_max in (0.5, 0.9) * 8:
        p = _game_p(rng, rng.randint(5, 6), p_max)
        ops.append({"kind": "trials_fixed", "p": p, "trials": 100_000, "seed": rng.randrange(2**31)})
    for _ in range(5):
        ops.append({"kind": "trials_random", "family": "beta2", "n": 100, "trials": 60_000,
                    "seed": rng.randrange(2**31)})
    ops.append({"kind": "trials_random", "family": "tab21", "n": 20, "trials": 4096,
                "seed": rng.randrange(2**31)})
    for n in (3, 4):
        ops.append({"kind": "zeta_mc", "family": "uniform", "n": n, "trials": 300_000,
                    "seed": rng.randrange(2**31)})
    for _ in range(5):
        ops.append({"kind": "ppf_roundtrip", "family": "tab21", "draws": 100_000,
                    "seed": rng.randrange(2**31)})
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def cli_ops(seed: int) -> list[dict]:
    rng = random.Random(f"cli:{seed}")
    sum_n = [int(round(10.0 ** (d + rng.random()))) for d in (1, 2, 3)] + [10_000]
    dn_n = [int(round(10.0 ** (d + rng.random()))) for d in (1, 2)] + [1000]
    exact_p = _game_p(rng, rng.randint(4, 8), 0.99)
    sim_p = _game_p(rng, rng.randint(2, 6), 0.9)
    commands = [
        ("predict", ["predict", "--kind", "riemann", "--n", str(rng.randint(1000, 10_000))]),
        ("sum", ["sum", "--dist", "riemann", "--kmin", "2", "--tol", "1e-9",
                 "--n", ",".join(map(str, sum_n)), "--predict", "riemann", "--format", "json"]),
        ("game_exact", ["game", "exact", "--p", ",".join(repr(v) for v in exact_p)]),
        ("game_simulate", ["game", "simulate", "--p", ",".join(repr(v) for v in sim_p),
                           "--trials", "100000", "--seed", str(rng.randrange(2**31))]),
        ("dn", ["dn", "--n", ",".join(map(str, dn_n))]),
        ("verify", ["verify", "--seed", str(rng.randrange(2**31))]),
    ]
    return [{"id": i, "kind": "cli", "command": name, "argv": argv}
            for i, (name, argv) in enumerate(commands)]


WORKLOADS = {"sums": sums_ops, "games": games_ops, "cli": cli_ops}
