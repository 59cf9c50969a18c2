import math

import mpmath
import numpy as np
import pytest

from momzeta.binom_sums import alt_sum_stable
from momzeta.dist_core import (
    BetaEdge,
    MomentSequence,
    PowerMoments,
    Uniform,
    moment_sequence,
    riemann_sequence,
)
from momzeta.errors import Divergence, TailUnavailable
from momzeta.moment_zeta import convergence_abscissa, moment_zeta

# mpmath at 30 digits
ZETA2 = 1.6449340668482264365
ZETA3 = 1.2020569031595942854
ZETA4 = 1.0823232337111381915


def test_zeta2_matches_pi_squared_over_six():
    res = moment_zeta(riemann_sequence(), 2)
    # the power-law head is the 1024 floor: the Euler-Maclaurin tail closes the rest
    assert res.terms_used == 1024
    assert abs(res.value - math.pi**2 / 6.0) <= 1e-13
    assert abs(res.value - ZETA2) <= res.tail_bound + 1e-15


def test_zeta30_two_term_dominance():
    res = moment_zeta(riemann_sequence(), 30)
    assert abs(res.value - (1.0 + 2.0**-30)) <= 2.0 * 3.0**-30


@pytest.mark.parametrize("k", [1, 0, -2])
def test_zeta_divergence(k):
    with pytest.raises(Divergence):
        moment_zeta(riemann_sequence(), k)


@pytest.mark.parametrize("k", [2, 3, 7])
def test_zeta_refinement_within_previous_bound(k):
    ms = riemann_sequence()
    coarse = moment_zeta(ms, k, terms=5_000)
    fine = moment_zeta(ms, k, terms=10_000)
    # terms sets the head of the Euler-Maclaurin path, not a switch to the generic cut
    assert coarse.method == fine.method == "power-law-tail"
    assert coarse.terms_used == 5_000
    assert abs(fine.value - coarse.value) <= coarse.tail_bound
    assert abs(coarse.value - float(mpmath.zeta(k))) <= coarse.tail_bound


def test_abscissa_values():
    assert convergence_abscissa(moment_sequence(Uniform())) == pytest.approx(1.0)
    assert convergence_abscissa(moment_sequence(BetaEdge(beta=1.0))) == pytest.approx(0.5)
    assert convergence_abscissa(moment_sequence(PowerMoments(2.0))) == pytest.approx(0.5)


def test_uniform_moment_zeta_is_shifted_riemann():
    ms = moment_sequence(Uniform())
    res = moment_zeta(ms, 2.0)
    assert res.value == pytest.approx(ZETA2 - 1.0, abs=1e-10)


def test_abstract_sequence_at_s_one():
    # sum_j (j^-2)^1 = zeta(2)
    ms = moment_sequence(PowerMoments(2.0))
    assert moment_zeta(ms, 1.0).value == pytest.approx(ZETA2, abs=1e-10)


def test_uniform_diverges_at_one():
    with pytest.raises(Divergence):
        moment_zeta(moment_sequence(Uniform()), 1.0)


@pytest.mark.parametrize(
    "a,s", [(2.0, 1.0), (2.0, 2.0), (3.0, 1.0), (1.0, 3.0), (1.5, 2.0), (1.0, 2.5)]
)
def test_cross_oracle_against_direct_series(a, s):
    # moment_zeta of the abstract j^(-a) sequence at s equals zeta(a s)
    res = moment_zeta(moment_sequence(PowerMoments(a)), s)
    assert abs(res.value - float(mpmath.zeta(a * s))) <= res.tail_bound + 1e-15


def test_generic_path_refinement_property():
    # each cut is within its own bound of the exact
    # sum_j (2/((j+1)(j+2)))^2 = 8 zeta(2) - 13
    ms = moment_sequence(BetaEdge(beta=1.0))
    with mpmath.workdps(30):
        exact = 8 * mpmath.zeta(2) - 13
        for terms in (2_000, 4_000):
            res = moment_zeta(ms, 2.0, terms=terms)
            assert res.terms_used == terms
            assert abs(res.value - exact) <= res.tail_bound


def test_generic_path_meets_tolerance():
    # beta-edge moments close their tail through the shifted power law
    # 2 (j+3/2)^-2 and its proven gap, like the exact power laws
    ms = moment_sequence(BetaEdge(beta=1.0))
    res = moment_zeta(ms, 2.0, tol=1e-8)
    assert res.method == "power-law-tail"
    assert res.tail_bound <= 1e-8
    # independent check value: sum_j (2/((j+1)(j+2)))^2 by brute force; the
    # 1e-15 covers its own truncation and rounding
    j = np.arange(1, 2_000_000, dtype=np.float64)
    brute = float(np.sum((2.0 / ((j + 1) * (j + 2))) ** 2))
    assert abs(res.value - brute) <= res.tail_bound + 1e-15


def test_edge_sequence_without_form_is_tail_unavailable():
    # the moments alone close no sum: every engine needs the power-law form
    ms = moment_sequence(BetaEdge(beta=1.0))
    bare = MomentSequence(ms.moments, None)
    with pytest.raises(TailUnavailable):
        moment_zeta(bare, 2.0)
    with pytest.raises(TailUnavailable):
        alt_sum_stable(bare, 10)
    with pytest.raises(TailUnavailable):
        convergence_abscissa(bare)


def test_tail_unavailable():
    ms = MomentSequence(lambda j: 1.0 / np.asarray(j, dtype=float), None)
    with pytest.raises(TailUnavailable):
        moment_zeta(ms, 2.0)
    with pytest.raises(TailUnavailable):
        convergence_abscissa(ms)


def test_divergence_at_abscissa():
    ms = moment_sequence(PowerMoments(2.0))
    with pytest.raises(Divergence):
        moment_zeta(ms, 0.5)
    with pytest.raises(Divergence):
        moment_zeta(ms, 0.3)


def test_tol_validation():
    with pytest.raises(ValueError):
        moment_zeta(moment_sequence(Uniform()), 2.0, tol=0.0)
