import functools
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
from momzeta.moment_zeta import (
    _pairwise_roundings,
    blocked_sum,
    convergence_abscissa,
    moment_zeta,
)

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


def _within_bound_of_zeta(res, s):
    with mpmath.workdps(40):
        assert abs(res.value - mpmath.zeta(mpmath.mpf(s))) <= res.tail_bound


@pytest.mark.parametrize("k, diverges", [
    pytest.param(1, True, id="1"), pytest.param(0, True, id="0"),
    pytest.param(-2, True, id="-2"),
    # the rule is s alpha > 1 and nothing looser: the next float above 1 converges
    pytest.param(math.nextafter(1.0, 2.0), False, id="next-above-1"),
])
def test_zeta_divergence(k, diverges):
    if diverges:
        with pytest.raises(Divergence):
            moment_zeta(riemann_sequence(), k)
    else:
        _within_bound_of_zeta(moment_zeta(riemann_sequence(), k), k)


def test_nan_exponent_is_value_error():
    # NaN fails every comparison, the convergence rule's too: it is no exponent
    for ms in (riemann_sequence(), moment_sequence(Uniform())):
        with pytest.raises(ValueError, match="NaN"):
            moment_zeta(ms, math.nan)


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


@pytest.mark.parametrize("a,s", [
    (2.0, 1.0), (2.0, 2.0), (3.0, 1.0), (1.0, 3.0), (1.5, 2.0), (1.0, 2.5),
    # a s is 1 + 2e-10 to 1 + 0.02: the tail's x^(1-p)/(p-1) takes p - 1 from
    # the exact product; a rounded p = a s misses by up to 4.7e7 bounds there
    (3.0, 0.34), (3.0, 0.3333334), (3.0, 0.3333333334), (0.55, 1.8181819), (1.3, 0.7692308),
])
def test_cross_oracle_against_direct_series(a, s):
    # moment_zeta of the abstract j^(-a) sequence at s equals zeta(a s), the
    # product taken exactly
    res = moment_zeta(moment_sequence(PowerMoments(a)), s)
    with mpmath.workdps(40):
        ref = mpmath.zeta(mpmath.mpf(a) * mpmath.mpf(s))
    assert abs(res.value - ref) <= res.tail_bound


def test_beta_zeta_near_the_abscissa_within_bound():
    # m_j = 6/((j+1)(j+2)(j+3)) = 6 w^-3/(1 - w^-2) with w = j + 2, so
    # Z(s) = 6^s sum_i C(s+i-1, i) zeta(3s + 2i, 3); the terms fall 9-fold
    s = 0.3333334
    res = moment_zeta(moment_sequence(BetaEdge(beta=2.0)), s, tol=1e-6)
    with mpmath.workdps(40):
        S = mpmath.mpf(s)
        ref = 6**S * mpmath.fsum(mpmath.binomial(S + i - 1, i) * mpmath.zeta(3 * S + 2 * i, 3)
                                 for i in range(40))
    assert abs(ref - mpmath.mpf("9085602.4215211794")) < 1e-9
    assert abs(res.value - ref) <= res.tail_bound


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
    # the missing form is checked first: before tol, the exponent and divergence
    for s, tol in [(2.0, 0.0), (2.0, -1.0), (math.nan, 1e-10), (0.5, 1e-10), (0.5, 0.0)]:
        with pytest.raises(TailUnavailable):
            moment_zeta(ms, s, tol=tol)
    with pytest.raises(TailUnavailable):
        alt_sum_stable(ms, 10, kmin=1, tol=0.0)


def test_divergence_at_abscissa():
    ms = moment_sequence(PowerMoments(2.0))
    with pytest.raises(Divergence):
        moment_zeta(ms, 0.5)
    with pytest.raises(Divergence):
        moment_zeta(ms, 0.3)
    # s alpha = 1 exactly diverges; the next float above the abscissa converges
    s = math.nextafter(0.5, 1.0)
    _within_bound_of_zeta(moment_zeta(ms, s), 2.0 * s)
    # the same rule for a shifted form: Uniform's alpha = 1
    s = math.nextafter(1.0, 2.0)
    res = moment_zeta(moment_sequence(Uniform()), s)
    with mpmath.workdps(40):
        assert abs(res.value - (mpmath.zeta(mpmath.mpf(s)) - 1)) <= res.tail_bound
    # far above it, a form with a gap: every m_j^s underflows, and so does the gap term
    for s in (3e9, math.inf):
        res = moment_zeta(moment_sequence(BetaEdge(beta=1.0)), s)
        assert (res.value, res.terms_used) == (0.0, 1024) and 0.0 <= res.tail_bound <= 1e-10


def test_tol_validation():
    with pytest.raises(ValueError):
        moment_zeta(moment_sequence(Uniform()), 2.0, tol=0.0)
    # tol is checked before the exponent and divergence
    for s in (0.5, math.nan):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                moment_zeta(moment_sequence(Uniform()), s, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        alt_sum_stable(riemann_sequence(), 10, kmin=1, tol=0.0)


# ---------------------------------------------------------------------------
# blocked_sum and its rounding bound
# ---------------------------------------------------------------------------

def _pairwise_sum(a: list, lo: int, n: int) -> float:
    """numpy's pairwise_sum for float64 over a[lo:lo+n], step by step.

    Below 8 summands one running sum; up to 128, eight accumulators, a
    three-level tree and the n mod 8 rest one by one; above, two halves cut
    at a multiple of 8.
    """
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    if n <= 128:
        r = a[lo:lo + 8]
        for i in range(lo + 8, lo + n - n % 8, 8):
            r = [r[j] + a[i + j] for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(lo + n - n % 8, lo + n):
            res += a[i]
        return res
    n2 = n // 2 - (n // 2) % 8
    return _pairwise_sum(a, lo, n2) + _pairwise_sum(a, lo + n2, n - n2)


@functools.lru_cache(maxsize=None)
def _pairwise_depth(n: int) -> int:
    """The most roundings on any summand's path in _pairwise_sum over n summands."""
    if n < 8:
        return max(n - 1, 0)  # the first add, to 0.0, is exact
    if n <= 128:
        return n // 8 - 1 + 3 + n % 8
    n2 = n // 2 - (n // 2) % 8
    return 1 + max(_pairwise_depth(n2), _pairwise_depth(n - n2))


@pytest.mark.parametrize("shape", [(5,), (100,), (127,), (131,), (1000,), (8193,), (1 << 17,),
                                   (2020, 24), (3000, 7), (4096, 24)])
def test_pairwise_model_is_numpy_sum(shape):
    # pins numpy's summation scheme, on which the rounding bound rests
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
    assert float(np.sum(x)) == _pairwise_sum(x.ravel().tolist(), 0, x.size)


def test_pairwise_roundings_cover_the_model():
    assert (_pairwise_depth(1024), _pairwise_depth(1 << 20)) == (21, 31)
    for m in range(1, 1 << 16):
        assert _pairwise_roundings(m) >= _pairwise_depth(m), m
    rng = np.random.default_rng(23)
    for m in rng.integers(1 << 16, 1 << 23, size=20_000).tolist():
        assert _pairwise_roundings(m) >= _pairwise_depth(m), m


@pytest.mark.parametrize("seed, size, rows, width", [
    (1, 300_000, 1 << 20, 1), (2, 300_000, 1 << 16, 1), (3, 200_000, 1000, 1),
    (4, 60_000, 4096, 5),
])
def test_blocked_sum_within_its_rounding_of_fsum(seed, size, rows, width):
    # pairs x, -x(1 + tiny): the exact sum is ~1e-12 of the sum of magnitudes
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((size // 2, width)) * np.exp(rng.uniform(-30.0, 30.0, (size // 2, 1)))
    data = np.concatenate([half, -half * (1.0 + 1e-12 * rng.standard_normal(half.shape))])
    data = data[rng.permutation(len(data))]

    def block(j):
        return data[j.astype(np.int64) - 1]

    value, rounding = blocked_sum(block, len(data), rows)
    # the in-order sum of the blocks' np.sum, bit for bit
    expected = 0.0
    for lo in range(0, len(data), rows):
        expected += float(np.sum(data[lo:lo + rows]))
    assert value == expected
    assert 0.0 < abs(value - math.fsum(data.ravel().tolist())) <= rounding
    assert rounding <= 1e-12 * np.sum(np.abs(data))
