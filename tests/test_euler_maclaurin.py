import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from momzeta.euler_maclaurin import _GAUSS_NODES, _GAUSS_WEIGHTS, defect_direct, defect_dnform

ONE_MINUS_GAMMA = 0.42278433509846713939


def test_direct_n1_closed_form():
    # D_1(N) = 1 - H_N + log N; the two routes round differently over the
    # N unit-sized terms, so allow a few N*eps of float accumulation
    n_big = 10_000
    h = float(np.sum(1.0 / np.arange(1, n_big + 1)))
    assert defect_direct(1, n_big) == pytest.approx(1.0 - h + math.log(n_big), abs=3e-11)


def test_direct_n0_is_one():
    assert defect_direct(0, 100) == 1.0
    assert defect_direct(0, 10_000) == 1.0


def test_direct_n1_limit():
    assert defect_direct(1, 10**6) == pytest.approx(ONE_MINUS_GAMMA, abs=1e-5)


def test_direct_paths_are_consistent():
    # the increment D_n(400) - D_n(100) matches the partial sum minus a quadrature
    n = 30
    lo, hi = 100, 400
    gap = defect_direct(n, hi) - defect_direct(n, lo)
    j = np.arange(lo + 1, hi + 1, dtype=np.float64)
    s_part = float(np.sum((1.0 - 1.0 / j) ** n))
    i_part, _ = integrate.quad(lambda x: (1.0 - 1.0 / x) ** n, lo, hi, limit=200)
    assert gap == pytest.approx(s_part - i_part, abs=1e-10)


def test_direct_validation():
    with pytest.raises(ValueError):
        defect_direct(-1, 100)
    with pytest.raises(ValueError):
        defect_direct(3, 1)


def test_dnform_n1_equals_one_minus_gamma():
    res = defect_dnform(1, tol=1e-12)
    assert res.d_value == pytest.approx(ONE_MINUS_GAMMA, abs=1e-10)
    assert res.method == "dnform"
    assert res.d_value == pytest.approx(0.5 + res.deviation, abs=1e-15)


def test_dnform_n100_near_half():
    res = defect_dnform(100, tol=1e-12)
    assert 0.49 <= res.d_value <= 0.51


def test_dnform_certified_bound_tracks_tol():
    res = defect_dnform(10, tol=1e-10)
    assert res.tail_bound <= 1e-9


@pytest.mark.parametrize("n", [1, 5, 10, 50, 100])
def test_methods_agree(n):
    big_n = max(10**6, 200 * n)
    direct = defect_direct(n, big_n)
    res = defect_dnform(n, tol=1e-11)
    # finite-N truncation of the direct route is at most 1 - (1-1/N)^n ~ n/N
    budget = n / big_n + res.tail_bound + 1e-9
    assert abs(direct - res.d_value) <= budget


def test_cross_method_spec_example():
    # n = 100 with N = 1e6 lands within 5e-3 of the sawtooth value
    assert abs(defect_direct(100, 10**6) - defect_dnform(100).d_value) <= 5e-3


def test_deviation_scaling_decreases():
    devs = {n: abs(defect_dnform(n, tol=1e-12).deviation) for n in (10, 100, 1000)}
    assert 10 * devs[10] > 100 * devs[100] > 1000 * devs[1000]


def test_g_second_derivative_formula():
    from momzeta.euler_maclaurin import _g_and_second_derivative

    n = 17
    for x in (5.0, 30.0, 200.0):
        h = 1e-4 * x

        def g(y):
            return (1.0 - 1.0 / y) ** (n - 1) / (y * y)

        fd = (g(x + h) - 2.0 * g(x) + g(x - h)) / (h * h)
        _, gpp = _g_and_second_derivative(x, n)
        assert gpp == pytest.approx(fd, rel=1e-5)


def test_dnform_validation():
    with pytest.raises(ValueError):
        defect_dnform(0)
    with pytest.raises(ValueError):
        defect_dnform(5, tol=0.0)


def test_gauss_table_is_the_24_point_rule():
    # the written-out rule is numpy's leggauss(24): its nodes are the roots of
    # P_24 to 1 ulp, its weights 2/((1 - x^2) P_24'(x)^2) to 1e-12 relative
    # (numpy's own weights are off by up to 859 ulp at the outermost node)
    x, w = np.polynomial.legendre.leggauss(24)
    assert np.all(np.abs(_GAUSS_NODES - x) <= 2.0 * np.spacing(np.abs(x)))
    assert np.allclose(_GAUSS_WEIGHTS, w, rtol=1e-13, atol=0.0)
    assert np.array_equal(_GAUSS_NODES, -_GAUSS_NODES[::-1])
    assert np.array_equal(_GAUSS_WEIGHTS, _GAUSS_WEIGHTS[::-1])
    with mpmath.workdps(40):
        for node, weight in zip(_GAUSS_NODES[12:], _GAUSS_WEIGHTS[12:]):
            root = mpmath.findroot(lambda t: mpmath.legendre(24, t), mpmath.mpf(float(node)))
            slope = mpmath.diff(lambda t: mpmath.legendre(24, t), root)
            assert abs(node - float(root)) <= np.spacing(node)
            assert abs(weight - float(2 / ((1 - root**2) * slope**2))) <= 1e-12 * weight
