"""The mpmath references against the literal alternating sum and each other."""

import mpmath
import pytest

import checks
import reference as ref
from momzeta import binom_sums

POWER_SOURCES = {
    "riemann": binom_sums.riemann_zeta_source(),
    "uniform": binom_sums.uniform_zeta_source(),
    "scaled2": binom_sums.scaled_riemann_zeta_source(2.0),
}


@pytest.mark.parametrize("family,kmin", [("riemann", 2), ("uniform", 2), ("scaled2", 1), ("scaled3", 1)])
@pytest.mark.parametrize("n", [2, 7, 23, 40])
def test_power_law_route_matches_naive_oracle(family, kmin, n):
    if n < kmin:
        pytest.skip("n below kmin")
    seq = checks.sequence_ref(family)
    value = ref.alt_sum(seq, n, kmin)
    source = POWER_SOURCES.get(family, lambda k: mpmath.zeta(3 * k))
    naive = binom_sums.alt_sum_naive(n, kmin, source)
    assert abs(float(value) - naive) <= 1e-13 * max(1.0, abs(naive))


@pytest.mark.parametrize("family,kmin", [("beta1", 1), ("beta2", 1), ("tab2", 2), ("tab21", 1)])
@pytest.mark.parametrize("n", [3, 17, 40])
def test_density_route_matches_naive_oracle(family, kmin, n):
    seq = checks.sequence_ref(family)
    value = ref.alt_sum(seq, n, kmin)
    naive = binom_sums.alt_sum_naive(n, kmin, lambda k: ref.zeta_value(seq, k))
    assert abs(float(value) - naive) <= 1e-13 * max(1.0, abs(naive))


@pytest.mark.parametrize("n,kmin", [(2, 2), (50, 2), (1000, 2), (300, 2)])
def test_uniform_is_both_a_power_law_and_a_density(n, kmin):
    as_power = ref.alt_sum(ref.PowerLaw(1.0, 1.0, 1.0), n, kmin)
    as_density = ref.alt_sum(ref.uniform_density(), n, kmin)
    assert abs(as_power - as_density) <= mpmath.mpf(10) ** -(ref.DPS - 10) * abs(as_power)


def test_zeta_values_in_closed_form():
    with mpmath.workdps(ref.DPS):
        assert abs(ref.zeta_value(ref.uniform_density(), 3) - (mpmath.zeta(3) - 1)) < 1e-35
        # sum_j 2/((j+1)(j+2)) telescopes to 1
        assert abs(ref.zeta_value(ref.beta_edge(1), 1) - 1) < 1e-35


def test_defect_deviation_at_n1_is_half_minus_gamma():
    with mpmath.workdps(ref.DPS):
        assert abs(ref.defect_deviation(1) - (mpmath.mpf(1) / 2 - mpmath.euler)) < 1e-35
