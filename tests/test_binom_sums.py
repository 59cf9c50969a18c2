import math
import time
import warnings

import mpmath
import numpy as np
import pytest

from momzeta.binom_sums import (
    _POWER_LAW_J_CAP,
    _split_quadrature,
    alt_sum_naive,
    alt_sum_stable,
    gamma_integral_identity_check,
    predict,
    riemann_zeta_source,
    scaled_riemann_zeta_source,
    sequence_law,
    uniform_zeta_source,
)
from momzeta.dist_core import (
    BetaEdge,
    MomentSequence,
    PowerMoments,
    TabulatedDensity,
    Uniform,
    moment_sequence,
)
from momzeta.errors import Divergence, DomainError, PrecisionExhausted, QuadratureFailure
from momzeta.euler_maclaurin import defect_dnform
from momzeta.moment_zeta import moment_zeta

ZETA2 = 1.6449340668482264365
ZETA3 = 1.2020569031595942854
# 3 zeta(2) - zeta(3), mpmath at 30 digits
THREE_Z2_MINUS_Z3 = 3.732745297385085024


def riemann_ms():
    return moment_sequence(PowerMoments(1.0))


# ---------------------------------------------------------------------------
# naive oracle
# ---------------------------------------------------------------------------

def test_naive_single_term():
    assert alt_sum_naive(2, 2, riemann_zeta_source()) == pytest.approx(ZETA2, abs=1e-12)


def test_naive_two_terms():
    assert alt_sum_naive(3, 2, riemann_zeta_source()) == pytest.approx(
        THREE_Z2_MINUS_Z3, abs=1e-12
    )


def test_naive_precision_cap():
    with pytest.raises(PrecisionExhausted):
        alt_sum_naive(300, 2, riemann_zeta_source())
    # raising the cap makes the same n legal
    value = alt_sum_naive(260, 2, riemann_zeta_source(), max_n=300)
    assert math.isfinite(value)


def test_naive_validates_arguments():
    with pytest.raises(ValueError):
        alt_sum_naive(5, 3, riemann_zeta_source())
    with pytest.raises(ValueError):
        alt_sum_naive(1, 2, riemann_zeta_source())


# ---------------------------------------------------------------------------
# stable evaluation vs the oracle
# ---------------------------------------------------------------------------

def test_stable_single_surviving_term():
    res = alt_sum_stable(riemann_ms(), 2, kmin=2, tol=1e-10)
    assert res.value == pytest.approx(ZETA2, abs=1e-9)


def test_stable_divergence_for_harmonic_tail():
    with pytest.raises(Divergence):
        alt_sum_stable(riemann_ms(), 1, kmin=1)
    with pytest.raises(Divergence):
        alt_sum_stable(riemann_ms(), 100, kmin=1)
    # A(n; 1) needs alpha > 1: alpha = 1.5 sums, and agrees with the oracle
    res = alt_sum_stable(moment_sequence(PowerMoments(1.5)), 30, kmin=1, tol=1e-10)
    assert abs(res.value - alt_sum_naive(30, 1, scaled_riemann_zeta_source(1.5))) <= 1e-8


def test_stable_divergence_for_slow_tail_kmin2():
    for alpha in (0.4, 0.5):  # A(n; 2) needs alpha > 1/2: alpha = 1/2 is out
        with pytest.raises(Divergence):
            alt_sum_stable(moment_sequence(PowerMoments(alpha)), 10, kmin=2)
    res = alt_sum_stable(moment_sequence(PowerMoments(0.55)), 30, kmin=2, tol=1e-10)
    assert abs(res.value - alt_sum_naive(30, 2, scaled_riemann_zeta_source(0.55))) <= 1e-8


@pytest.mark.parametrize("n", [5, 17, 40])
def test_oracle_equivalence_riemann(n):
    stable = alt_sum_stable(riemann_ms(), n, kmin=2, tol=1e-10).value
    naive = alt_sum_naive(n, 2, riemann_zeta_source())
    assert abs(stable - naive) <= 1e-8


@pytest.mark.parametrize("n", [5, 17, 40])
def test_oracle_equivalence_scaled_kmin1(n):
    ms = moment_sequence(PowerMoments(2.0))
    stable = alt_sum_stable(ms, n, kmin=1, tol=1e-10).value
    naive = alt_sum_naive(n, 1, scaled_riemann_zeta_source(2.0))
    assert abs(stable - naive) <= 1e-8


def test_oracle_equivalence_uniform_distribution():
    ms = moment_sequence(Uniform())
    stable = alt_sum_stable(ms, 25, kmin=2, tol=1e-10).value
    naive = alt_sum_naive(25, 2, uniform_zeta_source())
    assert abs(stable - naive) <= 1e-8


def _tab21():
    x = np.linspace(0.0, 1.0, 21)
    f = (1.0 - x) * (1.0 + 0.3 * np.sin(7.0 * x))
    f = f / np.trapezoid(f, x)
    f[-1] = 0.0
    return TabulatedDensity(x, f, edge=(f[-2] / (x[-1] - x[-2]), 1.0))


def _random_table():
    # five nodes, x[-2] <= 0.9, f[-1] > 0: an alpha = 1 edge
    rng = np.random.default_rng(18)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.9, 3)), [1.0]])
    d = TabulatedDensity(x, rng.uniform(0.2, 2.0, 5), normalize=True)
    return TabulatedDensity(d.x, d.f, edge=(d.f[-1], 0.0))


TAB21, TABLE5 = _tab21(), _random_table()


def _nsum_source(moment):
    return lambda k: mpmath.nsum(lambda j: moment(j) ** k, [1, mpmath.inf])


def _beta25_source(k):
    # Z(1) = E[X/(1-X)] = 1/beta: nsum's extrapolation of the j^-3.5 decay is
    # off by 4e-10 there; from k = 2 on it agrees with Euler-Maclaurin to 1e-32
    if k == 1:
        return mpmath.mpf(1) / 2.5
    return mpmath.nsum(lambda j: (3.5 * mpmath.beta(j + 1, 3.5)) ** k, [1, mpmath.inf])


def _table_zeta_source(dist, j0=600):
    """Z(k) of a table: its exact moments up to j0, then the last segment's
    pole part A/(j+1) + B/(j+2), which they match within x[-2]^j0 past it.
    The pole part goes through Euler-Maclaurin: nsum's default extrapolation
    misses A/1002 for A/(j+1) - A/(j+2) past j = 1000 by 87%."""
    head = {}

    def segments():
        for x0, x1, f0, f1 in zip(dist.x, dist.x[1:], dist.f, dist.f[1:]):
            B = (mpmath.mpf(f1) - f0) / (mpmath.mpf(x1) - x0)
            yield mpmath.mpf(x0), mpmath.mpf(x1), f0 - B * x0, B

    def z(k):
        if mpmath.mp.prec not in head:  # the moments, once per working precision
            segs = list(segments())
            head[mpmath.mp.prec] = [
                mpmath.fsum(A * (x1 ** (j + 1) - x0 ** (j + 1)) / (j + 1)
                            + B * (x1 ** (j + 2) - x0 ** (j + 2)) / (j + 2)
                            for x0, x1, A, B in segs)
                for j in range(1, j0 + 1)]
        _, _, A, B = list(segments())[-1]
        return mpmath.fsum(m**k for m in head[mpmath.mp.prec]) + mpmath.nsum(
            lambda j: (A / (j + 1) + B / (j + 2)) ** k, [j0 + 1, mpmath.inf], method="e")

    return z


@pytest.mark.parametrize(
    "dist, kmin, zeta_source",
    [
        (BetaEdge(beta=1.0), 1, _nsum_source(lambda j: 2 / ((j + 1) * (j + 2)))),
        (BetaEdge(beta=2.0), 1, _nsum_source(lambda j: 6 / ((j + 1) * (j + 2) * (j + 3)))),
        # f = 3/2 - x has edge value c = 1/2 at x = 1
        (TabulatedDensity([0.0, 1.0], [1.5, 0.5], edge=(0.5, 0.0)), 2,
         _nsum_source(lambda j: 3 / (2 * (j + 1)) - 1 / (j + 2))),
        (BetaEdge(beta=2.5), 1, _beta25_source),
        (BetaEdge(beta=7.0), 1, _nsum_source(lambda j: 8 * mpmath.beta(j + 1, 8))),
        (TAB21, 1, _table_zeta_source(TAB21)),
        (TABLE5, 2, _table_zeta_source(TABLE5)),
    ],
    ids=["beta1", "beta2", "table-3/2-x", "beta2.5", "beta7", "tab21", "table-5-nodes"],
)
@pytest.mark.parametrize("n", [5, 17, 40])
def test_oracle_equivalence_generic_path(dist, kmin, zeta_source, n):
    # densities close their tail through a shifted power law and its proven
    # gap; the naive oracle sums the exact moments instead
    res = alt_sum_stable(moment_sequence(dist), n, kmin=kmin, tol=1e-4)
    naive = alt_sum_naive(n, kmin, zeta_source)
    assert res.method == "power-law-tail"
    assert abs(res.value - naive) <= res.tail_bound <= 1e-4


def test_large_table_sum_within_bound_of_row_sum_value():
    # 2001 nodes of the tab21 density at n = 1e4: the gap of the by-parts
    # form sets J = 20,952; summing every segment's integral per k (50,566
    # of them) gave 8493.500343309266 in 26 s
    x = np.linspace(0.0, 1.0, 2001)
    f = (1.0 - x) * (1.0 + 0.3 * np.sin(7.0 * x))
    ms = moment_sequence(TabulatedDensity(x, f / np.trapezoid(f, x)))
    start = time.perf_counter()
    res = alt_sum_stable(ms, 10_000, 2, 1e-8)
    assert time.perf_counter() - start < 2.0
    assert res.terms_used == 20_952
    assert abs(res.value - 8493.500343309266) <= res.tail_bound <= 1e-8


def test_sign_coherence():
    for ms in (riemann_ms(), moment_sequence(Uniform()), moment_sequence(BetaEdge(beta=1.0))):
        assert alt_sum_stable(ms, 30, kmin=2, tol=1e-6).value >= 0.0
    for ms in (moment_sequence(PowerMoments(2.0)), moment_sequence(BetaEdge(beta=1.0))):
        assert alt_sum_stable(ms, 30, kmin=1, tol=1e-6).value <= 0.0


def test_bonferroni_term_bounds():
    # the envelopes that justify every truncation: for all m in [0,1], n
    #   -n m <= (1-m)^n - 1 <= 0   and   0 <= (1-m)^n - 1 + n m <= C(n,2) m^2
    m = np.linspace(0.0, 1.0, 201)
    for n in (1, 2, 3, 10, 57):
        low = np.expm1(n * np.log1p(-m, where=m < 1.0, out=np.full_like(m, -np.inf)))
        low[m >= 1.0] = -1.0
        assert np.all(low <= 1e-15) and np.all(low >= -n * m - 1e-12)
        y = low + n * m
        assert np.all(y >= -1e-12)
        assert np.all(y <= 0.5 * n * (n - 1) * m**2 + 1e-12)


def test_stable_refinement_within_previous_bound():
    # each cut is within its own bound of the exact sum.  The finer head may
    # stop the sweep one order earlier (J = 20000 errs by 4.2e-12 within
    # 1.3e-11, J = 40000 by -4.14e-10 within 4.16e-10), so the fine value
    # need not lie inside the coarse bound
    ms = moment_sequence(BetaEdge(beta=1.0))
    with mpmath.workdps(30):
        exact = mpmath.nsum(lambda j: (1 - 2 / ((j + 1) * (j + 2))) ** 200 - 1, [1, mpmath.inf])
        for terms in (20_000, 40_000):
            res = alt_sum_stable(ms, 200, kmin=1, terms=terms)
            assert res.terms_used == terms
            assert abs(res.value - exact) <= res.tail_bound


@pytest.mark.parametrize(
    "dist, n, head",
    [
        # (8 n L)^(1/alpha) = 80 is under the 1024 floor of every head
        (PowerMoments(1.0), 10, 1024),
        (Uniform(), 10, 1024),
        (PowerMoments(1.0), 10_000, 80_000),
        (Uniform(), 10_000, 80_000),
        (PowerMoments(1.0), 100_000, 800_000),
        (Uniform(), 100_000, 800_000),
        # (8 n L)^(1/alpha) is 8.2e8 here: the head stops at the cap, and the
        # corrections close a tail in which n m_j is still above 1
        (PowerMoments(0.55), 10_000, _POWER_LAW_J_CAP),
    ],
    ids=["10-riemann", "10-uniform", "10000-riemann", "10000-uniform", "100000-riemann",
         "100000-uniform", "10000-s0.55"],
)
def test_power_law_refinement_within_bounds_at_large_n(dist, n, head):
    # the order-2 tail correction is 1e2-1e4 here, so binomial weights that
    # are not exact to a few eps push the two cuts apart by more than their
    # certified bounds
    ms = moment_sequence(dist)
    base = alt_sum_stable(ms, n, kmin=2, tol=1e-9)
    assert base.terms_used == head
    fine = alt_sum_stable(ms, n, kmin=2, tol=1e-9, terms=4 * base.terms_used)
    assert abs(fine.value - base.value) <= base.tail_bound + fine.tail_bound


@pytest.mark.parametrize(
    "run",
    [
        lambda: alt_sum_stable(riemann_ms(), 100, kmin=2),
        lambda: alt_sum_stable(moment_sequence(BetaEdge(beta=1.0)), 100, tol=1e-4),
        lambda: moment_zeta(riemann_ms(), 2.0),
        lambda: moment_zeta(moment_sequence(BetaEdge(beta=1.0)), 2.0),
        lambda: defect_dnform(10),
    ],
    ids=["stable-power-law", "stable-generic", "zeta-power-law", "zeta-generic", "dnform"],
)
def test_tail_bound_is_builtin_float(run):
    assert type(run().tail_bound) is float


@pytest.mark.parametrize(
    "run, tol",
    [
        (lambda: alt_sum_stable(
            moment_sequence(TabulatedDensity([0.0, 1.0], [1.0, 1.0], edge=(1.0, 0.0))),
            16, kmin=2, tol=0.1), 0.1),
        (lambda: alt_sum_stable(moment_sequence(BetaEdge(beta=1.0)), 10, tol=0.01), 0.01),
        (lambda: moment_zeta(moment_sequence(BetaEdge(beta=1.0)), 1.0, tol=1e-6), 1e-6),
    ],
    ids=["tabulated-kmin2", "beta1-kmin1", "moment-zeta-beta1"],
)
def test_generic_truncation_meets_tol(run, tol):
    # these cuts land exactly on an integer, where the truncation term alone
    # equals tol; the rounding term must not push the bound past it
    assert run().tail_bound <= tol


def _reference_beta_moments(beta, last):
    """m_0..m_last of BetaEdge(beta): the longdouble recurrence m_k = m_(k-1) k/(k+beta+1),
    re-anchored every 4096 k on Gamma(beta+2) Gamma(k+1)/Gamma(k+beta+2) at 40 digits."""
    out = np.empty(last + 1, dtype=np.longdouble)
    for lo in range(0, last + 1, 4096):
        with mpmath.workdps(40):
            b = mpmath.mpf(beta)
            anchor = mpmath.exp(mpmath.loggamma(b + 2) + mpmath.loggamma(lo + 1)
                                - mpmath.loggamma(lo + b + 2))
            out[lo] = np.longdouble(mpmath.nstr(anchor, 25))
        k = np.arange(lo + 1, min(lo + 4096, last + 1), dtype=np.longdouble)
        out[lo + 1 : lo + 1 + k.size] = out[lo] * np.cumprod(k / (k + np.longdouble(beta) + 1))
    return out.astype(np.float64)


def _differential_cases():
    # three rows the log-gamma moments missed by 151x, 4.7x and 2.0x, two
    # they met, then seeded non-integer beta in (0, 8) at kmin 1 and 2 and
    # Z(s) within 1.2-1.5 times the abscissa
    cases = [pytest.param("alt", 0.5, 10**6, 1, 1e-9, id="alt-b0.5-n1e6-k1"),
             pytest.param("alt", 0.5, 10**7, 1, 1e-6, id="alt-b0.5-n1e7-k1"),
             pytest.param("zeta", 2.5, 0.3, None, 1e-10, id="zeta-b2.5-s0.3"),
             pytest.param("zeta", 0.5, 0.7, None, 1e-10, id="zeta-b0.5-s0.7"),
             pytest.param("alt", 0.5, 10**6, 2, 1e-9, id="alt-b0.5-n1e6-k2")]
    rng = np.random.default_rng(27)
    for i in range(8):
        beta, tol = float(rng.uniform(0.0, 8.0)), float(10.0 ** -rng.uniform(6.0, 10.0))
        n = int(10.0 ** rng.uniform(3.0, 7.0))
        cases.append(pytest.param("alt", beta, n, 1 + i % 2, tol, id=f"seeded-alt-{i}"))
    for i in range(2):
        beta = float(rng.uniform(0.0, 8.0))
        s = float(rng.uniform(1.2, 1.5)) / (beta + 1.0)
        cases.append(pytest.param("zeta", beta, s, None, 1e-10, id=f"seeded-zeta-{i}"))
    return cases


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference moments need an extended longdouble")
@pytest.mark.parametrize("kind, beta, arg, kmin, tol", _differential_cases())
def test_non_integer_beta_moment_error_within_tail_bound(kind, beta, arg, kmin, tol):
    # the same engine at the same J, once on the package's moments and once
    # on reference moments: the moments' own error must fit in the bound
    ms = moment_sequence(BetaEdge(beta=beta))

    def run(seq, terms=None):
        if kind == "zeta":
            return moment_zeta(seq, arg, tol=tol, terms=terms)
        return alt_sum_stable(seq, arg, kmin=kmin, tol=tol, terms=terms)

    res = run(ms)
    ref = _reference_beta_moments(beta, res.terms_used)
    other = run(MomentSequence(lambda j: ref[j.astype(np.int64)], ms.power_law),
                terms=res.terms_used)
    assert abs(res.value - other.value) <= res.tail_bound


def test_stable_validates_arguments():
    with pytest.raises(ValueError):
        alt_sum_stable(riemann_ms(), 10, kmin=3)
    with pytest.raises(ValueError):
        alt_sum_stable(riemann_ms(), 1, kmin=2)
    with pytest.raises(ValueError):
        alt_sum_stable(riemann_ms(), 10, kmin=2, tol=-1.0)


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------

def test_predict_mainisdef_beta_one():
    # (2 Gamma(2))^(1/2) Gamma(1/2) sqrt(n) = sqrt(2 pi n)
    pred = predict("mainisdef", 100, c=2.0, beta=1.0)
    assert pred.value == pytest.approx(math.sqrt(2.0 * math.pi * 100.0), rel=1e-12)


def test_predict_mainisdef_large_beta():
    # Gamma(beta+1) overflows a float here; the prediction itself does not
    c, beta, n = 3.0, 200.0, 1e4
    a = mpmath.mpf(beta) + 1
    expected = (c * mpmath.gamma(a)) ** (1 / a) * mpmath.gamma(beta / a) * mpmath.mpf(n) ** (1 / a)
    assert predict("mainisdef", n, c=c, beta=beta).value == pytest.approx(float(expected), rel=1e-12)


def test_predict_riemann_at_100():
    # 100 log 100 + (2 gamma - 1) 100, mpmath reference
    pred = predict("riemann", 100)
    assert pred.value == pytest.approx(475.96015157911570892, rel=1e-14)


def test_predict_riemann_scaled():
    pred = predict("riemann_scaled", 10_000, s=2.0)
    assert pred.value == pytest.approx(math.sqrt(math.pi) * 100.0, rel=1e-12)
    pred = predict("riemann_scaled", 10_000, s=3.0)
    assert pred.value == pytest.approx(29.1735866309, rel=1e-10)


def test_predict_alpha1():
    pred = predict("alpha1", 100, c=2.0)
    assert pred.value == pytest.approx(200.0 * math.log(100.0), rel=1e-14)


def test_predict_domain_errors():
    with pytest.raises(DomainError):
        predict("mainisdef", 100, c=2.0, beta=0.0)
    with pytest.raises(DomainError):
        predict("riemann_scaled", 100, s=1.0)
    with pytest.raises(DomainError):
        predict("riemann", 0.5)
    with pytest.raises(ValueError):
        predict("nonsense", 100)
    # a non-finite L, alpha or n has no value
    for kind, n, params in [("mainisdef", 100, {"c": 2.0, "beta": math.inf}),
                            ("mainisdef", 100, {"c": math.inf, "beta": 1.0}),
                            ("riemann_scaled", 100, {"s": math.inf}),
                            ("riemann", 1e400, {}),
                            ("alpha1", 100, {"c": math.nan}),
                            ("alpha1", 100, {"c": 0.0}),
                            # finite inputs whose law overflows a float
                            ("alpha1", 1e10, {"c": 1e308}),
                            ("mainisdef", 1e300, {"c": 1e300, "beta": 0.01})]:
        with pytest.raises(DomainError):
            predict(kind, n, **params)


def test_sequence_law_is_the_predict_law():
    # the law a sum reads from its sequence's form is the one predict evaluates
    n = 1e4
    cases = [("mainisdef", moment_sequence(BetaEdge(beta=1.0)), 1, {"c": 2.0, "beta": 1.0}),
             ("riemann_scaled", moment_sequence(PowerMoments(3.0)), 1, {"s": 3.0}),
             ("alpha1", moment_sequence(Uniform()), 2, {"c": 1.0}),
             ("riemann", riemann_ms(), 2, {})]
    for kind, ms, kmin, params in cases:
        law = sequence_law(kind, ms.power_law, kmin)
        assert law(n) == pytest.approx(predict(kind, n, **params).value, rel=1e-15)
    # elsewhere the kind does not apply: another kmin, riemann on another
    # sequence, or an alpha outside the law's range
    for kind, ms, kmin in [("mainisdef", riemann_ms(), 2), ("alpha1", riemann_ms(), 1),
                           ("riemann", moment_sequence(Uniform()), 2),
                           ("alpha1", moment_sequence(BetaEdge(beta=1.0)), 2),
                           ("mainisdef", moment_sequence(Uniform()), 1)]:
        with pytest.raises(DomainError):
            sequence_law(kind, ms.power_law, kmin)(n)


# ---------------------------------------------------------------------------
# limit-integral identities
# ---------------------------------------------------------------------------

def test_identity_power_form():
    quad, closed = gamma_integral_identity_check(1.0, 2.0)
    assert closed == pytest.approx(1.7724538509055160273, rel=1e-12)  # Gamma(1/2)
    assert abs(quad - closed) <= 1e-8
    quad, closed = gamma_integral_identity_check(2.0, 2.0)
    assert closed == pytest.approx(math.sqrt(2.0) * math.sqrt(math.pi), rel=1e-12)
    assert abs(quad - closed) <= 1e-8


def test_identity_log_form():
    quad, closed = gamma_integral_identity_check(1.0, 1.0)
    assert closed == pytest.approx(1.0 - np.euler_gamma, rel=1e-14)
    assert abs(quad - closed) <= 1e-8
    quad, closed = gamma_integral_identity_check(0.5, 1.0)
    assert closed == pytest.approx(0.5 * (1.0 - np.euler_gamma - math.log(0.5)), rel=1e-13)
    assert abs(quad - closed) <= 1e-8


def test_identity_grid_within_window_of_closed_form():
    # the Gauss-Legendre panels reach alpha -> 1 (the u^(alpha-2) end is
    # integrated in closed form) and alpha = 50 (a steep exp near u = 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for L in (0.01, 0.5, 1.0, 2.0, 100.0):
            for alpha in (1.0, 1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 50.0):
                quad, closed = gamma_integral_identity_check(L, alpha)
                assert abs(quad - closed) <= 1e-6, (L, alpha)


def test_identity_quadrature_charges_its_rounding():
    # at L = 1e8 the panel sums reach 2e8: the two rules differ by 3e-8 of
    # rounding, inside gamma_D sum |w f| (1.4e-6), and the value is within
    # 5e-14 relative of the closed form
    quad, closed = gamma_integral_identity_check(1e8, 1.5)
    assert abs(quad - closed) <= 1e-13 * abs(closed)
    # a step inside a panel is real error, which no rounding allowance covers
    with pytest.raises(QuadratureFailure):
        _split_quadrature(lambda t: np.where(t > 0.3, 1.0, 0.0))


def test_identity_domain():
    with pytest.raises(DomainError):
        gamma_integral_identity_check(0.0, 2.0)
    with pytest.raises(DomainError):
        gamma_integral_identity_check(1.0, 0.8)
