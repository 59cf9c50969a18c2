import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from momzeta.dist_core import (
    BetaEdge,
    MomentSequence,
    PowerLawForm,
    PowerMoments,
    TabulatedDensity,
    Uniform,
    _beta_gap,
    _beta_midpoint,
    load_tabulated_csv,
    moment_sequence,
)
from momzeta.errors import InvalidTail, QuadratureFailure, TailUnavailable
from momzeta.moment_zeta import higham_gamma


def moment_quadrature(dist, k, tol=1e-12):
    """k-th moment by scipy's adaptive quadrature: the independent cross-check.

    Integrates int_0^1 (1-u)^k f(1-u) du after the substitution u = 1-x, with
    a graded knot list near u = 0 so the edge behaviour (1-x)^beta and the
    x^k concentration are both resolved.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"moment order must be an integer >= 1, got {k!r}")

    def integrand(u):
        return (1.0 - u) ** k * float(dist.pdf(np.array([1.0 - u]))[0])

    knots = [2.0**-m for m in range(40, 1, -3)]
    knots += [0.1 / (k + 1.0), 1.0 / (k + 1.0), min(10.0 / (k + 1.0), 0.9)]
    points = sorted({p for p in knots if 0.0 < p < 1.0})
    with warnings.catch_warnings():
        # subdivision-limit warnings surface as QuadratureFailure below
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(
            integrand, 0.0, 1.0, points=points, limit=400, epsabs=tol * 0.1, epsrel=1e-13
        )
    if err > max(tol, 1e-15):
        raise QuadratureFailure(
            f"moment quadrature error estimate {err:.3e} exceeds tolerance {tol:.3e}"
        )
    return value


def perturbed_linear(c=0.5):
    # f(x) = (2 - c) - 2(1 - c) x, linear with f(1) = c and mass exactly 1
    return TabulatedDensity([0.0, 1.0], [2.0 - c, c])


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_uniform_moment_examples():
    assert Uniform().moments([5])[0] == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert Uniform().moments([1])[0] == 0.5


def test_beta_edge_closed_form():
    # m_k = 2/((k+1)(k+2)) for the beta = 1 family
    dist = BetaEdge(beta=1.0)
    assert dist.moments([2])[0] == pytest.approx(1.0 / 6.0, rel=1e-13)
    for k in (1, 3, 10, 100):
        assert dist.moments([k])[0] == pytest.approx(2.0 / ((k + 1) * (k + 2)), rel=1e-12)


def test_beta_edge_moment_asymptotics():
    # k^2 m_k -> c Gamma(2) = 2 within 1% by k = 1e4
    dist = BetaEdge(beta=1.0)
    k = 10_000
    assert k**2 * dist.moments([k])[0] == pytest.approx(2.0, rel=0.01)


@pytest.mark.parametrize("beta", [0, 1, 2, 5])
def test_integer_beta_moments_within_four_ulp(beta):
    # the rational form prod i/(k+i) against (beta+1) B(k+1, beta+1) at 40 digits
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(beta)
    ks = np.unique(np.concatenate([
        np.arange(1, 200), np.round(np.geomspace(200, 1.6e7, 400)),
        rng.integers(1, 16_000_001, 400), [16_000_000],
    ])).astype(np.int64)
    got = BetaEdge(beta=float(beta)).moments(ks)
    with mpmath.workdps(40):
        ref = np.array([float((beta + 1) * mpmath.beta(int(k) + 1, beta + 1)) for k in ks])
    assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(ref))


def test_non_integer_beta_moments_match_mpmath():
    # the exact ratio below k0 and the midpoint expansion past it, against
    # Gamma(beta+2) Gamma(k+1)/Gamma(k+beta+2) at 40 digits: the three
    # log-gammas of the old form erred by up to 4.5e-8 at k = 1.6e7
    rng = np.random.default_rng(30)
    ks = np.unique(np.concatenate([
        np.arange(1, 120), np.round(np.geomspace(120, 1.6e7, 120)),
        rng.integers(1, 16_000_001, 40), [16_000_000],
    ])).astype(np.int64)
    for beta in (0.5, 2.5, 7.3, 30.5):
        dist = BetaEdge(beta=beta)
        got = dist.moments(ks.astype(np.float64))
        with mpmath.workdps(40):
            b = mpmath.mpf(beta)
            ref = np.array([float(mpmath.exp(mpmath.loggamma(b + 2) + mpmath.loggamma(k + 1)
                                             - mpmath.loggamma(k + b + 2))) for k in ks])
        assert np.max(np.abs(got - ref) / ref) <= 1e-14, beta
        # the expansion's first coefficient is the kappa of the proven gap,
        # kappa/(J+b)^2 + O(J^-3)
        J, b = 1e12, beta / 2.0 + 1.0
        assert _beta_midpoint(beta)[1][0] == pytest.approx(_beta_gap(beta)(J) * (J + b) ** 2, rel=1e-10)


def _random_table(nodes, seed, zero_end=False):
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.0], np.sort(rng.random(nodes - 2)), [1.0]])
    f = rng.random(nodes) + 0.01
    if zero_end:  # f[-1] = 0: the edge of a beta = 1 density
        f[-1] = 0.0
    return TabulatedDensity(x, f, normalize=True)


def _sine_table(nodes):
    x = np.linspace(0.0, 1.0, nodes)
    f = (1.0 - x) * (1.0 + 0.3 * np.sin(7.0 * x))
    f = f / np.trapezoid(f, x)
    f[-1] = 0.0
    return TabulatedDensity(x, f)


def _tab21():
    return _sine_table(21)


def _by_parts_error_bound(dist, k):
    """A rounding bound on m_k = f[-1]/(k+2) + (A + sum_i D_i x_i^(k+2))/((k+1)(k+2)).

    Each slope B_i is rounded three times, so D_i = B_i - B_{i-1} errs by
    gamma_4 (|B_i| + |B_{i-1}|), and A = f[-2] - B x[-2] by gamma_5 (|f[-2]| + |B x[-2]|).
    pow (within 1 ulp), the product with D_i, at most N - 2 sequential
    additions and the three final roundings bring every term to gamma_{N+8}.
    A subnormal pow errs by at most 2^-1074, and a node past its cut drops a
    term below |D_i| 2^-1100: sum_i |D_i| 2^-1074/((k+1)(k+2)) covers both.
    """
    x, f = dist.x, dist.f
    B = np.diff(f) / np.diff(x)
    k1, k2 = k + 1.0, k + 2.0
    weight = np.abs(B[1:]) + np.abs(B[:-1])
    pows = np.power(x[None, 1:-1], k2[:, None]) if x.size > 2 else np.zeros((k.size, 0))
    mag = np.abs(f[-1]) / k2 + (abs(f[-2]) + abs(B[-1] * x[-2]) + pows @ weight) / (k1 * k2)
    slack = np.sum(np.abs(np.diff(B))) * 2.0**-1074 / (k1 * k2)
    return higham_gamma(x.size + 8) * mag + slack


def _node_cuts(dist):
    # the last k at which node i's x_i^(k+2) is above 2^-1100, and the next
    cut = np.floor(-1100.0 * np.log(2.0) / np.log(dist.x[1:-1])) - 2.0
    return np.concatenate([cut, cut + 1.0])


@pytest.mark.parametrize("make", [
    lambda: TabulatedDensity([0.0, 1.0], [1.5, 0.5]),
    _tab21,
    lambda: TabulatedDensity([0.0, 0.5, 0.999, 1.0], [1.0, 2.0, 1.0, 0.5], normalize=True),
    lambda: _random_table(3, 1),
    lambda: _random_table(5, 2),
    lambda: _random_table(50, 3),
    # slopes 1, 1, 2, -2: the node at 0.25 is collinear, D = 0 exactly
    lambda: TabulatedDensity([0.0, 0.25, 0.5, 0.75, 1.0], [0.5, 0.75, 1.0, 1.5, 1.0]),
], ids=["tab2", "tab21", "x999", "random3", "random5", "random50", "collinear"])
def test_tabulated_moments_match_node_exact(make):
    dist = make()
    # small k, where the node terms cancel, a geometric sweep to 1.6e7, and
    # the two k on either side of every node's underflow cut, shuffled with repeats
    grid = np.unique(np.concatenate([
        np.arange(1.0, 200.0), np.geomspace(200, 1.6e7, 100).round(), _node_cuts(dist),
    ]))
    grid = grid[grid >= 1.0]
    rng = np.random.default_rng(29)
    k = rng.permutation(np.concatenate([grid, rng.choice(grid, 60)]))
    got = dist.moments(k)
    # a moment does not depend on the other k of the call
    assert got.tobytes() == dist.moments(np.sort(k))[np.argsort(np.argsort(k))].tobytes()
    assert all(got[i] == dist.moments([k[i]])[0] for i in range(0, k.size, 37))
    with mpmath.workdps(40):
        exact = dict(zip(grid, map(float, _table_moments(dist, [int(j) for j in grid]))))
    ref = np.array([exact[j] for j in k])
    err = np.abs(got - ref)
    assert np.all(err <= _by_parts_error_bound(dist, k))
    # past every node's cut m_k is the last segment's closed form, within 2 ulp
    past = k > _node_cuts(dist).max(initial=0.0)
    assert np.all(err[past] <= 2.0 * np.spacing(ref[past]))
    if dist.x.size == 21:
        assert np.all(err <= 4.0 * np.spacing(ref))


def test_collinear_node_adds_nothing():
    # f = 2 - 2x through a node at 1/2: the same bytes as the 2-node table
    k = np.concatenate([np.arange(1.0, 5000.0), np.geomspace(5000, 1.6e7, 500).round()])
    with_node = TabulatedDensity([0.0, 0.5, 1.0], [2.0, 1.0, 0.0]).moments(k)
    assert with_node.tobytes() == TabulatedDensity([0.0, 1.0], [2.0, 0.0]).moments(k).tobytes()


def test_large_table_moments_match_node_exact():
    # 2001 nodes, k past the J = 20,952 that the n = 1e4, tol 1e-8 sum reaches
    dist = _sine_table(2001)
    k = np.array([1, 2, 5, 17, 100, 500, 2000, 5000, 12_000, 25_000, 40_000, 50_566.0])
    got = dist.moments(k)
    with mpmath.workdps(40):
        ref = np.array([float(m) for m in _table_moments(dist, [int(j) for j in k])])
    assert np.all(np.abs(got - ref) <= _by_parts_error_bound(dist, k))


def test_tab21_moments_are_the_edge_pole_past_underflow():
    # f[-1] = 0, so past the underflow point (k ~ 14,860) m_k = L/((k+1)(k+2))
    # with L = f[-2]/(1 - x[-2]); A/(k+1) + B/(k+2) cancelled to 1.6e-9 here
    dist = _tab21()
    L = dist.f[-2] / (1.0 - dist.x[-2])
    k = np.unique(np.geomspace(14_900, 1.6e7, 400).round())
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.mpf(L) / ((int(j) + 1) * (int(j) + 2))) for j in k])
    assert np.all(np.abs(dist.moments(k) - exact) <= 4.0 * np.spacing(exact))


def test_moment_rejects_bad_order():
    with pytest.raises(ValueError):
        moment_quadrature(Uniform(), 0)
    with pytest.raises(ValueError):
        moment_quadrature(Uniform(), -3)


@pytest.mark.parametrize("dist", [Uniform(), BetaEdge(beta=1.0), BetaEdge(beta=2.0)])
@pytest.mark.parametrize("k", [1, 2, 5, 17, 50, 100])
def test_quadrature_agrees_with_closed_form(dist, k):
    assert moment_quadrature(dist, k) == pytest.approx(dist.moments([k])[0], abs=1e-10)


def test_quadrature_failure_on_unreachable_tolerance():
    # a density with hundreds of kinks defeats the subdivision budget
    x = np.linspace(0.0, 1.0, 401)
    f = 1.0 + 0.9 * np.sign(np.sin(97 * np.pi * x))
    dist = TabulatedDensity(x, f, normalize=True)
    with pytest.raises(QuadratureFailure):
        moment_quadrature(dist, 3, tol=1e-13)


def test_tabulated_moments_are_exact():
    c = 0.5
    dist = perturbed_linear(c)
    for k in (1, 2, 7, 40):
        expected = c / (k + 1.0) + 2.0 * (1.0 - c) / ((k + 1.0) * (k + 2.0))
        assert dist.moments([k])[0] == pytest.approx(expected, rel=1e-13)
        assert moment_quadrature(dist, k) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# normalization and tail models
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "dist", [Uniform(), BetaEdge(beta=1.0), BetaEdge(beta=2.5), perturbed_linear()]
)
def test_density_normalized(dist):
    mass, _ = integrate.quad(lambda x: float(dist.pdf(np.array([x]))[0]), 0.0, 1.0, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_beta_edge_rejects_unnormalized_c():
    # c is derived from beta, never passed: not even the normalising value
    for c in (3.0, math.nan, 2.0, 2.0 + 1e-13):
        with pytest.raises(TypeError):
            BetaEdge(beta=1.0, c=c)


def test_beta_edge_stores_c_as_beta_plus_one():
    # c = beta + 1 exactly, so the moments stay the exact rational ones
    for beta in (0, 1, 2.5, 169):
        assert BetaEdge(beta).c == beta + 1.0
    dist = BetaEdge(beta=1)
    assert dist.c == 2.0
    pl = moment_sequence(dist).power_law
    assert (pl.L, pl.alpha) == (2.0, 2.0)  # L = c Gamma(beta+1)
    k = np.array([1.0, 7.0, 1e4, 1.6e7])
    assert dist.moments(k).tobytes() == (2.0 / ((k + 1.0) * (k + 2.0))).tobytes()


def test_tabulated_rejects_bad_mass():
    with pytest.raises(ValueError):
        TabulatedDensity([0.0, 1.0], [2.0, 2.0])
    dist = TabulatedDensity([0.0, 1.0], [2.0, 2.0], normalize=True)
    assert float(dist.pdf(np.array([0.3]))[0]) == pytest.approx(1.0, rel=1e-14)


def test_tail_models():
    pl = moment_sequence(Uniform()).power_law
    assert (pl.L, pl.alpha) == pytest.approx((1.0, 1.0), rel=1e-12)
    pl = moment_sequence(BetaEdge(beta=1.0)).power_law
    assert (pl.L, pl.alpha) == pytest.approx((2.0, 2.0), rel=1e-12)
    pl = moment_sequence(BetaEdge(beta=2.0)).power_law
    # Gamma(3) = 2, so L = 3 * 2
    assert (pl.L, pl.alpha) == pytest.approx((6.0, 3.0), rel=1e-12)


def test_table_edge_is_derived_from_its_last_segment():
    # no edge= needed: (L, alpha) of the form comes from the last segment
    def law(source):
        pl = moment_sequence(source).power_law
        return pl.L, pl.alpha

    tab2 = TabulatedDensity([0.0, 1.0], [1.5, 0.5])
    assert law(tab2) == (0.5, 1.0)
    tab21 = _tab21()
    assert law(tab21) == (tab21.f[-2] / (1.0 - tab21.x[-2]), 2.0)
    assert law(Uniform()) == (1.0, 1.0)
    assert law(BetaEdge(beta=2.5)) == (3.5 * math.gamma(3.5), 3.5)
    # j^(-s) has L = 1 and alpha = s, also where Gamma(s) overflows
    for s in (1.0, 3.0, 175.0):
        assert law(PowerMoments(s)) == (1.0, s)
    # a zero last segment decays faster than any power: no form
    flat_end = TabulatedDensity([0.0, 0.5, 0.75, 1.0], [2.0, 2.0, 0.0, 0.0], normalize=True)
    with pytest.raises(TailUnavailable):
        moment_sequence(flat_end)


def test_tail_law_at_ten_thousand():
    j = 10_000
    for dist in (Uniform(), BetaEdge(beta=1.0), BetaEdge(beta=2.0)):
        pl = moment_sequence(dist).power_law
        scaled = j**pl.alpha * dist.moments([j])[0]
        assert abs(scaled - pl.L) <= 0.01 * pl.L


@pytest.mark.parametrize("x, f", [
    ([0.0, 0.5, 1.0], [1.5, math.nan, 0.5]),
    ([0.0, math.nan, 1.0], [1.5, 1.0, 0.5]),
    ([0.0, 0.5, 1.0], [1.5, math.inf, 0.5]),
    ([0.0, 0.5, math.inf], [1.5, 1.0, 0.5]),
], ids=["nan-f", "nan-x", "inf-f", "inf-x"])
@pytest.mark.parametrize("normalize", [False, True])
def test_table_rejects_non_finite_values(x, f, normalize):
    # a NaN mass compares False with any tolerance, so the mass check alone passes it
    with pytest.raises(ValueError, match="finite"):
        TabulatedDensity(x, f, normalize=normalize)


def test_spot_check_rejects_nan_moments():
    class NanAt4(Uniform):
        def moments(self, k):
            m = super().moments(k)
            return np.where(np.asarray(k) == 4, math.nan, m)

    with pytest.raises(InvalidTail):
        moment_sequence(NanAt4())


def test_tail_model_validation():
    # the tail model is the PowerLawForm
    with pytest.raises(ValueError):
        PowerLawForm(L=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        PowerLawForm(L=1.0, alpha=-1.0)
    with pytest.raises(ValueError):
        PowerLawForm(L=math.inf, alpha=1.0)
    # alpha = inf would make power_tail_sum's bound inf * 0 = NaN
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError):
            PowerLawForm(L=1.0, alpha=alpha)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_inverse_cdf_examples():
    assert float(Uniform().ppf(0.25)) == pytest.approx(0.25, abs=1e-15)
    # 1 - (1 - 0.75)^(1/2) = 0.5
    assert float(BetaEdge(beta=1.0).ppf(0.75)) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 2.5, 7.0])
def test_beta_ppf_bytes_match_closed_form(beta):
    # the in-place ppf against 1 - (1 - u)^(1/(beta+1)); beta = 1 takes numpy's
    # square-root path for the exponent 0.5
    dist = BetaEdge(beta=beta)
    e = 1.0 / (beta + 1.0)
    edges = [0.0, 0.5, 1.0 - 2.0**-53]
    u = np.concatenate([edges, np.random.default_rng(17).random(100_000)])
    before = u.copy()
    assert dist.ppf(u).tobytes() == (1.0 - (1.0 - u) ** e).tobytes()
    assert u.tobytes() == before.tobytes()  # the input is left alone
    rows = u[len(edges):].reshape(4, -1)  # 2-D, as the game kernels pass it
    assert dist.ppf(rows).tobytes() == (1.0 - (1.0 - rows) ** e).tobytes()
    for v in edges:
        for arg in (v, np.float64(v), np.array(v)):
            got = dist.ppf(arg)
            want = 1.0 - (1.0 - np.asarray(arg, dtype=np.float64)) ** e
            assert type(got) is type(want)
            assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize(
    "dist", [Uniform(), BetaEdge(beta=1.0), BetaEdge(beta=2.0), perturbed_linear()]
)
def test_sampler_ks_distance(dist):
    rng = np.random.default_rng(20240817)
    xs = np.sort(dist.ppf(rng.random(100_000)))
    cdf = np.asarray(dist.cdf(xs))
    grid = np.arange(1, xs.size + 1) / xs.size
    ks = float(np.max(np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / xs.size - cdf))))
    assert ks <= 0.01


def test_tabulated_ppf_inverts_cdf():
    dist = perturbed_linear()
    u = np.linspace(0.001, 0.999, 41)
    x = dist.ppf(u)
    assert np.max(np.abs(np.asarray(dist.cdf(x)) - u)) <= 1e-13


def edge_zero_table():
    # 21 nodes with f(1) = 0, a beta = 1 edge
    x = np.linspace(0.0, 1.0, 21)
    f = (1.0 - x) * (1.0 + 0.3 * np.sin(7.0 * x))
    f[-1] = 0.0
    return TabulatedDensity(x, f, normalize=True)


def zero_segment_table():
    # zero density at x = 0 and on the whole segment [0.4, 0.6]
    return TabulatedDensity([0.0, 0.2, 0.4, 0.6, 1.0], [0.0, 2.0, 0.0, 0.0, 2.5], normalize=True)


def big_table():
    # 2001 nodes of (1 - x)(1 + 0.3 sin 7x): cum crowds at the beta = 1 edge
    x = np.linspace(0.0, 1.0, 2001)
    return TabulatedDensity(x, (1.0 - x) * (1.0 + 0.3 * np.sin(7.0 * x)), normalize=True)


def spiky_table():
    # one node holds the mass: 999 cum nodes share the lowest bucket, 999 the top one
    f = np.full(2001, 1e-9)
    f[1000] = 1.0
    return TabulatedDensity(np.linspace(0.0, 1.0, 2001), f, normalize=True)


def dyadic_table():
    # nodes at 1 - 2^-k, k = 1..53, far closer together than one bucket near x = 1
    x = np.r_[0.0, 1.0 - 2.0 ** -np.arange(1.0, 54.0), 1.0]
    return TabulatedDensity(x, 1.5 - x, normalize=True)


@pytest.mark.parametrize("make", [edge_zero_table, zero_segment_table])
def test_tabulated_ppf_round_trip(make):
    dist = make()
    u = np.random.default_rng(11).random(100_000)
    x = dist.ppf(u)
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert np.all(np.diff(x[np.argsort(u)]) >= 0.0)
    assert np.max(np.abs(np.asarray(dist.cdf(x)) - u)) <= 1e-13


@pytest.mark.parametrize("make", [perturbed_linear, edge_zero_table, zero_segment_table])
def test_tabulated_ppf_edges(make):
    dist = make()
    top = dist._cum[-1]
    assert dist.ppf(0.0) == 0.0
    assert np.all(dist.ppf(np.array([top, np.nextafter(top, 2.0), 1.0])) == 1.0)


def _segment_cdf(dist, x):
    # the table's cdf written with per-element segment expressions
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
    idx = np.clip(np.searchsorted(dist.x, x, side="right") - 1, 0, dist.x.size - 2)
    x0, x1 = dist.x[idx], dist.x[idx + 1]
    f0, f1 = dist.f[idx], dist.f[idx + 1]
    t = (x - x0) / (x1 - x0)
    return dist._cum[idx] + (x - x0) * (f0 + 0.5 * t * (f1 - f0))


def _segment_ppf(dist, u):
    # the table's ppf written with per-element segment expressions, on u
    # clipped to [0, mass]; a NaN u stays NaN
    u = np.clip(np.asarray(u, dtype=np.float64), 0.0, dist._cum[-1])
    idx = np.clip(np.searchsorted(dist._cum, u, side="left") - 1, 0, dist.x.size - 2)
    x0, f0 = dist.x[idx], dist.f[idx]
    width = dist.x[idx + 1] - x0
    slope = (dist.f[idx + 1] - f0) / width
    r = u - dist._cum[idx]
    denom = f0 + np.sqrt(np.maximum(f0 * f0 + 2.0 * slope * r, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(denom <= 0.0, 0.0, 2.0 * r / denom)
        x = x0 + np.clip(d, 0.0, width)
        dens = f0 + slope * (x - x0)
        x = np.where(dens > 0.0, x - (_segment_cdf(dist, x) - u) / dens, x)
    return np.where(u >= dist._cum[-1], 1.0, x)


TABLES = [perturbed_linear, edge_zero_table, zero_segment_table, big_table, spiky_table,
          dyadic_table]


def _nodes_and_neighbours(dist):
    nodes = np.concatenate([dist.x, dist._cum])
    return np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf)])


@pytest.mark.parametrize("make", TABLES)
def test_tabulated_ppf_cdf_bytes_match_segment_expressions(make):
    # ppf and cdf read per-segment tables and write in place: the same
    # expressions per segment, so the same bytes, whatever the segment lookup
    dist = make()
    edges = np.concatenate([[0.0, 1.0], dist._cum, [dist._cum[-1]]])
    near = _nodes_and_neighbours(dist)
    draws = np.random.default_rng(23).random(100_000)
    for u in (edges, edges.reshape(1, -1), near, near.reshape(3, -1), draws, draws.reshape(4, -1)):
        before = u.copy()
        x = dist.ppf(u)
        assert x.shape == u.shape
        assert x.tobytes() == _segment_ppf(dist, u).tobytes()
        assert u.tobytes() == before.tobytes()  # the input is left alone
        assert dist.cdf(x).tobytes() == _segment_cdf(dist, x).tobytes()
    grid = np.concatenate([[-0.5, 1.5], dist.x, near, draws])
    assert dist.cdf(grid).tobytes() == _segment_cdf(dist, grid).tobytes()
    rows = near.reshape(3, -1)
    assert dist.cdf(rows).tobytes() == _segment_cdf(dist, rows).tobytes()
    for v in (0.0, 1.0, float(dist._cum[1]), float(np.nextafter(dist.x[-2], 0.0)), 0.37):
        for arg in (v, np.float64(v), np.array(v)):
            for got, want in ((dist.ppf(arg), _segment_ppf(dist, arg)),
                              (dist.cdf(arg), _segment_cdf(dist, arg))):
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert float(got).hex() == float(want).hex()


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -0.5, 1.5]


@pytest.mark.parametrize("make", TABLES)
def test_tabulated_ppf_cdf_special_values(make):
    # NaN gives NaN; u <= 0 gives 0 and u >= the mass 1, as cdf clips x to [0, 1];
    # no value warns (a NaN cast to an index or 0 * inf would)
    dist = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, c = dist.ppf(np.array(SPECIAL)), dist.cdf(np.array(SPECIAL))
        scalars = [(float(dist.ppf(v)), float(dist.cdf(v))) for v in SPECIAL]
    assert np.array_equal(np.column_stack([x, c]), scalars, equal_nan=True)  # 0-d as 1-d
    assert math.isnan(x[0]) and math.isnan(c[0])
    assert list(x[1:]) == [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    top = dist.cdf(1.0)
    assert list(c[1:]) == [top, 0.0, 0.0, 0.0, 0.0, top]
    assert x.tobytes() == _segment_ppf(dist, np.array(SPECIAL)).tobytes()
    assert c.tobytes() == _segment_cdf(dist, np.array(SPECIAL)).tobytes()


@pytest.mark.parametrize("make", TABLES)
def test_segment_lookup_matches_searchsorted(make):
    # the guide table's segment is clip(searchsorted(edges, v, side) - 1, 0, N - 2)
    # for every float, NaN and the infinities included
    dist = make()
    v = np.concatenate([_nodes_and_neighbours(dist), SPECIAL, [-1e308, 1e308, 5e-324],
                        np.random.default_rng(5).random(10_000)])
    for lookup, edges, side in ((dist._x_segment, dist.x, "right"),
                                (dist._u_segment, dist._cum, "left")):
        want = np.clip(np.searchsorted(edges, v, side=side) - 1, 0, edges.size - 2)
        assert np.array_equal(lookup(v), want)
        assert np.array_equal(lookup(v.reshape(-1, 2)), want.reshape(-1, 2))
        # structure, not time: one step on a grid of equal segments, and the
        # steps grow with the crowding of a bucket, never past ceil(log2 N) + 1
        assert 1 <= lookup.steps <= math.ceil(math.log2(edges.size)) + 1


@pytest.mark.parametrize("nodes", [2, 3, 21, 2001, 20_001])
def test_segment_lookup_takes_one_step_on_uniform_grids(nodes):
    x = np.linspace(0.0, 1.0, nodes)
    dist = TabulatedDensity(x, np.ones(nodes))
    assert dist._x_segment.steps == 1 and dist._u_segment.steps == 1


# ---------------------------------------------------------------------------
# moment sequences
# ---------------------------------------------------------------------------

def test_moment_sequence_examples():
    assert moment_sequence(Uniform()).moment(3) == pytest.approx(0.25, rel=1e-15)
    assert moment_sequence(PowerMoments(2.0)).moment(3) == pytest.approx(1.0 / 9.0, rel=1e-15)
    # int_0^1 2x(1-x) dx = 1/3
    assert moment_sequence(BetaEdge(beta=1.0)).moment(1) == pytest.approx(1.0 / 3.0, rel=1e-13)


@pytest.mark.parametrize(
    "source",
    [Uniform(), BetaEdge(beta=1.0), BetaEdge(beta=2.0), perturbed_linear(), PowerMoments(2.0)],
)
def test_moments_monotone_decreasing(source):
    ms = moment_sequence(source)
    j = np.arange(1, 1001)
    m = ms.moments(j)
    assert np.all(np.diff(m) < 0.0)
    assert np.all(m > 0.0) and np.all(m <= 1.0)


def test_moment_sequence_metadata():
    ms = moment_sequence(Uniform())
    assert ms.provenance == "from-distribution"
    assert ms.power_law is not None and ms.power_law.shift == 1.0
    ms = moment_sequence(PowerMoments(3.0))
    assert ms.provenance == "abstract"
    assert ms.power_law.alpha == 3.0 and ms.power_law.L == 1.0


def test_abstract_sequence_rejects_bad_exponent():
    for s in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            PowerMoments(s)


def test_inconsistent_edge_data_raises_invalid_tail():
    # claiming beta = 1 (alpha = 2) for a density with a genuine alpha = 1 tail
    wrong = TabulatedDensity([0.0, 1.0], [1.5, 0.5], edge=(2.0, 1.0))
    with pytest.raises(InvalidTail):
        moment_sequence(wrong)


# ---------------------------------------------------------------------------
# power-law forms: the proven gap against extended-precision moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [0.3, 0.5, 1, 1.5, 2, 2.5, 3, 7.3, 20, 50.5, 169])
def test_beta_gap_bounds_log_gamma_moments(beta):
    # eps_j = log(m_j / (Gamma(beta+2) (j+b)^-(beta+1))) with
    # m_j = Gamma(beta+2) Gamma(j+1)/Gamma(j+beta+2)
    form = moment_sequence(BetaEdge(beta=beta)).power_law
    assert (form.alpha, form.shift) == (beta + 1.0, beta / 2.0 + 1.0)
    with mpmath.workdps(80):
        b = mpmath.mpf(beta)
        for j in (1024, 10**5, 10**9):
            eps = (mpmath.loggamma(j + 1) - mpmath.loggamma(j + b + 2)
                   + (b + 1) * mpmath.log(j + b / 2 + 1))
            gap = form.gap(j - 1)
            # a bound, and a sharp one: kappa/(J+b)^2 is the leading term of eps
            assert 0.9 * gap <= abs(eps) <= gap


def _table_moments(dist, ks):
    """The exact moments of the piecewise-linear table at the working precision.

    Segment by segment, A (x1^(k+1) - x0^(k+1))/(k+1) + B (x1^(k+2) - x0^(k+2))/(k+2)
    with the segment's line f = A + B x; each node's powers are taken once.
    """
    x = [mpmath.mpf(float(v)) for v in dist.x]
    f = [mpmath.mpf(float(v)) for v in dist.f]
    B = [(f1 - f0) / (x1 - x0) for x0, x1, f0, f1 in zip(x, x[1:], f, f[1:])]
    A = [f0 - b * x0 for x0, f0, b in zip(x, f, B)]
    out = []
    for j in ks:
        p1 = [v ** (j + 1) for v in x]
        p2 = [p * v for p, v in zip(p1, x)]
        out.append(mpmath.fsum(a * (p1[i + 1] - p1[i]) / (j + 1) + b * (p2[i + 1] - p2[i]) / (j + 2)
                               for i, (a, b) in enumerate(zip(A, B))))
    return out


def _table_moment(dist, j):
    return _table_moments(dist, [j])[0]


def _tab21_with_edge():
    d = _tab21()
    return TabulatedDensity(d.x, d.f, edge=(d.f[-2] / (1.0 - d.x[-2]), 1.0))


def _near_one_table():
    d = TabulatedDensity([0.0, 0.5, 0.999, 1.0], [1.0, 2.0, 1.0, 0.5], normalize=True)
    return TabulatedDensity(d.x, d.f, edge=(d.f[-1], 0.0))


def _sine_table_open_end(nodes):
    # the f[-1] > 0 twin of _sine_table: (1.5 - x) (1 + 0.3 sin 7x)
    x = np.linspace(0.0, 1.0, nodes)
    return TabulatedDensity(x, (1.5 - x) * (1.0 + 0.3 * np.sin(7.0 * x)), normalize=True)


@pytest.mark.parametrize("make", [
    lambda: TabulatedDensity([0.0, 1.0], [1.5, 0.5], edge=(0.5, 0.0)),
    _tab21_with_edge,
    _near_one_table,
    lambda: _random_table(3, 6),
    lambda: _random_table(5, 11),
    lambda: _random_table(5, 6, zero_end=True),
    lambda: _random_table(8, 6, zero_end=True),
    # A = -1.7 < 0 on the last segment
    lambda: TabulatedDensity([0.0, 0.5, 1.0], [0.1, 0.1, 1.9], normalize=True),
    # f[-1] = 1e-4: shift = 1 + B/L is about -2.1e4
    lambda: TabulatedDensity([0.0, 0.3, 1.0], [1.2, 1.5, 1e-4], normalize=True),
    lambda: _sine_table(2001),
    lambda: _sine_table_open_end(2001),
], ids=["tab2", "tab21", "x2-0.999", "random3", "random5", "random5-zero-end",
        "random8-zero-end", "negative-A", "tiny-end", "sine2001", "sine2001-open-end"])
def test_table_gap_bounds_exact_moments(make):
    dist = make()
    form = moment_sequence(dist).power_law
    grid = [1024, 3000, 10**4, 3 * 10**4, 10**5]
    gaps = [form.gap(J) for J in grid]
    assert gaps == sorted(gaps, reverse=True)
    with mpmath.workdps(40):
        for J, gap in zip(grid, gaps):
            # the gap is reached at j = J + 1, where the pole's q/(1-q) is sharp
            # and the rounding of L and shift shows
            for j in (J + 1, 2 * J, 10 * J):
                m = _table_moment(dist, j)
                eps = mpmath.log(m / form.L) + form.alpha * mpmath.log(j + form.shift)
                assert abs(eps) <= gap
    tiny_end = 0.0 < dist.f[-1] < 1e-3  # shift = 1 + B/L is near -1/f[-1]
    # the form holds by J = 1e5, and from J = 1024 unless x[-2] is near 1
    assert gaps[-1] < (0.1 if tiny_end else 1e-3)
    assert (gaps[0] < 1e-3) == (dist.x[-2] < 0.99 and not tiny_end)


def test_table_gap_bounds_nothing_while_the_nodes_outweigh_the_pole():
    # x[-2] = 0.999: at J = 1024 the node part, up to D x[-2]^(j+2), is still
    # about the size of the pole's f[-1] (j+1) + A
    assert not moment_sequence(_near_one_table()).power_law.gap(1024) < 1.0


def test_table_edge_must_be_last_segment():
    # f[-1] = 0: the last segment is c (1-x) with c = f[-2]/(1-x[-2]) = 3
    x, f = [0.0, 0.5, 1.0], [1.0, 1.5, 0.0]
    assert moment_sequence(TabulatedDensity(x, f, edge=(3.0, 1.0))).power_law.alpha == 2.0
    for edge in [(1.0, 1.0), (3.0, 0.0), (3.0, 2.0)]:
        with pytest.raises(InvalidTail):
            moment_sequence(TabulatedDensity(x, f, edge=edge))


def test_custom_sequence_without_tail_is_allowed():
    ms = MomentSequence(lambda j: 1.0 / np.asarray(j, dtype=float), None)
    assert ms.power_law is None
    assert ms.moment(4) == 0.25


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    path = tmp_path / "density.csv"
    path.write_text("x,f\n0.0,1.5\n1.0,0.5\n")
    dist = load_tabulated_csv(str(path))
    assert dist.moments([1])[0] == pytest.approx(
        0.5 / 2.0 + 2.0 * 0.5 / (2.0 * 3.0), rel=1e-13
    )
    # the edge comes from the last segment alone: the loader takes no edge
    pl = moment_sequence(dist).power_law
    assert (pl.L, pl.alpha) == (0.5, 1.0)
    with pytest.raises(TypeError):
        load_tabulated_csv(str(path), edge=(0.5, 0.0))
    with pytest.raises(TypeError):
        load_tabulated_csv(str(path), (0.5, 0.0))


def test_csv_rejects_nan(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("x,f\n0,1.5\n0.5,nan\n1,0.5\n")
    with pytest.raises(ValueError, match="finite"):
        load_tabulated_csv(str(path))


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,1\n1,1\n")
    with pytest.raises(ValueError):
        load_tabulated_csv(str(path))


@pytest.mark.parametrize("body, line", [
    ("x,f\n0.0,1.5\n1.0\n", 3),
    ("x,f\n0.0\n1.0,0.5\n", 2),
    ("x,f\n0.0,1.5\n\n1.0,half\n", 4),
], ids=["short-last-row", "short-first-row", "not-a-number"])
def test_csv_rejects_bad_row(tmp_path, body, line):
    path = tmp_path / "short.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=f"short.csv, line {line}:"):
        load_tabulated_csv(str(path))
