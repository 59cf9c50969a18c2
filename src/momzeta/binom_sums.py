"""Alternating binomial-zeta sums, their stable evaluation, and predictors.

The object of interest is

    A(n; kmin) = sum_{k=kmin}^{n} (-1)^k C(n,k) Z(k),   Z(k) = sum_j m_j^k.

Evaluated literally, the binomial weights reach C(n, n/2) ~ 2^n while the
result stays polynomial in n, so ~n bits cancel: that route is kept as the
extended-precision oracle ``alt_sum_naive``.  The production route
``alt_sum_stable`` swaps the summation order into moment space,

    A(n; 1) = sum_j [(1 - m_j)^n - 1]              (needs alpha > 1),
    A(n; 2) = sum_j [(1 - m_j)^n - 1 + n m_j]      (needs alpha > 1/2),

where every j-term has a fixed sign, so no cancellation occurs between
terms.  The sum over j goes through ``moment_zeta.certified_sum``, the one
engine behind Z(s) too, with (1-m)^n = sum_k C(n,k) (-m)^k as the expansion.
The Bonferroni inequalities certify its truncation: cutting that expansion
at order r errs by at most the first omitted term C(n, r+1) m^(r+1), for
any m in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dist_core import MomentSequence, PowerLawForm
from .errors import DomainError, PrecisionExhausted, QuadratureFailure
from .moment_zeta import SumResult, _pairwise_roundings, certified_sum, higham_gamma
# the benchmark's tracer looks these three up here by name
from .moment_zeta import _GENERIC_CAP, _POWER_LAW_J_CAP, power_tail_sum  # noqa: F401

__all__ = [
    "AsymptoticPrediction",
    "alt_sum_stable",
    "alt_sum_naive",
    "predict",
    "sequence_law",
    "gamma_integral_identity_check",
    "riemann_zeta_source",
    "scaled_riemann_zeta_source",
    "uniform_zeta_source",
    "NAIVE_DEFAULT_CAP",
]

NAIVE_DEFAULT_CAP = 256


class _Kind(NamedTuple):
    reads: tuple[str, ...]  # the predict flags it reads, each one required
    form: Callable[..., tuple[float, float]]  # those flags -> (log L, alpha)
    kmin: int  # it predicts A(n; kmin)


# each growth law, its flags read as the tail m_j ~ L j^(-alpha); a density
# edge f(x) ~ c (1-x)^beta has L = c Gamma(beta+1) and alpha = beta + 1
PREDICTION_KINDS = {
    "mainisdef": _Kind(("c", "beta"), lambda c, beta: (math.log(c) + math.lgamma(beta + 1.0),
                                                       beta + 1.0), 1),
    "alpha1": _Kind(("c",), lambda c: (math.log(c), 1.0), 2),
    "riemann": _Kind((), lambda: (0.0, 1.0), 2),
    "riemann_scaled": _Kind(("s",), lambda s: (0.0, s), 1),
}


@dataclass(frozen=True)
class AsymptoticPrediction:
    """A closed-form growth law evaluated at n."""

    kind: str
    params: dict = field(compare=False)
    n: float
    value: float


def _law(kind: str, log_L: float, alpha: float, n: float) -> float:
    """The kind's growth law at n for the tail m_j ~ L j^(-alpha).

    |A(n; 1)| ~ L^(1/alpha) Gamma(1 - 1/alpha) n^(1/alpha) for alpha > 1, and
    A(n; 2) ~ L n log n for alpha = 1 (Flajolet & Sedgewick, TCS 144, 1995),
    plus (2 gamma - 1) n for riemann, m_j = 1/j.  L enters as log L, so
    L^(1/alpha) stays finite where L overflows; a law that overflows a float
    raises DomainError.
    """
    kmin = PREDICTION_KINDS[kind].kmin
    if not (math.isfinite(log_L) and (1.0 < alpha < math.inf if kmin == 1 else alpha == 1.0)
            and 1.0 <= n < math.inf):
        raise DomainError(f"{kind} needs a finite L > 0, alpha {'>' if kmin == 1 else '='} 1 "
                          f"and a finite n >= 1, got log L={log_L}, alpha={alpha}, n={n}")
    if kmin == 1:
        value = math.exp(log_L / alpha) * math.gamma(1.0 - 1.0 / alpha) * n ** (1.0 / alpha)
    else:
        value = math.exp(log_L) * n * math.log(n)
        value += (2.0 * np.euler_gamma - 1.0) * n if kind == "riemann" else 0.0
    if not math.isfinite(value):
        raise DomainError(f"{kind} law overflows a float at log L={log_L}, alpha={alpha}, n={n}")
    return value


def predict(kind: str, n: float, *, c: float | None = None, beta: float | None = None,
            s: float | None = None) -> AsymptoticPrediction:
    """Evaluate one of the growth laws at n.

    Each kind reads its flags as the tail (log L, alpha) of the one law:
    mainisdef the edge (c, beta), L = c Gamma(beta+1) and alpha = beta+1, and
    riemann_scaled L = 1 and alpha = s > 1, both for |A(n; 1)|; alpha1 L = c and
    riemann m_j = 1/j, both at alpha = 1 for A(n; 2).  A missing or out-of-range
    parameter, or a non-finite L, alpha or n, raises DomainError.
    """
    if kind not in PREDICTION_KINDS:
        raise ValueError(f"unknown prediction kind {kind!r}; "
                         f"expected one of {tuple(PREDICTION_KINDS)}")
    params = {f: {"c": c, "beta": beta, "s": s}[f] for f in PREDICTION_KINDS[kind].reads}
    try:
        log_L, alpha = PREDICTION_KINDS[kind].form(**params)
    except (TypeError, ValueError):  # a missing parameter, c <= 0, or a pole of lgamma
        raise DomainError(f"{kind} has no tail (L, alpha) at {params}") from None
    n = float(n)
    return AsymptoticPrediction(kind, params, n, _law(kind, log_L, alpha, n))


def sequence_law(kind: str, form: PowerLawForm, kmin: int) -> Callable[[float], float]:
    """n -> the kind's growth law for A(n; kmin) of a sequence with this tail form.

    A kind predicts only its own kmin, and riemann only m_j = 1/j exactly (else DomainError).
    """
    if kmin != PREDICTION_KINDS[kind].kmin:
        raise DomainError(f"{kind} predicts A(n; {PREDICTION_KINDS[kind].kmin}), not A(n; {kmin})")
    if kind == "riemann" and (form != PowerLawForm(1.0, 1.0) or form.gap(0.0) != 0.0):
        raise DomainError(f"riemann predicts m_j = 1/j only, not L={form.L:.6g}, "
                          f"alpha={form.alpha:g}, shift={form.shift:g}")
    return lambda n: _law(kind, math.log(form.L), form.alpha, n)


def _moment_space_terms(m: np.ndarray, n: int, kmin: int) -> np.ndarray:
    """(1-m)^n - 1 (+ n m for kmin=2), elementwise, cancellation-free.

    (1-m)^n goes through expm1(n log1p(-m)) so the result keeps full absolute
    accuracy when n*m is tiny or enormous; m == 1 is taken by its limit.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        core = np.expm1(n * np.log1p(-m))
    core = np.where(m >= 1.0, -1.0, core)
    if kmin == 1:
        return core
    return core + n * m


def alt_sum_stable(ms: MomentSequence, n: int, kmin: int = 1, tol: float = 1e-8,
                   *, terms: int | None = None) -> SumResult:
    """A(n; kmin) summed in moment space, with a certified truncation bound.

    The kmin=1 value is <= 0 and the kmin=2 value is >= 0, term by term.
    ``moment_zeta.certified_sum`` checks the rest (a power-law form, tol > 0,
    and alpha kmin > 1: kmin=1 needs alpha > 1, else Z(1) already diverges,
    kmin=2 needs alpha > 1/2), sizes the head (at most 2^22 moments;
    ``terms`` fixes it) and closes the tail through the sequence's power-law
    form (method "power-law-tail").  The reported tail_bound exceeds tol when
    the cap stops the head or tol is below the rounding of the sum; it bounds
    the error either way.
    """
    if kmin not in (1, 2):
        raise ValueError(f"kmin must be 1 or 2, got {kmin}")
    if not isinstance(n, (int, np.integer)) or n < kmin:
        raise ValueError(f"need integer n >= kmin, got n={n!r}")
    n = int(n)
    return certified_sum(ms, lambda m: _moment_space_terms(m, n, kmin),
                         lambda k: (-1) ** k * math.comb(n, k), range(kmin, n + 1), tol, terms, n)


def _mpmath():
    import mpmath  # on a source's first call, not when it is built

    return mpmath


def riemann_zeta_source() -> Callable[[int], object]:
    """Z(k) = zeta(k); evaluate inside the oracle's precision context."""
    return lambda k: _mpmath().zeta(k)


def scaled_riemann_zeta_source(s: float) -> Callable[[int], object]:
    """Z(k) = zeta(s k) for the scaled sequence m_j = j^(-s)."""
    return lambda k: _mpmath().zeta(_mpmath().mpf(s) * k)


def uniform_zeta_source() -> Callable[[int], object]:
    """Z(k) = zeta(k) - 1 for the uniform-distribution moments m_j = 1/(j+1)."""
    return lambda k: _mpmath().zeta(k) - 1


def alt_sum_naive(n: int, kmin: int, zeta_source: Callable[[int], object],
                  *, max_n: int = NAIVE_DEFAULT_CAP) -> float:
    """The literal alternating sum at working precision n + 64 bits.

    This is the cancellation oracle: binomials are exact integers and each
    Z(k) is evaluated by ``zeta_source`` inside an mpmath context wide enough
    to survive the ~n bits the alternation destroys.  n above ``max_n``
    raises PrecisionExhausted rather than silently degrading.
    """
    if kmin not in (1, 2):
        raise ValueError(f"kmin must be 1 or 2, got {kmin}")
    if not isinstance(n, (int, np.integer)) or n < kmin:
        raise ValueError(f"need integer n >= kmin, got n={n!r}")
    n = int(n)
    if n > max_n:
        raise PrecisionExhausted(
            f"n={n} exceeds the configured cap {max_n} for the {n + 64}-bit contract"
        )
    import mpmath

    with mpmath.workprec(n + 64):
        total = mpmath.mpf(0)
        for k in range(kmin, n + 1):
            term = mpmath.mpf(math.comb(n, k)) * mpmath.mpf(zeta_source(k))
            total += -term if k % 2 else term
        return float(total)


def _split_quadrature(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """int_0^1 f by 32-point Gauss-Legendre panels, geometric from 2^-79 to 1/2, then 1/128
    wide to 1; the 16-point rule estimates the error, and QuadratureFailure when the rules
    differ by more than 1e-8 plus the rounding of the two sums, gamma_D sum |w f| each."""
    edges = np.r_[0.0, 2.0 ** -np.arange(79.0, 1.0, -1.0), np.linspace(0.5, 1.0, 65)]
    lo, half = edges[:-1, None], np.diff(edges)[:, None] / 2.0

    def rule(points: int) -> tuple[float, float]:
        # (sum, rounding): two products a term, then numpy's pairwise sum
        x, w = np.polynomial.legendre.leggauss(points)
        t = half * w * f(lo + half * (x + 1.0))
        g = higham_gamma(_pairwise_roundings(t.size) + 2)
        return float(np.sum(t)), g * float(np.sum(np.abs(t))) / (1.0 - g)

    with np.errstate(over="ignore"):  # L t^-alpha is inf near t = 0, where 1 - e^-inf = 1
        (value, rounding), (coarse, coarse_rounding) = rule(32), rule(16)
    err = abs(value - coarse)
    if not err <= 1e-8 + rounding + coarse_rounding:
        raise QuadratureFailure(f"identity quadrature error {err:.3e} too large")
    return value


def gamma_integral_identity_check(L: float, alpha: float) -> tuple[float, float]:
    """(quadrature, closed form) for the limit integrals behind the predictors.

    alpha > 1:  int_0^inf (1-exp(-L u^alpha))/u^2 du = L^(1/alpha) Gamma(1 - 1/alpha);
    alpha == 1: the two-piece integral equals L (1 - gamma - log L).
    The alpha > 1 closed form is the growth law of A(n; 1) at n = 1.  The quadrature
    maps u > 1 to t = 1/u in (0, 1); below 1 it leaves out L u^(alpha-2) and adds its
    integral L/(alpha-1) (the alpha = 1 integral leaves it out by definition).
    """
    if not (L > 0.0):
        raise DomainError(f"needs L > 0, got {L}")
    closed = (L * (1.0 - np.euler_gamma - math.log(L)) if alpha == 1.0
              else _law("mainisdef", math.log(L), alpha, 1.0))  # raises unless alpha > 1
    pole = 0.0 if alpha == 1.0 else L / (alpha - 1.0)

    def integrand(u: np.ndarray) -> np.ndarray:
        # (1 - e^-x - x)/u^2 at x = L u^alpha, by its series below x = 1e-4, where
        # it cancels, and the mapped tail 1 - e^(-L u^-alpha)
        x = L * u**alpha
        series = (x / u) ** 2 * (-0.5 + x / 6.0 - x * x / 24.0 + x**3 / 120.0)
        return np.where(x < 1e-4, series, (-np.expm1(-x) - x) / (u * u)) - np.expm1(-L * u**-alpha)

    return pole + _split_quadrature(integrand), closed
