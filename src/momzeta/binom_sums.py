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
from typing import Callable

import numpy as np

from .dist_core import MomentSequence
from .errors import DomainError, PrecisionExhausted, QuadratureFailure
from .moment_zeta import SumResult, certified_sum
# the benchmark's tracer looks these three up here by name
from .moment_zeta import _GENERIC_CAP, _POWER_LAW_J_CAP, power_tail_sum  # noqa: F401

__all__ = [
    "AsymptoticPrediction",
    "alt_sum_stable",
    "alt_sum_naive",
    "predict",
    "gamma_integral_identity_check",
    "riemann_zeta_source",
    "scaled_riemann_zeta_source",
    "uniform_zeta_source",
    "NAIVE_DEFAULT_CAP",
]

NAIVE_DEFAULT_CAP = 256

# each growth law and the parameters it reads
PREDICTION_KINDS = {"mainisdef": ("c", "beta"), "alpha1": ("c",), "riemann": (),
                    "riemann_scaled": ("s",)}


@dataclass(frozen=True)
class AsymptoticPrediction:
    """A closed-form growth law evaluated at n."""

    kind: str
    params: dict = field(compare=False)
    n: float
    value: float


def predict(kind: str, n: float, *, c: float | None = None, beta: float | None = None,
            s: float | None = None) -> AsymptoticPrediction:
    """Evaluate one of the growth laws at n.

    kinds:
      mainisdef      (c Gamma(beta+1))^(1/(beta+1)) Gamma(beta/(beta+1)) n^(1/(beta+1)),
                     the magnitude of A(n; 1) for edge exponent beta > 0;
      alpha1         c n log n, the leading term of A(n; 2) when alpha = 1;
      riemann        n log n + (2 gamma - 1) n, the Riemann-case A(n; 2);
      riemann_scaled Gamma(1 - 1/s) n^(1/s), the magnitude of A(n; 1) for
                     m_j = j^(-s), s > 1.
    """
    if kind not in PREDICTION_KINDS:
        raise ValueError(f"unknown prediction kind {kind!r}; "
                         f"expected one of {tuple(PREDICTION_KINDS)}")
    n = float(n)
    if not (n >= 1.0):
        raise DomainError(f"predictions need n >= 1, got {n}")
    if kind == "mainisdef":
        if c is None or beta is None or not (c > 0.0) or not (beta > 0.0):
            raise DomainError(f"mainisdef needs c > 0 and beta > 0, got c={c}, beta={beta}")
        # (c Gamma(beta+1))^(1/(beta+1)) in logs: Gamma(beta+1) alone overflows
        # for beta > 170.6
        value = (
            math.exp((math.log(c) + math.lgamma(beta + 1.0)) / (beta + 1.0))
            * math.gamma(beta / (beta + 1.0))
            * n ** (1.0 / (beta + 1.0))
        )
        return AsymptoticPrediction("mainisdef", {"c": c, "beta": beta}, n, value)
    if kind == "alpha1":
        if c is None or not (c > 0.0):
            raise DomainError(f"alpha1 needs c > 0, got {c}")
        return AsymptoticPrediction("alpha1", {"c": c}, n, c * n * math.log(n))
    if kind == "riemann":
        value = n * math.log(n) + (2.0 * np.euler_gamma - 1.0) * n
        return AsymptoticPrediction("riemann", {}, n, value)
    # riemann_scaled
    if s is None or not (s > 1.0):
        raise DomainError(f"riemann_scaled needs s > 1, got {s}")
    value = math.gamma(1.0 - 1.0 / s) * n ** (1.0 / s)
    return AsymptoticPrediction("riemann_scaled", {"s": s}, n, value)


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


def _split_quadrature(head: Callable[[float], float], tail: Callable[[float], float]) -> float:
    """int_0^1 head(u) du + int_0^1 tail(t) dt: an integral over u in (0, inf)
    split at u = 1, its part past 1 mapped by u = 1/t.

    Both identities integrate (1 - exp(-L u^alpha))/u^2 past u = 1, so the
    mapped tail 1 - exp(-L t^(-alpha)) is 1 at t = 0.
    """
    from scipy import integrate

    def mapped(t: float) -> float:
        return 1.0 if t == 0.0 else tail(t)

    v1, e1 = integrate.quad(head, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=300)
    v2, e2 = integrate.quad(mapped, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=300)
    if e1 + e2 > 1e-8:
        raise QuadratureFailure(f"identity quadrature error {e1 + e2:.3e} too large")
    return v1 + v2


def gamma_integral_identity_check(L: float, alpha: float) -> tuple[float, float]:
    """(quadrature, closed form) for the limit integrals behind the predictors.

    alpha > 1:  int_0^inf (1-exp(-L u^alpha))/u^2 du = L^(1/alpha) Gamma(1 - 1/alpha);
    alpha == 1: the two-piece integral equals L (1 - gamma - log L).
    """
    if not (L > 0.0):
        raise DomainError(f"needs L > 0, got {L}")
    if alpha == 1.0:

        def head(u: float) -> float:
            x = L * u
            if x < 1e-4:
                # series of (1-e^(-x)-x)/x^2 avoids the cancellation at tiny x
                return L * L * (-0.5 + x / 6.0 - x * x / 24.0 + x**3 / 120.0)
            return (-math.expm1(-x) - x) / (u * u)

        quad = _split_quadrature(head, lambda t: -math.expm1(-L / t))
        return quad, L * (1.0 - np.euler_gamma - math.log(L))
    if not (alpha > 1.0):
        raise DomainError(f"needs alpha >= 1, got {alpha}")
    quad = _split_quadrature(lambda u: -math.expm1(-L * u**alpha) / (u * u),
                             lambda t: -math.expm1(-L * t**-alpha))
    return quad, L ** (1.0 / alpha) * math.gamma(1.0 - 1.0 / alpha)
