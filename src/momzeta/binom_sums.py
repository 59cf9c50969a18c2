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
terms.  Truncation over j > J is controlled by the Bonferroni inequalities:
the error of cutting the binomial expansion of (1-m)^n at order r is at most
the first omitted term C(n, r+1) m^(r+1), for any m in [0, 1].  For tail
models that are exact power laws the same inequality supplies higher-order
tail corrections, pushing the certified bound far below what the plain
first-order cut could reach in tolerable time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dist_core import MomentSequence
from .errors import Divergence, DomainError, PrecisionExhausted, QuadratureFailure, TailUnavailable
from .moment_zeta import _CHUNK, _EPS, _TAIL_SAFETY, SumResult, power_tail_sum

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

_GENERIC_CAP = 16_000_000
_POWER_LAW_J = 1 << 17
_POWER_LAW_J_CAP = 1 << 22
_MAX_CORRECTION_ORDER = 60

NAIVE_DEFAULT_CAP = 256

PREDICTION_KINDS = ("mainisdef", "alpha1", "riemann", "riemann_scaled")


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
        raise ValueError(f"unknown prediction kind {kind!r}; expected one of {PREDICTION_KINDS}")
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


def _stable_generic(ms: MomentSequence, n: int, kmin: int, tol: float,
                    terms: int | None) -> SumResult:
    tail = ms.tail
    alpha, L = tail.alpha, tail.L
    coef = float(n) if kmin == 1 else 0.5 * n * (n - 1.0)
    p = alpha * kmin
    if terms is None:
        lhat = _TAIL_SAFETY * L
        # floor + 1, not ceil: at an exact integer the truncation term alone
        # equals tol and the rounding term would push the bound past it
        J = math.floor((coef * lhat**kmin / (tol * (p - 1.0))) ** (1.0 / (p - 1.0))) + 1
        J = min(max(J, 1024), _GENERIC_CAP)
    else:
        J = max(int(terms), kmin)
    total = 0.0
    abs_acc = 0.0
    sup_scaled = 0.0
    for lo in range(1, J + 1, _CHUNK):
        hi = min(J, lo + _CHUNK - 1)
        j = np.arange(lo, hi + 1, dtype=np.float64)
        m = ms.moments(j)
        sup_scaled = max(sup_scaled, float(np.max(j**alpha * m)))
        t = _moment_space_terms(m, n, kmin)
        total += float(np.sum(t))
        abs_acc += float(np.sum(np.abs(t)))
    lhat = _TAIL_SAFETY * max(L, sup_scaled)
    bound = coef * lhat**kmin * float(J) ** (1.0 - p) / (p - 1.0)
    bound += 8.0 * _EPS * (abs_acc + n)
    return SumResult(value=total, tail_bound=bound, terms_used=J, method="moment-space")


def _stable_power_law(ms: MomentSequence, n: int, kmin: int, tol: float,
                      terms: int | None) -> SumResult:
    pl = ms.power_law
    L, alpha, shift = pl.L, pl.alpha, pl.shift
    if terms is None:
        J = max(_POWER_LAW_J, math.ceil((8.0 * n * max(L, 1.0)) ** (1.0 / alpha)))
        J = min(J, _POWER_LAW_J_CAP)
    else:
        J = max(int(terms), kmin)
    direct = 0.0
    abs_acc = 0.0
    for lo in range(1, J + 1, _CHUNK):
        hi = min(J, lo + _CHUNK - 1)
        j = np.arange(lo, hi + 1, dtype=np.float64)
        t = _moment_space_terms(ms.moments(j), n, kmin)
        direct += float(np.sum(t))
        abs_acc += float(np.sum(np.abs(t)))
    # tail corrections: sum_{j>J} sum_{k} C(n,k)(-m_j)^k order by order.  The
    # Bonferroni envelope of order k bounds what stopping after order k-1
    # leaves out, so the sweep stops at the first negligible envelope
    total = direct
    em_err = 0.0
    corr_rounding = 0.0
    start = J + 1.0 + shift
    log_l = math.log(L)
    for k in range(kmin, n + 1):
        t, terr = power_tail_sum(alpha * k, start)
        # log C(n,k) from the exact integer: an lgamma difference is off by
        # ~log(n!) eps, which the order-2 correction (up to ~1e4) turns
        # into an error above the certified bound at n >= 1e4
        log_w = math.log(math.comb(n, k)) + k * log_l
        if k > kmin:
            if t + terr <= 0.0:
                remainder = 0.0
                break
            remainder = math.exp(log_w + math.log(t + terr))
            if remainder < tol * 0.05 or k > _MAX_CORRECTION_ORDER:
                break
        if t > 0.0:
            log_t = math.log(t)
            corr = math.exp(log_w + log_t)
            total += (-1.0) ** k * corr
            # exp turns the absolute rounding of its argument, a few eps
            # times the magnitudes summed into it, into relative error
            corr_rounding += corr * (abs(log_w) + abs(log_t) + 4.0)
        if terr > 0.0:
            em_err += math.exp(log_w + math.log(terr))
    else:
        # every order up to n is in: the binomial expansion is exact
        remainder = 0.0
    bound = remainder + em_err + 8.0 * _EPS * (abs_acc + n) + _EPS * corr_rounding
    return SumResult(value=total, tail_bound=bound, terms_used=J,
                     method="moment-space+tail-corrections")


def alt_sum_stable(ms: MomentSequence, n: int, kmin: int = 1, tol: float = 1e-8,
                   *, terms: int | None = None) -> SumResult:
    """A(n; kmin) summed in moment space, with a certified truncation bound.

    kmin=1 needs alpha > 1 (else Z(1) already diverges); kmin=2 needs
    alpha > 1/2.  The kmin=1 value is <= 0 and the kmin=2 value is >= 0,
    term by term.  For exact power-law sequences the truncation bound is
    driven below tol by higher-order corrections; for generic tail models
    the first-order cut applies and the reported tail_bound is honest even
    when the term cap prevents reaching tol.

    ``terms`` fixes the number of moments summed directly (the head j <= J)
    on both paths, in place of the size chosen from n, tol and the caps; the
    power-law path still closes the tail j > J with its corrections.
    """
    if kmin not in (1, 2):
        raise ValueError(f"kmin must be 1 or 2, got {kmin}")
    if not isinstance(n, (int, np.integer)) or n < kmin:
        raise ValueError(f"need integer n >= kmin, got n={n!r}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    if ms.tail is None:
        raise TailUnavailable("alt_sum_stable needs a tail model")
    alpha = ms.tail.alpha
    if kmin == 1 and alpha <= 1.0:
        raise Divergence(
            f"A(n; 1) diverges for alpha = {alpha:.6g} <= 1: the k=1 term is the"
            " harmonic-type sum of the moments"
        )
    if kmin == 2 and alpha <= 0.5:
        raise Divergence(f"A(n; 2) needs alpha > 1/2, got alpha = {alpha:.6g}")
    n = int(n)
    if ms.power_law is not None:
        return _stable_power_law(ms, n, kmin, tol, terms)
    return _stable_generic(ms, n, kmin, tol, terms)


def riemann_zeta_source() -> Callable[[int], object]:
    """Z(k) = zeta(k); evaluate inside the oracle's precision context."""
    import mpmath

    return lambda k: mpmath.zeta(k)


def scaled_riemann_zeta_source(s: float) -> Callable[[int], object]:
    """Z(k) = zeta(s k) for the scaled sequence m_j = j^(-s)."""
    import mpmath

    return lambda k: mpmath.zeta(mpmath.mpf(s) * k)


def uniform_zeta_source() -> Callable[[int], object]:
    """Z(k) = zeta(k) - 1 for the uniform-distribution moments m_j = 1/(j+1)."""
    import mpmath

    return lambda k: mpmath.zeta(k) - 1


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


def _euler0_quadrature(L: float, alpha: float) -> float:
    """int_0^inf (1 - exp(-L u^alpha)) / u^2 du, split at u = 1."""
    from scipy import integrate

    def head(u: float) -> float:
        return -math.expm1(-L * u**alpha) / (u * u)

    def tail(t: float) -> float:
        # u = 1/t maps [1, inf) to (0, 1]
        if t == 0.0:
            return 1.0
        return -math.expm1(-L * t**-alpha)

    v1, e1 = integrate.quad(head, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=300)
    v2, e2 = integrate.quad(tail, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=300)
    if e1 + e2 > 1e-8:
        raise QuadratureFailure(f"identity quadrature error {e1 + e2:.3e} too large")
    return v1 + v2


def _euler1_quadrature(L: float) -> float:
    """int_0^1 (1-exp(-Lu)-Lu)/u^2 du + int_1^inf (1-exp(-Lu))/u^2 du."""
    from scipy import integrate

    def head(u: float) -> float:
        x = L * u
        if x < 1e-4:
            # series of (1-e^(-x)-x)/x^2 avoids the cancellation at tiny x
            return L * L * (-0.5 + x / 6.0 - x * x / 24.0 + x**3 / 120.0)
        return (-math.expm1(-x) - x) / (u * u)

    def tail(t: float) -> float:
        if t == 0.0:
            return 1.0
        return -math.expm1(-L / t)

    v1, e1 = integrate.quad(head, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=300)
    v2, e2 = integrate.quad(tail, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=300)
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
        return _euler1_quadrature(L), L * (1.0 - np.euler_gamma - math.log(L))
    if not (alpha > 1.0):
        raise DomainError(f"needs alpha >= 1, got {alpha}")
    closed = L ** (1.0 / alpha) * math.gamma(1.0 - 1.0 / alpha)
    return _euler0_quadrature(L, alpha), closed
