"""Moment zeta sums Z(s) = sum_k m_k^s with certified truncation bounds.

One engine, ``certified_sum``, sums every series over the moment sequence in
the package: Z(s) here and the alternating sums of ``binom_sums``.  It sums
the head j <= J directly and closes the tail j > J one of two ways:

* sequences with an exact power-law closed form add the tail order by order
  in the expansion of the summand, each order in closed form by an
  Euler-Maclaurin evaluation whose remainder is certified analytically;
* generic sequences stop after the head, where the first-order bound
  sum_{j>J} m_j^k <= (L+eps)^k J^(1-alpha k)/(alpha k - 1) has dropped below
  the requested tolerance, with the constant L+eps certified empirically by
  scanning the summed range and inflating by 5%.

The Riemann zeta function itself is ``moment_zeta(riemann_sequence(), s)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dist_core import MomentSequence
from .errors import Divergence, TailUnavailable

__all__ = [
    "SumResult",
    "convergence_abscissa",
    "moment_zeta",
    "power_tail_sum",
]

_EPS = sys.float_info.epsilon
_TAIL_SAFETY = 1.05  # empirical inflation of the tail constant
_CHUNK = 1 << 20
_HEAD_FLOOR = 1024
_GENERIC_CAP = 16_000_000
_POWER_LAW_J_CAP = 1 << 22
_MAX_CORRECTION_ORDER = 60


@dataclass(frozen=True)
class SumResult:
    """A numeric value plus a certified truncation bound and method metadata."""

    value: float
    tail_bound: float
    terms_used: int
    method: str


def power_tail_sum(p: float, start: float) -> tuple[float, float]:
    """(value, error bound) for sum_{m>=0} (start+m)^(-p), p > 1, start >= 1.

    Euler-Maclaurin through the x^(-p-3) term; the returned bound dominates
    the first omitted correction.
    """
    x = float(start)
    val = (
        x ** (1.0 - p) / (p - 1.0)
        + 0.5 * x**-p
        + p * x ** (-p - 1.0) / 12.0
        - p * (p + 1.0) * (p + 2.0) * x ** (-p - 3.0) / 720.0
    )
    err = p * (p + 1.0) * (p + 2.0) * (p + 3.0) * (p + 4.0) * x ** (-p - 5.0) / 15120.0
    return val, err


def convergence_abscissa(ms: MomentSequence) -> float:
    """Smallest s0 with sum m_k^s finite for all s > s0; equals 1/alpha."""
    if ms.tail is None:
        raise TailUnavailable("sequence has no tail model")
    return 1.0 / ms.tail.alpha


def _generic_head(w: int, lhat: float, k0: float, p: float, tol: float) -> int:
    """The smallest J with w lhat^k0 J^(1-p)/(p-1) < tol, clamped to [1024, 16M]."""
    log_need = (math.log(w) + k0 * math.log(lhat) - math.log(tol) - math.log(p - 1.0)) / (p - 1.0)
    if log_need >= math.log(_GENERIC_CAP):  # need itself overflows a float as p -> 1+
        return _GENERIC_CAP
    # floor + 1, not ceil: at an exact integer the truncation term alone
    # equals tol and the rounding term would push the bound past it
    need = math.floor((w * lhat**k0 / (tol * (p - 1.0))) ** (1.0 / (p - 1.0))) + 1
    return min(max(_HEAD_FLOOR, need), _GENERIC_CAP)


def certified_sum(ms: MomentSequence, term: Callable[[np.ndarray], np.ndarray],
                  weight: Callable[[float], int], powers: Sequence[float], tol: float,
                  terms: int | None, n: int = 0) -> SumResult:
    """sum_{j>=1} term(m_j), with a certified bound on what the sum leaves out.

    ``term`` maps an array of moments to the summands.  Its expansion
    term(m) = sum_{k in powers} weight(k) m^k lists the powers in increasing
    order, with exact integer weights.  ``n`` is the binomial exponent of an
    alternating sum (0 for Z(s)); it sizes the power-law head and the
    rounding term.  The head is J = ``terms`` if given, otherwise
    max(1024, need) under the cap of the path:

    * a power-law sequence (L (j+shift)^(-alpha) exactly) adds the tail order
      by order.  The Bonferroni envelope of an order bounds what stopping
      before it leaves out, so the sweep stops at the first envelope below
      tol/20, or past order 60.  need = ceil((8 n max(L, 1))^(1/alpha)) puts
      n m_J below 1/8, where the orders shrink fast; the cap is 2^22.
    * any other sequence keeps only the head, cut with the envelope of the
      first order.  need is the smallest J at which that envelope is below
      tol, with the constant max(L, sup j^alpha m_j over j <= 1024) inflated
      by 5%; the cap is 16M.
    """
    k0 = powers[0]
    pl = ms.power_law
    alpha, L = (pl.alpha, pl.L) if pl is not None else (ms.tail.alpha, ms.tail.L)
    p = alpha * k0
    if terms is not None:
        J = max(1, int(terms))
    elif pl is not None:
        J = min(max(_HEAD_FLOOR, math.ceil((8.0 * n * max(L, 1.0)) ** (1.0 / alpha))),
                _POWER_LAW_J_CAP)
    else:
        J = _HEAD_FLOOR  # sized once the first chunk has been scanned
    total = 0.0
    abs_acc = 0.0
    log_sup = -math.inf  # log of sup_j j^alpha m_j over the head, generic path
    # a generic head sums j <= 1024 as its own first chunk, and J is sized
    # from that chunk's sup of j^alpha m_j, the constant its bound uses
    lo, hi = 1, min(J, _CHUNK if pl is not None else _HEAD_FLOOR)
    while lo <= J:
        j = np.arange(lo, hi + 1, dtype=np.float64)
        m = ms.moments(j)
        if pl is None:
            with np.errstate(divide="ignore"):
                log_sup = max(log_sup, float(np.max(alpha * np.log(j) + np.log(m))))
            if terms is None and lo == 1:
                J = _generic_head(abs(weight(k0)), _TAIL_SAFETY * max(L, math.exp(log_sup)),
                                  k0, p, tol)
        t = term(m)
        total += float(np.sum(t))
        abs_acc += float(np.sum(np.abs(t)))
        lo, hi = hi + 1, min(J, hi + _CHUNK)
    rounding = 8.0 * _EPS * (abs_acc + n)
    if pl is None:
        lhat = _TAIL_SAFETY * max(L, math.exp(log_sup))
        bound = abs(weight(k0)) * lhat**k0 * float(J) ** (1.0 - p) / (p - 1.0) + rounding
        return SumResult(value=total, tail_bound=bound, terms_used=J, method="bonferroni-tail")

    em_err = 0.0
    corr_rounding = 0.0
    start = J + 1.0 + pl.shift
    log_l = math.log(L)
    for k in powers:
        t, terr = power_tail_sum(alpha * k, start)
        w = weight(k)
        # the log of the exact integer weight: for C(n,k), an lgamma
        # difference is off by ~log(n!) eps, which the order-2 correction
        # (up to ~1e4) turns into an error above the bound at n >= 1e4
        log_w = math.log(abs(w)) + k * log_l
        if k > k0:
            if t + terr <= 0.0:
                remainder = 0.0
                break
            remainder = math.exp(log_w + math.log(t + terr))
            if remainder < tol * 0.05 or k > _MAX_CORRECTION_ORDER:
                break
        if t > 0.0:
            log_t = math.log(t)
            corr = math.exp(log_w + log_t)
            total += math.copysign(corr, w)
            # exp turns the absolute rounding of its argument, a few eps
            # times the magnitudes summed into it, into relative error
            corr_rounding += corr * (abs(log_w) + abs(log_t) + 4.0)
        if terr > 0.0:
            em_err += math.exp(log_w + math.log(terr))
    else:
        # every order is in: the expansion is exact
        remainder = 0.0
    bound = remainder + em_err + rounding + _EPS * corr_rounding
    return SumResult(value=total, tail_bound=bound, terms_used=J, method="power-law-tail")


def moment_zeta(
    ms: MomentSequence, s: float, tol: float = 1e-10, *, terms: int | None = None
) -> SumResult:
    """sum_{k>=1} m_k^s with a certified truncation bound.

    Requires s strictly above the convergence abscissa; the result is within
    tail_bound of the true sum.  A power-law sequence (method
    "power-law-tail") sums 1024 moments and closes the rest with its
    Euler-Maclaurin tail; any other sequence (method "bonferroni-tail") sums
    as many as its first-order cut needs to meet tol, at least 1024 and at
    most 16M.  tail_bound exceeds tol when that cap stops the head or tol is
    below the rounding of the sum.

    ``terms`` fixes the number of moments summed directly on both paths; a
    power-law sequence still closes the rest with its Euler-Maclaurin tail.
    """
    if ms.tail is None:
        raise TailUnavailable("moment_zeta needs a tail model to bound its truncation")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    alpha = ms.tail.alpha
    s = float(s)
    if s * alpha <= 1.0:
        raise Divergence(
            f"moment zeta sum diverges at s={s}: needs s > 1/alpha = {1.0 / alpha:.6g}"
        )
    return certified_sum(ms, lambda m: m**s, lambda k: 1, (s,), tol, terms)
