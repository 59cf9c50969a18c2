"""Moment zeta sums Z(s) = sum_k m_k^s with certified truncation bounds.

One engine, ``certified_sum``, sums every series over the moment sequence in
the package: Z(s) here and the alternating sums of ``binom_sums``.  It sums
the head j <= J directly and closes the tail j > J order by order through
the sequence's form L (j+shift)^(-alpha): each order by Euler-Maclaurin with
a certified remainder, widened by the form's proven gap on |log(m_j/form)|.

Every truncated series of the package sums its head through one routine,
``blocked_sum``, which returns the head with a proven bound on its rounding.

The Riemann zeta function itself is ``moment_zeta(riemann_sequence(), s)``.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dist_core import _U, MomentSequence
from .errors import Divergence, TailUnavailable

__all__ = [
    "SumResult",
    "blocked_sum",
    "convergence_abscissa",
    "higham_gamma",
    "moment_zeta",
    "power_tail_sum",
]

_EPS = sys.float_info.epsilon
_ROWS = 1 << 20
_HEAD_FLOOR = 1024
# the benchmark's tracer reads the cap as _GENERIC_CAP and _POWER_LAW_J_CAP
_J_CAP = _GENERIC_CAP = _POWER_LAW_J_CAP = 1 << 22
_MAX_CORRECTION_ORDER = 60


@dataclass(frozen=True)
class SumResult:
    """A numeric value plus a certified truncation bound and method metadata."""

    value: float
    tail_bound: float
    terms_used: int
    method: str


def power_tail_sum(p: float, start: float, p1: float | None = None) -> tuple[float, float]:
    """(value, error bound) for sum_{m>=0} (start+m)^(-p), p > 1, start >= 1.

    Euler-Maclaurin through the x^(-p-3) term; the returned bound dominates
    the first omitted correction.  p1 is p - 1, if the caller has it more
    exactly than p - 1.0: the leading term x^(1-p)/(p-1) takes its relative error.
    """
    x = float(start)
    p1 = p - 1.0 if p1 is None else p1
    val = (
        x**-p1 / p1
        + 0.5 * x**-p
        + p * x ** (-p - 1.0) / 12.0
        - p * (p + 1.0) * (p + 2.0) * x ** (-p - 3.0) / 720.0
    )
    err = p * (p + 1.0) * (p + 2.0) * (p + 3.0) * (p + 4.0) * x ** (-p - 5.0) / 15120.0
    return val, err


def higham_gamma(k: int) -> float:
    """gamma_k = k u/(1 - k u): k roundings, each within u, err by at most gamma_k relative."""
    return k * _U / (1.0 - k * _U)


def _pairwise_roundings(m: int) -> int:
    """The most roundings on any summand's path in numpy's pairwise sum of m float64s.

    A leaf of at most 128 summands runs 8 accumulators, a three-level tree
    and the m mod 8 rest one by one: at most 24 roundings (m = 127).  Larger
    sums halve at a multiple of 8, one rounding a level.
    """
    return 24 + max(0, (m - 1).bit_length() - 7)


def blocked_sum(block: Callable[[np.ndarray], np.ndarray], last: int,
                rows: int = _ROWS) -> tuple[float, float]:
    """(value, rounding): the sum of block(j) over j = 1..last, ``rows`` indices a call.

    block maps a float64 array of consecutive indices to a fresh, contiguous
    array of summands, which is overwritten once summed.  Each block goes through one np.sum, which numpy
    computes pairwise, and the block sums are added in order into a Python
    float.  A summand thus meets at most D = _pairwise_roundings(m) + blocks - 1
    roundings, m the largest block's size, so |value - exact sum| <= gamma_D A
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec.
    4.2), A the sum of the |summands|.  A is summed the same way, so
    rounding = gamma_D A/(1 - gamma_D) with A as computed.
    """
    total = abs_total = 0.0
    m = blocks = 0
    for lo in range(1, last + 1, rows):
        t = block(np.arange(lo, min(last, lo + rows - 1) + 1, dtype=np.float64))
        total += float(np.sum(t))
        abs_total += float(np.sum(np.abs(t, out=t)))
        m = max(m, t.size)
        blocks += 1
    g = higham_gamma(_pairwise_roundings(m) + blocks - 1)
    return total, g * abs_total / (1.0 - g)


def convergence_abscissa(ms: MomentSequence) -> float:
    """Smallest s0 with sum m_k^s finite for all s > s0; equals 1/alpha."""
    if ms.power_law is None:
        raise TailUnavailable("sequence has no power-law form")
    return 1.0 / ms.power_law.alpha


def certified_sum(ms: MomentSequence, term: Callable[[np.ndarray], np.ndarray],
                  weight: Callable[[float], int], powers: Sequence[float], tol: float,
                  terms: int | None, n: int = 0) -> SumResult:
    """sum_{j>=1} term(m_j), with a certified bound on what the sum leaves out.

    ``term`` maps an array of moments to the summands.  Its expansion
    term(m) = sum_{k in powers} weight(k) m^k lists the powers in increasing
    order, with exact integer weights.  ``n`` is the binomial exponent of an
    alternating sum (0 for Z(s)); it sizes the head and the rounding term.

    This is the one place that checks a certified sum's preconditions, in
    this order: the sequence has a power-law form m~_j = L (j+shift)^(-alpha)
    (else TailUnavailable), tol > 0 and the lowest power is a number (else
    ValueError), and alpha powers[0] > 1, without which sum_j m_j^powers[0]
    diverges (else Divergence).

    The head j <= J is summed by ``blocked_sum``, whose rounding bound joins
    the tail_bound with 8 eps n for the terms' own evaluation.  The tail goes
    order by order through the form: order k adds w_k sum_{j>J} m~_j^k by
    Euler-Maclaurin, and its tail sum times expm1(k gap(J)) |w_k| and the
    rounding of its exp and its add to the bound.  The sweep stops at the first
    Bonferroni envelope, times exp(k gap(J)), below tol/20, or past order
    60.  J is ``terms``, else the largest of 1024, (8 n max(L, 1))^(1/alpha)
    (n m_J below 1/8, where the orders shrink fast) and the first J whose
    first-order gap term is at most tol/4, under the cap 2^22.
    """
    pl = ms.power_law
    if pl is None:
        raise TailUnavailable(f"{ms.provenance} sequence has no power-law form to close its tail")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    k0, alpha, log_l = powers[0], pl.alpha, math.log(pl.L)
    if math.isnan(k0):
        raise ValueError("the exponent of the sum is NaN")
    if not (alpha * k0 > 1.0):
        raise Divergence(f"sum_j m_j^{k0:.6g} diverges: alpha = {alpha:.6g} times the power "
                         f"{k0:.6g} must exceed 1")
    # the lowest order's p - 1 = alpha k0 - 1 rounded once (int / int rounds once), and that
    # rounding dp1: near the abscissa, the p - 1 of a rounded p = alpha k0 errs by
    # u/(p-1) relative, which the tail's leading x^(1-p)/(p-1) takes in whole.  A power
    # of two k0 (kmin 1 and 2 of the alternating sums) leaves alpha k0 exact already
    p1, dp1 = alpha * k0 - 1.0, 0.0
    if math.frexp(k0)[0] != 0.5 and math.isfinite(p1):
        (a, b), (c, d) = alpha.as_integer_ratio(), float(k0).as_integer_ratio()
        num, den = a * c - b * d, b * d
        p1 = num / den
        e, f = p1.as_integer_ratio()
        dp1 = abs(num * f - e * den) / (den * f)

    def order(k: float, J: int, g: float) -> tuple[float, float, int, float, float, float]:
        """Order k of the tail past the head j <= J, whose form strays by at most g:
        (t, terr, w_k, log(|w_k| L^k), log of its size |w_k| L^k (t + terr), gap term)."""
        t, terr = power_tail_sum(alpha * k, J + 1.0 + pl.shift, p1 if k == k0 else None)
        w = weight(k)
        # the log of the exact integer weight: for C(n,k), an lgamma
        # difference is off by ~log(n!) eps, which the order-2 correction
        # (up to ~1e4) turns into an error above the bound at n >= 1e4
        log_w = math.log(abs(w)) + k * log_l
        log_size = log_w + math.log(t + terr) if t + terr > 0.0 else -math.inf
        # |m_j^k / m~_j^k - 1| <= expm1(k g) past J
        gap_term = math.expm1(k * g) * math.exp(log_size) if g > 0.0 and t + terr > 0.0 else 0.0
        return t, terr, w, log_w, log_size, gap_term

    def fits(J: int) -> bool:  # the form bounds the tail past J, its first order within tol/4
        g = pl.gap(J)
        return g == 0.0 or (g < 1.0 and order(k0, J, g)[5] <= tol / 4.0)

    if terms is not None:
        J = max(1, int(terms))
    else:
        # the two roots taken apart, so L up to the float limit cannot overflow
        need = (8.0 * n) ** (1.0 / alpha) * max(pl.L, 1.0) ** (1.0 / alpha)
        J = min(max(_HEAD_FLOOR, math.ceil(need)), _J_CAP)
        if not fits(J):
            J += bisect.bisect_left(range(J, _J_CAP), True, key=fits)
    def head(j: np.ndarray) -> np.ndarray:
        m = ms.moments(j)
        del j  # the indices go before the terms are built: one array fewer alive
        return term(m)

    total, rounding = blocked_sum(head, J)
    # evaluating a term errs by a few eps times n m_j (1-m_j)^n, whose sum over j is about n
    rounding += 8.0 * _EPS * n
    g = pl.gap(J)
    if not g < 1.0:  # the form bounds nothing past so short a head
        return SumResult(value=total, tail_bound=math.inf, terms_used=J, method="power-law-tail")

    tail_err = 0.0
    corr_rounding = 0.0
    for k in powers:
        t, terr, w, log_w, log_size, gap_term = order(k, J, g)
        if k > k0:
            if log_size == -math.inf:
                remainder = 0.0
                break
            remainder = math.exp(log_size + k * g)
            if remainder < tol * 0.05 or k > _MAX_CORRECTION_ORDER:
                break
        if t > 0.0:
            log_t = math.log(t)
            corr = math.exp(log_w + log_t)
            total += math.copysign(corr, w)
            # exp turns the absolute rounding of its argument, a few eps
            # times the magnitudes summed into it, into relative error; the
            # add itself errs by at most eps/2 of the running total
            corr_rounding += corr * (abs(log_w) + abs(log_t) + 4.0) + 0.5 * abs(total)
        if terr > 0.0:
            tail_err += math.exp(log_w + math.log(terr))
        tail_err += gap_term
    else:
        remainder = 0.0  # every order is in: the expansion is exact
    if dp1 > 0.0:  # order k0's x^-(p-1)/(p-1) moves by dp1 (log x + 1/(p-1)) relative
        t, _, _, log_w = order(k0, J, g)[:4]
        tail_err += math.exp(log_w) * t * dp1 * (math.log(J + 1.0 + pl.shift) + 1.0 / p1)
    bound = remainder + tail_err + rounding + _EPS * corr_rounding
    return SumResult(value=total, tail_bound=bound, terms_used=J, method="power-law-tail")


def moment_zeta(
    ms: MomentSequence, s: float, tol: float = 1e-10, *, terms: int | None = None
) -> SumResult:
    """sum_{k>=1} m_k^s with a certified truncation bound.

    ``certified_sum`` checks the preconditions: a power-law form, tol > 0, s
    not NaN and s strictly above the convergence abscissa 1/alpha.  The
    result is within tail_bound of the true sum.  The head is 1024 moments,
    or more as the form's gap needs (at most 2^22; ``terms`` fixes it), and
    the form's tail closes the rest (method "power-law-tail").  tail_bound
    exceeds tol when the cap stops the head or tol is below the rounding of
    the sum.
    """
    s = float(s)
    return certified_sum(ms, lambda m: m**s, lambda k: 1, (s,), tol, terms)
