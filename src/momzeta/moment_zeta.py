"""Moment zeta sums Z(s) = sum_k m_k^s with certified truncation bounds.

Two summation paths share the SumResult contract:

* sequences with an exact power-law closed form get an Euler-Maclaurin tail
  evaluation whose remainder is certified analytically;
* generic sequences are truncated where the first-order bound
  sum_{j>K} m_j^s <= (L+eps)^s K^(1-alpha s)/(alpha s - 1) drops below the
  requested tolerance, with the constant L+eps certified empirically by
  scanning the summed range and inflating by 5%.

The Riemann zeta function itself is ``moment_zeta(riemann_sequence(), s)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dist_core import MomentSequence
from .errors import Divergence, TailUnavailable

__all__ = [
    "SumResult",
    "convergence_abscissa",
    "moment_zeta",
    "power_tail_sum",
]

# _EPS, _TAIL_SAFETY and _CHUNK are shared with binom_sums
_EPS = sys.float_info.epsilon
_TAIL_SAFETY = 1.05  # empirical inflation of the tail constant
_GENERIC_CAP = 8_000_000
_CHUNK = 1 << 20


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


def moment_zeta(
    ms: MomentSequence, s: float, tol: float = 1e-10, *, terms: int | None = None
) -> SumResult:
    """sum_{k>=1} m_k^s with a certified truncation bound.

    Requires s strictly above the convergence abscissa; the result is within
    tol + tail_bound of the true sum (tail_bound can exceed tol only when the
    generic truncation index is capped).

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

    if ms.power_law is not None:
        pl = ms.power_law
        p = pl.alpha * s
        n_terms = 4096 if terms is None else max(1, int(terms))
        j = np.arange(1, n_terms + 1, dtype=np.float64)
        partial = float(np.sum(ms.moments(j) ** s))
        t, terr = power_tail_sum(p, n_terms + 1 + pl.shift)
        value = partial + pl.L**s * t
        bound = pl.L**s * terr + 8.0 * _EPS * (abs(partial) + abs(value))
        return SumResult(value=value, tail_bound=bound, terms_used=n_terms, method="power-law-tail")

    L = ms.tail.L
    p = alpha * s
    if terms is None:
        lhat = _TAIL_SAFETY * L
        # floor + 1, not ceil: at an exact integer the truncation term alone
        # equals tol and the rounding term would push the bound past it
        n_terms = math.floor((lhat**s / (tol * (p - 1.0))) ** (1.0 / (p - 1.0))) + 1
        n_terms = min(max(n_terms, 64), _GENERIC_CAP)
    else:
        n_terms = max(1, int(terms))
    partial = 0.0
    abs_acc = 0.0
    sup_scaled = 0.0
    for lo in range(1, n_terms + 1, _CHUNK):
        hi = min(n_terms, lo + _CHUNK - 1)
        j = np.arange(lo, hi + 1, dtype=np.float64)
        m = ms.moments(j)
        sup_scaled = max(sup_scaled, float(np.max(j**alpha * m)))
        block = float(np.sum(m**s))
        partial += block
        abs_acc += block
    lhat = _TAIL_SAFETY * max(L, sup_scaled)
    bound = lhat**s * float(n_terms) ** (1.0 - p) / (p - 1.0) + 8.0 * _EPS * abs_acc
    return SumResult(
        value=partial, tail_bound=bound, terms_used=n_terms, method="bonferroni-tail"
    )
