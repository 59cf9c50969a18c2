"""The sum-integral defect D_n of sum (1-1/j)^n versus int (1-1/x)^n dx.

With S_n(N) = sum_{j<=N} (1-1/j)^n and I_n(N) = int_1^N (1-1/x)^n dx, the
defect D_n = lim_N S_n(N) - I_n(N) exists and tends to 1/2, and its sawtooth
representation

    D_n = 1/2 + n * int_1^inf ({x} - 1/2) (1-1/x)^(n-1) x^(-2) dx

is evaluated here by integrating each unit interval [j, j+1) with a fixed
Gauss rule (the sawtooth restricted to one interval is a polynomial) and
closing the truncated tail with its two endpoint corrections, whose
remainder is certified by the bounded variation of g'' beyond the cut.

``defect_direct`` computes D_n(N) literally and independently: the partial
sum is summed term by term, and the integral, after u = 1 - 1/x, is the
incomplete beta function B(1 - 1/N; n + 1, -1) at 30 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moment_zeta import blocked_sum, higham_gamma

__all__ = ["DefectResult", "defect_direct", "defect_dnform"]

# numpy's leggauss(24), positive half, written out: computing it imports
# numpy.polynomial and runs a LAPACK eigensolve, 9 ms and 1.4 MB per process
_HALF_X = (0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
           0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
           0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213)
_HALF_W = (0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
           0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
           0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869)
_GAUSS_NODES = np.concatenate([np.negative(_HALF_X[::-1]), _HALF_X])
_GAUSS_WEIGHTS = np.concatenate([_HALF_W[::-1], _HALF_W])


@dataclass(frozen=True)
class DefectResult:
    """Defect value with its certified truncation bound.

    ``deviation`` keeps d_value - 1/2 at full absolute resolution, below
    where adding the 1/2 would quantize it away.
    """

    n: int
    d_value: float
    tail_bound: float
    method: str
    deviation: float


def defect_direct(n: int, big_n: int) -> float:
    """D_n(N) = S_n(N) - I_n(N), the literal partial defect.

    Converges to D_n from below at rate ~n/(2N).  n = 0 gives exactly 1 for
    every N (N unit terms against an integral of length N-1).
    """
    if n < 0 or big_n < 2:
        raise ValueError(f"need n >= 0 and N >= 2, got n={n}, N={big_n}")
    if n == 0:
        return 1.0
    with np.errstate(divide="ignore"):
        s_val, _ = blocked_sum(lambda j: np.exp(n * np.log1p(-1.0 / j)), big_n)
    import mpmath

    # I_n(N) = int_0^(1-1/N) u^n (1-u)^(-2) du
    with mpmath.workdps(30):
        i_val = float(mpmath.betainc(n + 1, -1, 0, 1 - mpmath.mpf(1) / big_n))
    return s_val - i_val


def _g_and_second_derivative(x: float, n: int) -> tuple[float, float]:
    """g(x) = (1-1/x)^(n-1) x^(-2) and g''(x), closed forms."""
    g = math.exp((n - 1) * math.log1p(-1.0 / x)) / (x * x)
    a = (n - 1) / (x * (x - 1.0)) - 2.0 / x  # g'/g
    ap = -(n - 1) * (2.0 * x - 1.0) / (x * x * (x - 1.0) ** 2) + 2.0 / (x * x)
    return g, g * (a * a + ap)


def defect_dnform(n: int, tol: float = 1e-12) -> DefectResult:
    """D_n from the sawtooth integral, certified to ~tol.

    The integral over [1, J+1) is summed interval by interval with a 24-point
    Gauss rule through ``blocked_sum``; the remainder over [J+1, inf) equals
    -g(J+1)/12 + g''(J+1)/720 up to a term bounded by n |g''(J+1)|/360.  The
    reported bound is that term plus n times the head's rounding bound and
    the rounding of the endpoint corrections and of the product by n.
    J >= 2n keeps g and its derivatives one-signed and decreasing on the tail.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    j_cut = max(64, 2 * n, math.ceil((n / (60.0 * tol)) ** 0.25))

    def interval_terms(j: np.ndarray) -> np.ndarray:
        x = j[:, None] + 0.5 + 0.5 * _GAUSS_NODES[None, :]
        saw = (x - j[:, None]) - 0.5
        with np.errstate(divide="ignore"):
            gx = np.exp((n - 1) * np.log1p(-1.0 / x)) / (x * x)
        return 0.5 * _GAUSS_WEIGHTS[None, :] * saw * gx

    head, rounding = blocked_sum(interval_terms, j_cut, 1 << 16)
    g_cut, gpp_cut = _g_and_second_derivative(float(j_cut + 1), n)
    corr = -g_cut / 12.0 + gpp_cut / 720.0
    total = head + corr
    deviation = n * total
    # g(J+1)/12 and g''(J+1)/720 take at most 30 roundings each, free of
    # cancellation past J >= 2n, and the two adds and the product by n one more apiece
    closing = higham_gamma(32) * (abs(head) + abs(g_cut) / 12.0 + abs(gpp_cut) / 720.0)
    bound = n * (abs(gpp_cut) / 360.0 + rounding + closing)
    return DefectResult(
        n=n, d_value=0.5 + deviation, tail_bound=bound, method="dnform", deviation=deviation
    )
