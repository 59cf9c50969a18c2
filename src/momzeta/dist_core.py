"""Distributions on [0,1]: densities, CDFs, samplers, moments, power-law tails.

Three density families are supported:

* ``Uniform`` -- f(x) = 1, moments m_k = 1/(k+1);
* ``BetaEdge`` -- f(x) = c (1-x)^beta with c = beta+1 so the mass is 1,
  moments m_k = c B(k+1, beta+1); for integer beta this is the rational
  m_k = prod_{i=1}^{beta+1} i/(k+i), otherwise an exact ratio for small k
  and past it an expansion in even powers of 1/(k + beta/2 + 1);
* ``TabulatedDensity`` -- piecewise-linear density on a user grid, moments
  by parts, f[-1]/(k+2) + (A + sum_i D_i x_i^(k+2))/((k+1)(k+2)) with D_i the
  slope jump at node i and f = A + B x on the last segment; J moments take
  sum_i min(J, 762/(-log x_i)) pows (2001 nodes, J = 20,952: about 0.1 s);
  its power-law form is the pole part of the same terms, and the form's gap
  bounds the node sum; ``cdf`` and ``ppf`` find each value's segment through
  a guide table (``_SegmentIndex``): a bucket read and bisection steps inside
  the bucket, one step on a uniform grid, at most ceil(log2 N) + 1 on any
  N-node table.

A sequence's tail is described once, by its ``PowerLawForm``
m_j ~ L (j+shift)^(-alpha) with a proven gap on its log-ratio to m_j; the
form closes every truncated sum downstream.  The edge behaviour
f(x) ~ c (1-x)^beta near x = 1 is derived from it: L = c Gamma(beta+1) and
alpha = beta + 1.  Moment sequences (from a distribution or the abstract
power family m_j = j^(-s)) are the universal input of the summation engines.

Objects are immutable after construction; sampling is ``ppf`` applied to
the caller's uniforms, so determinism is entirely in the caller's hands.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InvalidTail, TailUnavailable

__all__ = [
    "EdgeDistribution",
    "Uniform",
    "BetaEdge",
    "TabulatedDensity",
    "PowerMoments",
    "PowerLawForm",
    "MomentSequence",
    "moment_sequence",
    "load_tabulated_csv",
]

_MASS_TOL = 1e-10
_U = 2.0**-53  # the unit roundoff of round-to-nearest float64
# (beta+1)! = c Gamma(beta+1) is finite up to this beta, the range where
# BetaEdge has a power-law form; it uses its rational moments there
_INT_BETA_MAX = 169
# a power whose true value is below 2^-1100 rounds to 0 in any pow kernel
_LOG_UNDERFLOW = -1100.0 * math.log(2.0)
# a segment lookup's buckets per table segment: a grid of equal segments
# then has at most one interior edge in a bucket
_GUIDE_BUCKETS = 8


@dataclass(frozen=True)
class PowerLawForm:
    """m_j = L (j + shift)^(-alpha) e^(eps_j), with |eps_j| <= gap(J) for all j > J.

    gap is non-increasing in J, 0 for an exact power law, and inf where the
    form bounds nothing (shift or the other table segments still too large).
    """

    L: float
    alpha: float
    shift: float = 0.0
    gap: Callable[[float], float] = field(default=lambda J: 0.0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.L < math.inf):
            raise ValueError(f"tail constant L must be positive and finite, got {self.L}")
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"decay exponent alpha must be positive and finite, got {self.alpha}")


def _beta_gap(beta: float) -> Callable[[float], float]:
    """gap of m_j = Gamma(beta+2) Gamma(j+1)/Gamma(j+beta+2) to Gamma(beta+2) (j+b)^-(beta+1).

    With a = beta/2, b = a+1, w = j+b, kappa = alpha (alpha^2-1)/24, the step
    eps_{j+1} - eps_j = log1p(-a/w) - log1p(b/w) + alpha log1p(1/w) is
    -2 kappa/w^3 + r, |r| <= (a^4+b^4+alpha)/(4(1-b/w)) w^-4 (log1p Taylor
    remainders); as eps_j -> 0, summing the steps bounds |eps_j|, j > J.
    """
    alpha, a, b = beta + 1.0, beta / 2.0, beta / 2.0 + 1.0
    kappa = alpha * (alpha * alpha - 1.0) / 24.0
    c4 = (a**4 + b**4 + alpha) / 4.0
    return lambda J: kappa / (J + b) ** 2 + c4 / (3.0 * (1.0 - b / (J + 1.0 + b)) * (J + b) ** 3)


@lru_cache(maxsize=64)
def _beta_midpoint(beta: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(m_k for k < k0, c_3, c_5, ...): m_k = prod_{i<=k} i/(i+beta+1) rounded once below
    k0 = max(24, 3 beta), and past it log(Gamma(k+1)/Gamma(k+beta+2)) = -(beta+1) log w +
    sum_r c_r w^(1-r), w = k+beta/2+1 the midpoint of the arguments, c_r = -2 B_r(-beta/2)/
    (r(r-1)) for odd r >= 3 (DLMF 5.11.8; even r cancel), until a term is below 2^-64 at k0.
    c_3 is _beta_gap's kappa."""
    from fractions import Fraction

    k0, (p, q) = max(24, math.ceil(3.0 * beta)), beta.as_integer_ratio()
    num, den, table = 1, 1, [1.0]
    for i in range(1, k0):
        num, den = num * i * q, den * ((i + 1) * q + p)
        table.append(num / den)  # int / int rounds once
    bern, coeffs, x = [Fraction(1)], [], Fraction(-p, 2 * q)
    for r in range(1, 64):
        bern.append(-sum(math.comb(r + 1, j) * bern[j] for j in range(r)) / (r + 1))
        if r % 2 and r > 1:
            b_r = sum(math.comb(r, j) * bern[j] * x ** (r - j) for j in range(r + 1))
            coeffs.append(float(-2 * b_r / (r * (r - 1))))
            if abs(coeffs[-1]) * (k0 + beta / 2.0 + 1.0) ** (1 - r) < 2.0**-64:
                break
    return tuple(table), tuple(coeffs)  # immutable: the cache shares them


class EdgeDistribution:
    """Base class for distributions supported on [0, 1]."""

    family: str = "abstract"

    # -- density / CDF / inverse CDF, vectorized over numpy arrays ----------
    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def ppf(self, u):
        raise NotImplementedError

    # -- exact moments -------------------------------------------------------
    def moments(self, k) -> np.ndarray:
        """Vectorized m_k over an integer array k >= 1."""
        raise NotImplementedError

    def power_law_form(self) -> PowerLawForm | None:
        return None


@dataclass(frozen=True)
class Uniform(EdgeDistribution):
    """Uniform density on [0, 1]; m_k = 1/(k+1)."""

    family: str = field(default="uniform", init=False)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)

    def ppf(self, u):
        return np.asarray(u, dtype=np.float64)

    def moments(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        return 1.0 / (k + 1.0)

    def power_law_form(self) -> PowerLawForm:
        return PowerLawForm(L=1.0, alpha=1.0, shift=1.0)


@dataclass(frozen=True)
class BetaEdge(EdgeDistribution):
    """Density f(x) = c (1-x)^beta on [0, 1], beta >= 0.

    Mass 1 fixes c = beta + 1, so c is derived, never passed: the attribute
    holds beta + 1 exactly, and the power-law form has L = c Gamma(beta+1).
    Other beta take ``_beta_midpoint``, or raise DomainError if Gamma(beta+2) overflows.
    """

    beta: float
    c: float = field(init=False)
    family: str = field(default="beta-edge", init=False)

    def __post_init__(self) -> None:
        if not (self.beta >= 0.0):
            raise ValueError(f"edge exponent beta must be >= 0, got {self.beta}")
        object.__setattr__(self, "c", self.beta + 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, self.c * (1.0 - np.clip(x, 0.0, 1.0)) ** self.beta, 0.0)

    def cdf(self, x):
        x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        return 1.0 - (1.0 - x) ** (self.beta + 1.0)

    def ppf(self, u):
        # 1 - (1 - u)^(1/(beta+1)) in one fresh array; a 0-d u gives a scalar,
        # which has no buffer to write into
        x = 1.0 - np.asarray(u, dtype=np.float64)
        x **= 1.0 / (self.beta + 1.0)
        if x.ndim == 0:
            return 1.0 - x
        return np.subtract(1.0, x, out=x)

    def moments(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        n = self.beta + 1.0
        if n.is_integer() and n <= _INT_BETA_MAX + 1:
            # m_k = prod_{i=1}^{beta+1} i/(k+i), the factors taken in pairs:
            # (k+i)(k+i+1) is exact below k ~ 9e7, so a pair costs one
            # rounding, and every pair is <= 1, so the product cannot overflow.
            m = 1.0
            for i in range(1, int(n) + 1, 2):
                m = m * (i * (i + 1.0) / ((k + i) * (k + i + 1.0)) if i < n else i / (k + i))
            return m
        # m_k = Gamma(beta+2) w^(-beta)/w e^eps, w^(-beta) a square so it underflows no sooner
        # than m_k; the rounding of w = (k+1) + beta/2, exact by Fast2Sum, enters eps
        L, (table, coeffs) = self.power_law_form().L, _beta_midpoint(self.beta)
        k = np.atleast_1d(k)
        k1, a = np.maximum(k, len(table)) + 1.0, self.beta / 2.0
        w = k1 + a
        y = (1.0 / w) ** 2
        eps = coeffs[-1] * y
        for c in coeffs[-2::-1]:  # Horner's rule in y, in place
            eps += c
            eps *= y
        eps += (self.beta + 1.0) * (w - k1 - a) / w
        m = w**-a
        m *= m * L
        m *= np.exp(eps, out=eps) / w
        small = k < len(table)
        m[small] = np.take(table, k[small].astype(np.int64))
        return m

    def power_law_form(self) -> PowerLawForm:
        try:
            L = self.c * math.gamma(self.beta + 1.0)  # = Gamma(beta+2)
        except OverflowError:
            L = math.inf
        if not math.isfinite(L):
            raise DomainError(
                f"tail constant c Gamma(beta+1) overflows for c={self.c}, beta={self.beta}")
        return PowerLawForm(L=L, alpha=self.beta + 1.0, shift=self.beta / 2.0 + 1.0,
                            gap=_beta_gap(self.beta))


class _SegmentIndex:
    """clip(searchsorted(edges, v, side) - 1, 0, N - 2) for every float v, by a guide table.

    edges are N >= 2 non-decreasing floats from 0; the answer counts the
    interior edges edges[1:-1] at or below v (side "right") or below it
    ("left"), NaN above them all.  Bucket b(v) = floor(v scale), clipped to the
    _GUIDE_BUCKETS (N - 1) buckets and NaN to the top one, is monotone in v,
    so the interior edges in buckets below v's lie below v and those above it
    above: the count is the bucket's start plus the bucket's edges before v,
    found by ``steps`` = ceil(log2(largest bucket + 1)) bisection steps (Chen
    & Asau 1974; Devroye 1986, III.2.4).  Only values in buckets of two or more
    edges take the steps before the last.
    """

    def __init__(self, edges: np.ndarray, side: str) -> None:
        buckets = _GUIDE_BUCKETS * (edges.size - 1)
        self._edges, self._scale, self._top = edges, buckets / edges[-1], float(buckets - 1)
        self._past = np.less if side == "right" else np.less_equal  # an edge past v
        pops = np.bincount(self._bucket(edges[1:-1]), minlength=buckets)
        self._start = np.cumsum(pops) - pops  # interior edges in lower buckets
        self._crowded = pops > 1
        for a in (self._start, self._crowded):
            a.setflags(write=False)
        self.steps = max(1, int(pops.max()).bit_length())  # the last step: every value

    def _bucket(self, v: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
        with np.errstate(over="ignore"):  # past 1e308 / scale: inf, the top bucket
            e = np.multiply(v, self._scale, out=e)
        np.fmin(e, self._top, out=e)  # NaN, +inf and the last edge go to the top bucket
        np.fmax(e, 0.0, out=e)  # no NaN or infinity reaches the cast
        return e.astype(np.intp)

    def _lift(self, v: np.ndarray, idx: np.ndarray, ks: range, e: np.ndarray) -> None:
        # bisection steps of size 2^k, k in ks, on idx in place: a step moves idx
        # unless the interior edge it would pass, edges[idx + 2^k], lies past v
        hit = np.empty(v.shape, dtype=bool)
        for k in ks:
            idx += 1 << k
            self._edges.take(idx, out=e, mode="clip")
            self._past(v, e, out=hit)
            idx -= hit.astype(np.intp) << k if k else hit  # a masked subtract branches per value

    def __call__(self, v: np.ndarray) -> np.ndarray:
        # two arrays the size of v, the bucket's float and then the edges read
        # for v, and the index, written in place
        shape, v = v.shape, v.ravel()
        e = np.empty(v.shape)
        idx = self._bucket(v, e)
        many = np.flatnonzero(self._crowded.take(idx)) if self.steps > 1 else ()
        self._start.take(idx, out=idx, mode="clip")
        if len(many):  # the steps before the last, crowded buckets only
            part = idx[many]
            self._lift(v[many], part, range(self.steps - 1, 0, -1), np.empty(part.shape))
            idx[many] = part
        self._lift(v, idx, range(1), e)
        np.minimum(idx, self._edges.size - 2, out=idx)  # NaN, +inf: the last segment
        return idx.reshape(shape)


class TabulatedDensity(EdgeDistribution):
    """Piecewise-linear density from (x, f) pairs on a strictly increasing grid.

    x and f must be finite, the grid must cover [0, 1] (its ends are then set
    to 0 and 1) and the trapezoid mass must equal 1 within 1e-10 (pass
    normalize=True to rescale instead).  The last segment fixes the edge
    (c, beta): (f[-1], 0), or (f[-2]/(1 - x[-2]), 1) when f[-1] = 0.
    edge=(c, beta) is optional and only checked against it: a different value
    raises InvalidTail.
    """

    family = "tabulated"

    def __init__(
        self,
        x: Sequence[float],
        f: Sequence[float],
        edge: tuple[float, float] | None = None,
        normalize: bool = False,
    ) -> None:
        x = np.array(x, dtype=np.float64)
        f = np.asarray(f, dtype=np.float64)
        if x.ndim != 1 or x.shape != f.shape or x.size < 2:
            raise ValueError("need matching 1-D arrays with at least two nodes")
        if not (np.isfinite(x).all() and np.isfinite(f).all()):
            raise ValueError("grid x and density values f must be finite numbers")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("grid x must be strictly increasing")
        if abs(x[0]) > 1e-12 or abs(x[-1] - 1.0) > 1e-12:
            raise ValueError("grid must cover [0, 1]")
        x[0], x[-1] = 0.0, 1.0
        if np.any(f < 0.0):
            raise ValueError("density values must be nonnegative")
        mass = float(np.trapezoid(f, x))
        if normalize:
            if not (0.0 < mass < math.inf):
                raise ValueError(f"cannot normalize a table of mass {mass!r}")
            f = f / mass
            mass = 1.0
        if not abs(mass - 1.0) <= _MASS_TOL:
            raise ValueError(f"density mass {mass!r} differs from 1 by more than {_MASS_TOL}")
        self.x = x
        self.x.setflags(write=False)
        self.f = f
        self.f.setflags(write=False)
        self._edge = (float(edge[0]), float(edge[1])) if edge is not None else None
        if self._edge is not None and not (self._edge[0] > 0.0 and self._edge[1] >= 0.0):
            raise ValueError(f"edge data needs c > 0 and beta >= 0, got {self._edge}")
        # each segment's width, rise and line f = A + B x, and the cumulative
        # mass at the grid nodes (piecewise quadratic in between)
        self._width = x[1:] - x[:-1]
        self._rise = f[1:] - f[:-1]
        self._B = self._rise / self._width
        self._A = f[:-1] - self._B * x[:-1]
        seg = 0.5 * (f[1:] + f[:-1]) * self._width
        self._cum = np.concatenate([[0.0], np.cumsum(seg)])
        for a in (self._width, self._rise, self._B, self._A, self._cum):
            a.setflags(write=False)
        # the segment of an x (x[i] <= x < x[i+1]) and of a u (cum[i] < u <= cum[i+1])
        self._x_segment = _SegmentIndex(self.x, "right")
        self._u_segment = _SegmentIndex(self._cum, "left")

    def pdf(self, x):
        return np.interp(np.asarray(x, dtype=np.float64), self.x, self.f, left=0.0, right=0.0)

    def cdf(self, x):
        # cum[i] + (x - x[i]) (f[i] + 0.5 t (f[i+1] - f[i])), t = (x - x[i]) / (x[i+1] - x[i]),
        # each factor read from a per-segment table and every step written
        # into one of four arrays the size of x, after the segment lookup's
        # scratch array is freed (take with out= buffers a copy unless
        # mode="clip"; idx is in range already)
        x = np.asarray(x, dtype=np.float64)
        width, rise = self._width, self._rise
        xc = np.clip(np.atleast_1d(x), 0.0, 1.0)
        idx = self._x_segment(xc)
        dx = self.x.take(idx)
        np.subtract(xc, dx, out=dx)
        t = width.take(idx)
        np.divide(dx, t, out=t)
        t *= 0.5
        t *= rise.take(idx, out=xc, mode="clip")
        np.add(self.f.take(idx, out=xc, mode="clip"), t, out=t)
        t *= dx
        t += self._cum.take(idx, out=xc, mode="clip")
        return t[0] if x.ndim == 0 else t

    def ppf(self, u):
        # the segment from the guide table over cum: one bisection step a
        # value, ceil(log2(p + 1)) in a bucket of p >= 2 nodes, never past
        # ceil(log2 N) + 1; then the stable root of its quadratic CDF and one
        # Newton step.  u is clipped to [0, mass]: u <= 0 gives 0, u >= mass
        # gives 1 and NaN gives NaN.  Per-segment tables and out= keep the
        # temporaries to seven arrays the size of u
        u = np.asarray(u, dtype=np.float64)
        ua = np.clip(np.atleast_1d(u), 0.0, self._cum[-1])
        width, slope = self._width, self._B
        idx = self._u_segment(ua)
        r = self._cum.take(idx)
        np.subtract(ua, r, out=r)
        f0 = self.f.take(idx)
        s = slope.take(idx)
        # denom = f0 + sqrt(max(f0^2 + 2 slope r, 0))
        denom = np.multiply(f0, f0)
        x = np.multiply(2.0, s)
        x *= r
        denom += x
        np.sqrt(np.maximum(denom, 0.0, out=denom), out=denom)
        np.add(f0, denom, out=denom)
        with np.errstate(divide="ignore", invalid="ignore"):
            # x = x0 + clip(d, 0, width), d = 2 r / denom, or 0 where denom <= 0
            np.divide(np.multiply(2.0, r, out=x), denom, out=x)
            np.copyto(x, 0.0, where=denom <= 0.0)  # a NaN denom keeps its NaN
            np.clip(x, 0.0, width.take(idx, out=denom, mode="clip"), out=x)
            x0 = self.x.take(idx, out=r, mode="clip")
            np.add(x0, x, out=x)
            # dens = f0 + slope (x - x0)
            dens = np.subtract(x, x0, out=denom)
            dens *= s
            np.add(f0, dens, out=dens)
            del idx, r, x0, f0, s  # freed before cdf makes its own
            step = self.cdf(x)
            step -= ua
            step /= dens
            np.subtract(x, step, out=x, where=dens > 0.0)
        np.copyto(x, 1.0, where=ua >= self._cum[-1])
        return x.reshape(u.shape)

    def moments(self, k) -> np.ndarray:
        # By parts twice, f'' being the slope jumps D_i at the interior nodes:
        # m_k = f[-1]/(k+2) + (A + sum_i D_i x_i^(k+2))/((k+1)(k+2)), f = A + B x
        # on the last segment.  Node i takes a pow only for the sorted k before
        # (k+2) log x_i passes _LOG_UNDERFLOW; past every cut the sum is empty,
        # and the closed form's terms cannot cancel when f[-1] is small.
        k = np.atleast_1d(np.asarray(k, dtype=np.float64))
        x, jumps, top = self.x[1:-1], np.diff(self._B), self._A[-1]
        cuts = _LOG_UNDERFLOW / np.log(x)  # the k + 2 where x^(k+2) reaches 2^-1100
        live = (jumps != 0.0) & (cuts > k.min(initial=math.inf) + 2.0)
        if live.any():
            order = np.argsort(k, kind="stable")
            k2 = k[order] + 2.0
            top = np.full(k.shape, top)
            for xi, d, m in zip(x[live], jumps[live], np.searchsorted(k2, cuts[live])):
                top[:m] += d * xi ** k2[:m]
            top[order] = top.copy()
        return self.f[-1] / (k + 2.0) + top / ((k + 1.0) * (k + 2.0))

    def power_law_form(self) -> PowerLawForm:
        """The pole part P_j of the by-parts moments is the form; the gap bounds the node part N_j.

        P_j = A/(j+1) + B/(j+2), f = A + B x on the last segment: if f[-1] > 0, L/(j+shift)
        (1 + q_j), L = f[-1], shift = 1 + B/L, q_j = (AB/L^2)/((j+1)(j+2)); if f[-1] = 0,
        L (j+3/2)^-2/(1 - q_j), L = A, q_j = 1/(4 (j+3/2)^2).  |N_j| <= rho_j P_j with rho_j =
        D x[-2]^(j+2)/(f[-1] (j+1) + A), D = sum_i |D_i|.  q, rho fall with j: gap(J) is q/(1-q) +
        rho/(1-rho) at j = J+1, plus 8u (1 + alpha (|shift|+1)/(j+shift)) for the roundings of L
        (2: log L moves 2u) and shift (5, B's 3 in them: 5u alpha (|shift|+1)/(j+shift)).
        """
        x2, f2, f1 = float(self.x[-2]), float(self.f[-2]), float(self.f[-1])
        A, B = float(self._A[-1]), float(self._B[-1])
        if f1 > 0.0:
            L, alpha, shift, q0 = f1, 1.0, 1.0 + B / f1, abs(A / f1 * (B / f1))
        elif f2 > 0.0:
            L, alpha, shift, q0 = f2 / (1.0 - x2), 2.0, 1.5, 0.0
        else:
            raise TailUnavailable("the table's last segment is 0: its moments decay faster "
                                  "than any power law")
        if self._edge is not None:
            c, beta = self._edge
            if beta != alpha - 1.0 or not math.isclose(c, L, rel_tol=1e-9):
                raise InvalidTail(f"edge data (c, beta) = ({c:.6g}, {beta:.6g}) differs from "
                                  f"the last segment's ({L:.6g}, {alpha - 1.0:g})")
        D = float(np.sum(np.abs(np.diff(self._B))))

        def gap(J: float) -> float:
            j = J + 1.0
            q = q0 / ((j + 1.0) * (j + 2.0)) if f1 > 0.0 else 0.25 / (j + 1.5) ** 2
            node, pole = D * x2 ** (j + 2.0), f1 * (j + 1.0) + A  # each times (j+1)(j+2)
            if not (q < 1.0 and node < pole and j + shift > 0.0):
                return math.inf
            rho = node / pole
            return q / (1.0 - q) + rho / (1.0 - rho) + 8.0 * _U * (
                1.0 + alpha * (abs(shift) + 1.0) / (j + shift))

        return PowerLawForm(L=L, alpha=alpha, shift=shift, gap=gap)


@dataclass(frozen=True)
class PowerMoments:
    """Abstract moment sequence m_j = j^(-s); s = 1 is the Riemann case."""

    s: float

    def __post_init__(self) -> None:
        if not (0.0 < self.s < math.inf):
            raise ValueError(f"power moments need a finite s > 0, got {self.s}")

    def moments(self, j) -> np.ndarray:
        return np.asarray(j, dtype=np.float64) ** (-self.s)


class MomentSequence:
    """A decreasing sequence m_j in (0, 1] and the power-law form of its tail.

    ``evaluator`` maps an integer array j >= 1 to m_j.  ``power_law`` is the
    only description of the tail: the summation engines read alpha and L
    from it and close truncated sums through it, and raise TailUnavailable
    when it is None, as for raw user sequences.
    """

    def __init__(
        self,
        evaluator: Callable[[np.ndarray], np.ndarray],
        power_law: PowerLawForm | None,
        provenance: str = "abstract",
    ) -> None:
        self._evaluator = evaluator
        self.power_law = power_law
        self.provenance = provenance

    def moments(self, j) -> np.ndarray:
        j = np.asarray(j)
        return np.asarray(self._evaluator(j), dtype=np.float64)

    def moment(self, j: int) -> float:
        return float(self.moments(np.array([j]))[0])


def _spot_check(seq: MomentSequence, provenance: str) -> None:
    js = np.unique(np.round(np.geomspace(1, 1000, 40)).astype(np.int64))
    m = seq.moments(js)
    if not np.all((m > 0.0) & (m <= 1.0 + 1e-12)):  # NaN fails too
        raise InvalidTail(f"{provenance} moments must lie in (0, 1]")
    if np.any(np.diff(m) > 1e-15):
        raise InvalidTail(f"{provenance} moments are not monotonically decreasing")


def moment_sequence(source: EdgeDistribution | PowerMoments) -> MomentSequence:
    """MomentSequence from a distribution or the abstract power family.

    The abstract PowerMoments(s) form has m_j = j^(-s), an exact power law
    (L=1, alpha=s); PowerMoments(1.0) is the Riemann sequence.
    """
    if isinstance(source, PowerMoments):
        return MomentSequence(source.moments, PowerLawForm(L=1.0, alpha=source.s), "abstract")
    if isinstance(source, EdgeDistribution):
        seq = MomentSequence(source.moments, source.power_law_form(), "from-distribution")
        _spot_check(seq, source.family)
        return seq
    raise TypeError(f"cannot build a moment sequence from {type(source).__name__}")


def riemann_sequence() -> MomentSequence:
    """The sequence m_j = 1/j, whose moment zeta function is the Riemann series."""
    return moment_sequence(PowerMoments(1.0))


def load_tabulated_csv(path: str, *, normalize: bool = False) -> TabulatedDensity:
    """Load a density table from CSV with header ``x,f``; its edge comes from its last segment."""
    xs: list[float] = []
    fs: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["x", "f"]:
            raise ValueError(f"{path}: expected CSV header 'x,f'")
        for row in reader:
            if not row:
                continue
            try:
                xs.append(float(row[0]))
                fs.append(float(row[1]))
            except (IndexError, ValueError):
                raise ValueError(f"{path}, line {reader.line_num}: expected two numbers x,f, "
                                 f"got {','.join(row)!r}") from None
    return TabulatedDensity(xs, fs, normalize=normalize)
