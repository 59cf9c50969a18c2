"""Independent extended-precision references for the benchmark's sum rows.

Nothing here calls into momzeta: every value is computed from the defining
formulas with mpmath at ``DPS`` significant digits.

A(n; kmin) = sum_j f(m_j) with f(m) = (1 - m)^n - 1 (+ n m when kmin = 2) is
split at an index J chosen so that n m_{J+1} is at most 4 (power laws) or 1/2.  The head j <= J is
summed term by term.  Past J the binomial expansion of f is finite and its
terms shrink like (n m)^k / k!, so the tail is closed exactly:

* power-law families, m_j = L (j + shift)^(-alpha):
  tail = sum_k (-1)^k C(n,k) L^k zeta(alpha k, J + 1 + shift);
* densities, whose moments past some j0 are a sum of simple poles
  m_j = sum_i w_i / (j + i): each m_j^k is expanded in powers of
  1/(j + c) around the mean pole c, and each power is summed by a Hurwitz
  zeta value.

The same split gives Z(s) = sum_j m_j^s for integer s and the sum-integral
defect through D_n - 1/2 = 1/2 + n - n gamma - n H_n + A_riemann(n; 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import mpmath

DPS = 40
# tail terms below this share of the running total are dropped
_NEGLIGIBLE = mpmath.mpf(10) ** -(DPS + 5)
# n m_{J+1} <= split keeps the tail expansion's terms (n m)^k / k! small: the
# power-law tail costs one zeta value per k, so it can start earlier (fewer
# head terms); the density tail's cost grows with the number of k
_POWER_SPLIT = 4.0
_SPLIT = 0.5
_MIN_J = 20
# Euler-Maclaurin corrections used by hurwitz_zeta
_EM_TERMS = 30


def hurwitz_zeta(s, a):
    """zeta(s, a) = sum_{j>=0} (a + j)^(-s) for s > 1, a > 0, to full precision.

    mpmath.zeta(s, a) at integer a subtracts a partial sum from zeta(s) and
    loses about s log10(a) digits, so it is not used: the terms below b are
    summed directly and the rest closed by Euler-Maclaurin at b >= s + 60,
    where successive corrections shrink by ((s + 2i) / (2 pi b))^2 < 1/30.
    """
    with mpmath.workdps(mpmath.mp.dps + 10):
        s = mpmath.mpf(s)
        a = mpmath.mpf(a)
        steps = max(0, math.ceil(float(s) + 60 - float(a)))
        head = mpmath.fsum((a + j) ** -s for j in range(steps))
        b = a + steps
        total = b ** (1 - s) / (s - 1) + b ** -s / 2
        rising = s  # (s)_{2i-1}
        power = b ** (-s - 1)
        for i in range(1, _EM_TERMS + 1):
            total += mpmath.bernoulli(2 * i) / mpmath.factorial(2 * i) * rising * power
            rising *= (s + 2 * i - 1) * (s + 2 * i)
            power /= b * b
        return head + total


@dataclass(frozen=True)
class PowerLaw:
    """m_j = L (j + shift)^(-alpha) for every j >= 1."""

    L: float
    alpha: float
    shift: float = 0.0

    def moment(self, j: int):
        return mpmath.mpf(self.L) * mpmath.power(j + mpmath.mpf(self.shift), -mpmath.mpf(self.alpha))

    def head_end(self, n: int) -> int:
        j = math.ceil((n * self.L / _POWER_SPLIT) ** (1.0 / self.alpha) - self.shift)
        return max(j, _MIN_J)

    def tail_powers(self, k: int, start: int):
        """sum_{j >= start} m_j^k."""
        return mpmath.mpf(self.L) ** k * hurwitz_zeta(mpmath.mpf(self.alpha) * k,
                                                      start + mpmath.mpf(self.shift))


class PoleDensity:
    """Moments of a density whose tail m_j (j > j0) is sum_i w_i / (j + i).

    ``moment_fn`` gives the exact m_j for any j >= 1; ``poles`` lists
    (i, w_i); ``valuation`` is the order of the first nonzero term of m_j in
    powers of 1/j (the decay exponent alpha); ``L`` its coefficient.
    """

    # powers (n m)^k / k! with n m <= 1/2 fall below 1e-50 by k = 40
    _K_MAX = 40

    def __init__(self, moment_fn, poles, valuation: int, L: float, j0: int = 0) -> None:
        self._moment_fn = moment_fn
        self.poles = [(int(i), mpmath.mpf(w)) for i, w in poles]
        self.valuation = valuation
        self.L = L
        self.j0 = j0
        self._cache: dict[int, object] = {}
        self.center = mpmath.mpf(sum(i for i, _ in self.poles)) / len(self.poles)
        self.radius = max(abs(self.center - i) for i, _ in self.poles)

    def moment(self, j: int):
        m = self._cache.get(j)
        if m is None:
            m = self._cache[j] = self._moment_fn(j)
        return m

    def head_end(self, n: int) -> int:
        j = max(_MIN_J, self.j0, math.ceil((n * self.L / _SPLIT) ** (1.0 / self.valuation)))
        while n * self.moment(j + 1) > _SPLIT:
            j *= 2
        return j

    @cached_property
    def _orders(self) -> int:
        # expansion in z = 1/(j + c) converges like (radius z)^t; z <= 1/(_MIN_J + 1 + c)
        ratio = self.radius / (_MIN_J + 1 + self.center)
        extra = 0 if ratio == 0 else math.ceil((DPS + 10) / -math.log10(ratio))
        return self.valuation * self._K_MAX + extra + 2

    @cached_property
    def _power_series(self) -> list[list]:
        """[z^s] M(z)^k for k = 0.._K_MAX, where m_j = M(1/(j + c))."""
        orders = self._orders
        with mpmath.workdps(DPS + 10):
            base = [mpmath.mpf(0)] * (orders + 1)
            for t in range(orders):
                base[t + 1] = mpmath.fsum(w * (self.center - i) ** t for i, w in self.poles)
            # exact cancellation of the leading orders, which rounding would spoil
            for t in range(1, self.valuation):
                base[t] = mpmath.mpf(0)
            series = [[mpmath.mpf(1)] + [mpmath.mpf(0)] * orders]
            for _ in range(self._K_MAX):
                prev = series[-1]
                nxt = [mpmath.mpf(0)] * (orders + 1)
                for a, pa in enumerate(prev):
                    if pa == 0:
                        continue
                    for t in range(self.valuation, orders + 1 - a):
                        nxt[a + t] += pa * base[t]
                series.append(nxt)
        return series

    def tail_combination(self, weights: dict[int, object], start: int):
        """sum_{j >= start} sum_k weights[k] m_j^k, for k >= 1."""
        if start - 1 < max(self.j0, _MIN_J):
            raise ValueError("tail expansion needs start > max(j0, 20)")
        series = self._power_series
        orders = self._orders
        total = mpmath.mpf(0)
        a = start + self.center
        for s in range(1, orders + 1):
            coef = mpmath.fsum(w * series[k][s] for k, w in weights.items())
            if coef == 0:
                continue
            if s == 1:
                raise ValueError("first-order tail term diverges")
            # zeta(s, a) <= a^-s + a^(1-s)/(s-1): skip terms that cannot matter
            if abs(coef) * (a ** -s + a ** (1 - s) / (s - 1)) < _NEGLIGIBLE:
                continue
            total += coef * hurwitz_zeta(s, a)
        return total

    def tail_powers(self, k: int, start: int):
        return self.tail_combination({k: mpmath.mpf(1)}, start)


def uniform_density() -> PoleDensity:
    return PoleDensity(lambda j: mpmath.mpf(1) / (j + 1), [(1, 1)], valuation=1, L=1.0)


def beta_edge(beta: int) -> PoleDensity:
    """f(x) = (beta+1)(1-x)^beta: m_j = (beta+1)! / ((j+1)...(j+beta+1))."""
    fact = math.factorial(beta + 1)

    def moment(j: int):
        den = mpmath.mpf(1)
        for i in range(1, beta + 2):
            den *= j + i
        return fact / den

    poles = [(i, (beta + 1) * math.comb(beta, i - 1) * (-1) ** (i - 1)) for i in range(1, beta + 2)]
    return PoleDensity(moment, poles, valuation=beta + 1, L=float(fact))


def tabulated(x, f) -> PoleDensity:
    """Piecewise-linear density through (x_i, f_i) with x_0 = 0 and x_N = 1.

    On [x_{N-1}, 1] the density is A + B x, so past the index where the
    geometric terms x_{N-1}^j drop below 1e-(DPS+10) the moments are
    A/(j+1) + B/(j+2).  With f_N = 0 the tail decays like j^-2 (beta = 1).
    """
    xs = [mpmath.mpf(v) for v in x]
    fs = [mpmath.mpf(v) for v in f]
    segs = []
    for i in range(len(xs) - 1):
        slope = (fs[i + 1] - fs[i]) / (xs[i + 1] - xs[i])
        segs.append((xs[i], xs[i + 1], fs[i] - slope * xs[i], slope))
    # table[j] = m_j; powers[i] = x_i^(j+1) for the last tabulated j
    # (the first entry is a placeholder: moments start at j = 1)
    table = [None]
    powers = list(xs)

    def moment(j: int):
        while len(table) <= j:
            k = len(table)
            lo = [p * v for p, v in zip(powers, xs)]
            hi = [p * v for p, v in zip(lo, xs)]
            table.append(mpmath.fsum(
                A * (lo[i + 1] - lo[i]) / (k + 1) + B * (hi[i + 1] - hi[i]) / (k + 2)
                for i, (_, _, A, B) in enumerate(segs)
            ))
            powers[:] = lo
        return table[j]

    _, _, A, B = segs[-1]
    x_last = float(x[-2])
    j0 = 0 if x_last == 0.0 else math.ceil((DPS + 10) * math.log(10) / -math.log(x_last))
    if fs[-1] == 0:
        valuation, L = 2, float(-B)
    else:
        valuation, L = 1, float(fs[-1])
    return PoleDensity(moment, [(1, A), (2, B)], valuation=valuation, L=L, j0=j0)


def alt_sum(seq, n: int, kmin: int):
    """A(n; kmin) for a PowerLaw or PoleDensity sequence."""
    with mpmath.workdps(DPS):
        J = seq.head_end(n)
        head = mpmath.fsum(_moment_space_term(seq.moment(j), n, kmin) for j in range(1, J + 1))
        if isinstance(seq, PowerLaw):
            tail = mpmath.mpf(0)
            c = mpmath.mpf(math.comb(n, kmin))
            for k in range(kmin, n + 1):
                term = c * seq.tail_powers(k, J + 1)
                tail += -term if k % 2 else term
                if abs(term) < _NEGLIGIBLE * (1 + abs(head)):
                    break
                c = c * (n - k) / (k + 1)
        else:
            weights = {}
            for k in range(kmin, min(n, PoleDensity._K_MAX) + 1):
                weights[k] = (-1) ** k * mpmath.mpf(math.comb(n, k))
            tail = seq.tail_combination(weights, J + 1)
        return head + tail


def _moment_space_term(m, n: int, kmin: int):
    t = (1 - m) ** n - 1
    return t + n * m if kmin == 2 else t


def zeta_value(seq, s: int):
    """Z(s) = sum_{j>=1} m_j^s for integer s >= 1 (convergent cases only)."""
    with mpmath.workdps(DPS):
        J = max(_MIN_J, getattr(seq, "j0", 0))
        head = mpmath.fsum(seq.moment(j) ** s for j in range(1, J + 1))
        return head + seq.tail_powers(s, J + 1)


def defect_deviation(n: int):
    """D_n - 1/2 = 1/2 + n - n gamma - n H_n + A(n; 2) of the Riemann sequence m_j = 1/j."""
    with mpmath.workdps(DPS):
        a2 = alt_sum(PowerLaw(1.0, 1.0), n, 2)
        return mpmath.mpf(1) / 2 + n - n * mpmath.euler - n * mpmath.harmonic(n) + a2
