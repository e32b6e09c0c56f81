"""Orbifold Riemann-Roch Hilbert series for polarized 3-folds.

Two flavours: plurigenera of regular canonical 3-folds whose basket consists
of 1/2(1,1,1) points, and Hilbert series of polarized Calabi-Yau 3-folds whose
local contributions are periodic tables, supplied or computed exactly by
``local_term`` for any isolated cyclic point (Reid, Young person's guide to
canonical singularities, 1987; Buckley-Reid-Zhou, Ice cream and orbifold
Riemann-Roch, 2013).

The per-point 1/2(1,1,1) contribution is floor(n/2)/4 with generating function
(1/4) t^2 / ((1-t)(1-t^2)); the closed form carries the number of such points
as a multiplicity factor, which is what reproduces the plurigenus values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .series import HilbertSeries, LaurentPoly, exact_div


@dataclass(frozen=True)
class Canonical3Data:
    """Regular canonical 3-fold: geometric genus, K^3, and the number of
    1/2(1,1,1) points.  Validity (integral non-negative plurigenera) is a
    check, not a construction-time constraint."""
    pg: int
    kcubed: Fraction
    half_points: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kcubed", Fraction(self.kcubed))
        if self.pg < 0 or self.half_points < 0:
            raise ValueError("pg and the point count must be non-negative")


@dataclass(frozen=True)
class PeriodicTable:
    """Periodic local contribution c(n) = values[n mod r], with c(0) = 0."""
    r: int
    values: tuple

    def __post_init__(self):
        values = tuple(Fraction(v) for v in self.values)
        if self.r < 1:
            raise ValueError(f"order r must be positive, got {self.r}")
        if len(values) != self.r:
            raise ValueError(f"need exactly r = {self.r} values, got {len(values)}")
        if values[0] != 0:
            raise ValueError("c(0) must vanish")
        object.__setattr__(self, "values", values)

    def at(self, n):
        return self.values[n % self.r]

    def series(self):
        """(sum_k c(k) t^k) / (1 - t^r)."""
        return HilbertSeries(LaurentPoly(dict(enumerate(self.values))), (self.r,))


@dataclass(frozen=True)
class CY3Data:
    """Polarized Calabi-Yau 3-fold: A^3, A.c2 and periodic point contributions."""
    acubed: Fraction
    ac2: Fraction
    points: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "acubed", Fraction(self.acubed))
        object.__setattr__(self, "ac2", Fraction(self.ac2))
        object.__setattr__(self, "points", tuple(self.points))
        if self.acubed <= 0:
            raise ValueError("A^3 must be positive")


def plurigenus_can3(data, n):
    """1, pg, then n(n-1)(2n-1)/12 K^3 + (2n-1)(pg-1) + points*floor(n/2)/4."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(data.pg)
    local = data.half_points * Fraction(n // 2, 4)
    return (Fraction(n * (n - 1) * (2 * n - 1), 12) * data.kcubed
            + (2 * n - 1) * (data.pg - 1) + local)


def hilbert_can3(data):
    """Closed form whose expansion is plurigenus_can3 at every n."""
    one = HilbertSeries(LaurentPoly.one())
    t = HilbertSeries(LaurentPoly({1: 1}))
    genus_term = HilbertSeries(LaurentPoly({1: 1, 2: 1}), (1, 1)).scale(data.pg - 1)
    k_term = HilbertSeries(LaurentPoly({2: 1, 3: 1}), (1, 1, 1, 1)).scale(
        exact_div(data.kcubed, 2))
    half_term = HilbertSeries(LaurentPoly({2: 1}), (1, 2)).scale(
        Fraction(data.half_points, 4))
    return (one + t + genus_term + k_term + half_term).canonical()


def plurigenus_cy3(data, n):
    """(A^3/6) n^3 + (A.c2/12) n + periodic contributions; p_0 = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    total = exact_div(data.acubed, 6) * n ** 3 + exact_div(data.ac2, 12) * n
    for table in data.points:
        total += table.at(n)
    return total


def hilbert_cy3(data):
    """Closed form whose expansion is plurigenus_cy3 at every n."""
    one = HilbertSeries(LaurentPoly.one())
    cubic = HilbertSeries(LaurentPoly({1: 1, 2: 4, 3: 1}), (1, 1, 1, 1)).scale(
        exact_div(data.acubed, 6))
    linear = HilbertSeries(LaurentPoly({1: 1}), (1, 1)).scale(exact_div(data.ac2, 12))
    total = one + cubic + linear
    for table in data.points:
        total = total + table.series()
    return total.canonical()


def local_term(r, weights):
    """The periodic term of an isolated cyclic point 1/r(a_1,...,a_n).

    c(m) = (1/r) sum over r-th roots eps != 1 of eps^-m / prod(1 - eps^a_i),
    computed in Q[x]/(x^r - 1): modulo the norm N = sum_j x^j, (1 - x)^-1 is
    sum_j (-j/r) x^j and (1 - x^a)^-1 is (1 + x^a + ... + x^(a(a'-1))) (1 - x)^-1
    with a' = a^-1 mod r.  Their product g gives c(m) = g_m - (sum g)/r.
    A point that is not isolated, or whose term does not vanish at 0, is refused.
    """
    point = f"1/{r}({','.join(map(str, weights))})"
    if r < 1 or any(gcd(a, r) != 1 for a in weights):
        raise ValueError(f"{point} is not an isolated cyclic point")
    g = [1] + [0] * (r - 1)             # r^k times the product of k factors
    for a in weights:
        factor = [0] * r                # r (1 - x^a)^-1; factor[m - i] wraps below 0
        for k in range(pow(a, -1, r)):
            for j in range(1, r):
                factor[(a * k + j) % r] -= j
        g = [sum(g[i] * factor[m - i] for i in range(r)) for m in range(r)]
    total = sum(g)
    values = [Fraction(r * v - total, r ** (len(weights) + 1)) for v in g]
    if values[0] != 0:
        raise ValueError(f"{point} has local term {values[0]} at 0, not 0")
    return PeriodicTable(r, values)
