"""Orbifold Riemann-Roch Hilbert series of polarized 3-folds with K = kA.

For a polarized 3-fold with K = kA (k <= 1) and isolated cyclic quotient
points Q, P(n) = h^0(nA) is, for n > max(k, 0),

    P(n) = A^3 n^3/6 - k A^3 n^2/4 + (k^2 A^3 + A.c2) n/12 + chi(O) + sum_Q c_Q(n),

with P(0) = 1, and P(1) = p_g = 1 - chi when k = 1 (Reid, Young person's
guide to canonical singularities, 1987; Buckley-Reid-Zhou, Ice cream and
orbifold Riemann-Roch, 2013).  c_Q is the periodic Kawasaki/Reid term of Q
less its value at 0, computed exactly by ``local_term``.  ``RRData`` holds k,
A^3, chi, A.c2 and one term per point; ``plurigenus`` gives P(n) and
``hilbert_series`` its generating function, bound also to the names
``hilbert_can3`` and ``hilbert_cy3`` that the CLI and the round trip call.  The
two kinds that the CLI reads are data:

* ``RRData.canonical3``: k = 1, a canonical 3-fold *assumed regular*
  (h^1(O) = h^2(O) = 0), so chi = 1 - p_g, with h points 1/2(1,1,1):
  K.c2 = -24 chi + (3/2) h, and one 2-periodic table scaled by h.  Per point,
  n/8 from K.c2 and the term ((-1)^n - 1)/16 make floor(n/2)/4.
* ``RRData.cy3``: k = 0 and chi = 0, with A.c2 given.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

from .series import HilbertSeries, LaurentPoly, Record, coefficient, exact_div, times_one_minus


class PeriodicTable(Record):
    """Periodic local contribution c(n) = values[n mod r], with c(0) = 0; a
    float value is refused."""
    _fields = ("r", "values")

    def __init__(self, r, values):
        r, values = operator.index(r), tuple(Fraction(coefficient(v)) for v in values)
        if r < 1:
            raise ValueError(f"order r must be positive, got {r}")
        if len(values) != r:
            raise ValueError(f"need exactly r = {r} values, got {len(values)}")
        if values[0] != 0:
            raise ValueError("c(0) must vanish")
        super().__init__(r, values)

    def at(self, n):
        return self.values[n % self.r]


class RRData(Record):
    """K = kA, A^3, chi(O), A.c2 and one periodic term per point; a float is
    refused.  Integral non-negative plurigenera are a check, not a
    construction-time constraint."""
    _fields = ("k", "acubed", "chi", "ac2", "points")

    def __init__(self, k, acubed, chi, ac2, points=()):
        acubed, chi, ac2 = (Fraction(coefficient(v)) for v in (acubed, chi, ac2))
        super().__init__(operator.index(k), acubed, chi, ac2, tuple(points))
        if k > 1:
            raise ValueError(f"K = {k}A: Riemann-Roch fixes every P(n) only for k <= 1")

    @classmethod
    def canonical3(cls, pg, kcubed, half_points=0):
        """A regular canonical 3-fold with p_g, K^3 > 0 (K is ample) and h points 1/2(1,1,1)."""
        for key, value in (("pg", pg), ("half_points", half_points)):
            if value < 0:
                raise ValueError(f"{key} must be >= 0, got {value}")
        chi, half = 1 - pg, local_term(2, (1, 1, 1))
        return cls(1, positive("K3", kcubed), chi, -24 * chi + Fraction(3 * half_points, 2),
                   (PeriodicTable(2, [half_points * c for c in half.values]),))

    @classmethod
    def cy3(cls, acubed, ac2, points=()):
        """A polarized Calabi-Yau 3-fold with A^3, A.c2 and periodic point terms."""
        return cls(0, positive("A3", acubed), 0, ac2, points)


def positive(name, value):
    """``value`` as a Fraction, named in a ValueError unless positive: A^3 of an ample A."""
    value = Fraction(coefficient(value))
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def plurigenus(data, n):
    """P(n): 1 at n = 0, p_g = 1 - chi at n = 1 when k = 1, else the formula."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1 == data.k:
        return 1 - data.chi
    k = data.k
    return (exact_div(data.acubed * n * (2 * n - k) * (n - k) + data.ac2 * n, 12)
            + data.chi + sum(table.at(n) for table in data.points))


def hilbert_series(data):
    """The generating function of ``plurigenus``: P(0..top) times prod (1 - t^a)
    over D = (1, 1, 1, 1) and each table's r, cut at top = sum(D) + 1, over D and canonical.

    For n > max(k, 0), P(n) is a cubic in n plus r-periodic tables with
    c(0) = 0, and over D each has a numerator of degree <= sum(D) - 1 (<= 3
    over (1 - t)^4, <= r - 1 over (1 - t^r)).  P(0) and P(1) differ from that
    form by a polynomial of degree <= max(k, 0) <= 1, so the numerator has
    degree <= top, and its coefficient of t^e reads only P(0..e).
    """
    denominator = (1, 1, 1, 1, *(table.r for table in data.points))
    top = sum(denominator) + 1
    coeffs = [plurigenus(data, n) for n in range(top + 1)]
    for a in denominator:
        times_one_minus(coeffs, a)
    return HilbertSeries(LaurentPoly(enumerate(coeffs)), denominator).canonical()


hilbert_can3 = hilbert_cy3 = hilbert_series


def local_term(r, weights):
    """The periodic term of an isolated cyclic point 1/r(a_1,...,a_n), less its value at 0.

    c(m) = (1/r) sum over r-th roots eps != 1 of eps^-m / prod(1 - eps^a_i),
    computed in Q[x]/(x^r - 1): modulo the norm N = sum_j x^j, (1 - x)^-1 is
    sum_j (-j/r) x^j and (1 - x^a)^-1 is (1 + x^a + ... + x^(a(a'-1))) (1 - x)^-1
    with a' = a^-1 mod r.  Their product g gives c(m) = g_m - (sum g)/r, and
    the table holds c(m) - c(0) = (g_m - g_0)/r^n.  A point that is not
    isolated is refused.
    """
    if r < 1 or any(gcd(a, r) != 1 for a in weights):
        raise ValueError(f"1/{r}({','.join(map(str, weights))}) is not an isolated cyclic point")
    g = [1] + [0] * (r - 1)             # r^k times the product of k factors
    for a in weights:
        factor = [0] * r                # r (1 - x^a)^-1; factor[m - i] wraps below 0
        for k in range(pow(a, -1, r)):
            for j in range(1, r):
                factor[(a * k + j) % r] -= j
        g = [sum(g[i] * factor[m - i] for i in range(r)) for m in range(r)]
    return PeriodicTable(r, [Fraction(v - g[0], r ** len(weights)) for v in g])
