"""Orbifold Riemann-Roch Hilbert series for polarized 3-folds.

Two flavours: plurigenera of regular canonical 3-folds whose basket consists
of 1/2(1,1,1) points, and Hilbert series of polarized Calabi-Yau 3-folds whose
local contributions are supplied as periodic tables.

The per-point 1/2(1,1,1) contribution is floor(n/2)/4 with generating function
(1/4) t^2 / ((1-t)(1-t^2)); the closed form carries the number of such points
as a multiplicity factor, which is what reproduces the plurigenus values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
        if self.r < 1 or len(values) != self.r:
            raise ValueError("need exactly r values")
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


# Named contribution tables used by the worked 3-fold examples: the pair of
# 1/3 points whose contributions cancel for every n, and the 1/5(3,3,4) point.
THIRD_PAIR_ZERO = PeriodicTable(3, (0, 0, 0))
FIFTH_334 = PeriodicTable(5, (0, 0, Fraction(-1, 5), Fraction(1, 5), 0))


def table_for_basket(entries):
    """Periodic tables for a basket made of the built-in point types.

    Supported: the pair {1/3(1,1,1), 1/3(2,2,2)} (combined zero table) and
    1/5(3,3,4).  Anything else raises, since general local contributions are
    supplied by the caller, not computed here.
    """
    remaining = sorted(entries)
    tables = []
    thirds = [e for e in remaining if e == (3, (1, 1, 1)) or e == (3, (2, 2, 2))]
    if thirds:
        if sorted(thirds) != [(3, (1, 1, 1)), (3, (2, 2, 2))]:
            raise ValueError(f"no built-in table for unpaired 1/3 points: {thirds}")
        tables.append(THIRD_PAIR_ZERO)
        remaining = [e for e in remaining if e not in thirds]
    for entry in remaining:
        if entry == (5, (3, 3, 4)):
            tables.append(FIFTH_334)
        else:
            raise ValueError(f"no built-in periodic table for 1/{entry[0]}{entry[1]}")
    return tuple(tables)
