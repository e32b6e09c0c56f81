"""Weighted Gr(2,5): weights, Pfaffian equations, Hilbert data, charts, and
the ``WeightFamily`` contract that both weighted families implement.

The ambient family lives in the 10 coordinates x_ij (i<j) of a generic 5x5
skew matrix and is cut out by its five 4x4 Pfaffians.  Weight data is five
half-integers (stored doubled) plus an overall weight that is absorbed into
the half-integers on construction, so the internal normal form always has
overall weight zero.  ``GrWeights`` states the coordinates, the Pfaffians'
degrees, the top exponent 2d and the charts; the resolution's degree banks,
the Hilbert numerator, the degree, K and well-formedness come from
``WeightFamily``.
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import lazy_module
from .series import HilbertSeries, LaurentPoly, Record, coefficient, exact_div

polynomials = lazy_module("wgk.polynomials")    # read only by the symbolic equations

PAIRS = tuple((i, j) for i in range(1, 6) for j in range(i + 1, 6))


def pair_name(i, j):
    return f"x{min(i, j)}{max(i, j)}"


PAIR_NAMES = tuple(pair_name(i, j) for i, j in PAIRS)
BANK_NAMES = ("relations", "first_syzygies", "second_syzygies", "third_syzygies")


def doubled(x):
    """2x as an int for a half-integer x given as a number or a string such as "3/2"."""
    v = Fraction(x) * 2
    if v.denominator != 1:
        raise ValueError(f"{x} is not a half-integer")
    return int(v)


def overall_weight(u2):
    """The overall weight u, an integer, from its doubled value u2."""
    u2 = operator.index(u2)
    if u2 % 2:
        raise ValueError("overall weight must be an integer (doubled value even)")
    return u2 // 2


def skew_entry(i, j):
    """x_ij as a signed variable of the generic skew matrix (x_ji = -x_ij)."""
    if i == j:
        return polynomials.MPoly()
    v = polynomials.MPoly.var(pair_name(i, j))
    return v if i < j else -v


@lru_cache(maxsize=1)
def pfaffian_equations():
    """The five 4x4 Pfaffians Pf_1..Pf_5 of the generic 5x5 skew matrix.

    Pf_k omits index k; signs alternate so that the vector (Pf_1,..,Pf_5)
    satisfies M * Pf(M) = 0 identically.  Pf_5 = x12*x34 - x13*x24 + x14*x23.
    """
    pfs = []
    for k in range(1, 6):
        a, b, c, d = [i for i in range(1, 6) if i != k]
        core = (skew_entry(a, b) * skew_entry(c, d)
                - skew_entry(a, c) * skew_entry(b, d)
                + skew_entry(a, d) * skew_entry(b, c))
        pfs.append(core if k % 2 == 1 else -core)
    return tuple(pfs)


def skew_times(column):
    """M * column for the generic skew matrix M = (x_ij), as five polynomials."""
    zero = polynomials.MPoly()
    return [sum((skew_entry(i, j) * c for j, c in enumerate(column, start=1)), zero)
            for i in range(1, 6)]


def skew_values(matrix):
    """A rational skew matrix given as {(i,j): value}, i<j, as {x_ij: value}, an
    absent entry 0.  ValueError names a key off the upper triangle; a float is
    refused."""
    for key in matrix:
        if key not in PAIRS:
            raise ValueError(f"skew-matrix key {key!r} is not a pair (i, j), 1 <= i < j <= 5")
    return {pair_name(i, j): coefficient(matrix.get((i, j), 0)) for i, j in PAIRS}


def pfaffians_at(matrix):
    """Evaluate Pf_1..Pf_5 at a rational skew matrix read by ``skew_values``."""
    assign = skew_values(matrix)
    return [p.evaluate(assign) for p in pfaffian_equations()]


class Chart(Record):
    """Affine orbifold chart: label, cyclic group order, raw local weights.

    ``order`` equals the ambient weight of the labelling coordinate; the raw
    integer local weights are reduced mod ``order`` only at analysis time.
    """
    _fields = ("label", "order", "local_weights")


class WeightFamily(Record):
    """A weighted family after Corti-Reid.  A family states ``family``, ``dim``,
    ``codim``, ``coordinates()`` as (name, weight) pairs, ``equations()``,
    ``charts()`` and the static ``banks_of(*fields)``: from its field values,
    the top exponent and the lists of degrees of banks 1..k of its Gorenstein
    resolution of codimension c = 2k + 1, in any order, so that the model
    index reads them without building the weights.  The members below are
    derived once, ``info_fields`` as a default: the resolution is self-dual, so
    bank c - i is top - e over bank i and bank c is (top,); the Hilbert
    numerator is the alternating sum over the banks, the degree is read off the
    Hilbert series, and Gorenstein symmetry gives K = O(top - sum of weights)."""

    def top_exponent(self):
        return self.banks_of(*vars(self).values())[0]    # Record keeps the fields in order

    def lower_banks(self):
        """Banks 1..k of the resolution, each sorted: the first half below the top."""
        *banks, _ = self.resolution_degrees().values()
        return tuple(banks[:len(banks) // 2])

    def coordinate_weights(self):
        return tuple(sorted(w for _, w in self.coordinates()))

    def resolution_degrees(self):
        """{bank name: sorted degrees} in resolution order, the top last."""
        top, banks = self.banks_of(*vars(self).values())
        lower = [tuple(sorted(bank)) for bank in banks]
        upper = [tuple([top - e for e in reversed(bank)]) for bank in reversed(lower)]
        return {**dict(zip(BANK_NAMES, lower + upper)), "top": (top,)}

    def info_fields(self):
        """``wgk info``'s resolution fields and their text lines; by default every
        bank, and a line for each lower bank, whose duals are the others."""
        return ({"resolution_degrees": {k: list(v) for k, v in self.resolution_degrees().items()}},
                [f"{label} degrees: {list(bank)}"
                 for label, bank in zip(("relation", "first syzygy"), self.lower_banks())])

    def numerator_terms(self):
        """1 - t^(relations) + t^(first syzygies) - ... as {exponent: nonzero integer},
        none negative: positive coordinate weights put each bank in (0, top)."""
        num, sign = {0: 1}, -1
        for bank in self.resolution_degrees().values():
            for e in bank:
                num[e] = num.get(e, 0) + sign
            sign = -sign
        return {e: c for e, c in num.items() if c}

    def hilbert_series(self):
        """Closed form: ``numerator_terms`` / prod(1-t^a) over the coordinate weights."""
        return HilbertSeries(LaurentPoly(self.numerator_terms()), self.coordinate_weights())

    def degree(self):
        """The degree A^dim of the ample generator, read off the Hilbert series."""
        return self.hilbert_series().intersection_number(self.dim)

    def canonical_degree(self):
        """K = O(top exponent - sum of the coordinate weights)."""
        return self.top_exponent() - sum(w for _, w in self.coordinates())

    def is_well_formed(self):
        """Chart-gcd criterion: effective action and no quasi-reflections.

        Returns (flag, witness); the witness names the failing chart and gcd.
        """
        for ch in self.charts():
            r = ch.order
            if r == 1:
                continue
            g = gcd(r, *ch.local_weights)
            if g != 1:
                return False, f"chart {ch.label}: gcd(order {r}, local weights) = {g}"
            for k in range(len(ch.local_weights)):
                g = gcd(r, *ch.local_weights[:k], *ch.local_weights[k + 1:])
                if g != 1:
                    return False, (f"chart {ch.label}: omitting local weight "
                                   f"{ch.local_weights[k]} leaves gcd {g} (quasi-reflection)")
        return True, None


def sorted_w2(w2):
    """Five doubled weights as a sorted tuple of ints, all of one parity."""
    w2 = tuple(sorted(map(operator.index, w2)))
    if len(w2) != 5:
        raise ValueError("need exactly five weights")
    if (w2[0] ^ w2[1] | w2[0] ^ w2[2] | w2[0] ^ w2[3] | w2[0] ^ w2[4]) & 1:    # low bits differ
        raise ValueError("doubled weights must share one parity")
    return w2


class GrWeights(WeightFamily):
    """Weight data (w_1..w_5; u) in the normal form u = 0, w half-integers.

    ``w2`` holds the doubled weights, canonically sorted.  All five doubled
    weights share one parity and every pairwise sum is positive.
    """

    _fields = ("w2",)
    family = "wgr25"
    dim, codim = 6, 3

    def __init__(self, w2):
        w2 = sorted_w2(w2)
        if w2[0] + w2[1] <= 0:
            raise ValueError("every pairwise weight sum must be positive")
        super().__init__(w2)

    @classmethod
    def of(cls, w2, u2=0):
        """Build from doubled weights and doubled overall weight, absorbing u."""
        u = overall_weight(u2)
        return cls(tuple(v + u for v in w2))

    # -- basic numerology ----------------------------------------------------

    def coordinates(self):
        """The ten Pluecker coordinates x_ij with their weights w_i + w_j."""
        return list(zip(PAIR_NAMES, [(self.w2[i - 1] + self.w2[j - 1]) // 2
                                     for i, j in PAIRS]))

    plucker_weights = WeightFamily.coordinate_weights    # the multiset {w_i + w_j}

    def equations(self):
        return list(pfaffian_equations())

    @staticmethod
    def banks_of(w2):
        """The numerator ends in -t^{2d}; Pf_i has degree d - w_i, its dual d + w_i."""
        d2 = sum(w2)
        return d2, ([(d2 - v) // 2 for v in w2],)

    def info_fields(self):
        """The Pfaffian degrees d - w_i, the syzygy degrees d + w_i and the degree."""
        banks, degree = self.resolution_degrees(), str(self.degree())
        pf, syz = list(banks["relations"]), list(banks["first_syzygies"])
        return ({"pfaffian_degrees": pf, "syzygy_degrees": syz, "degree": degree},
                [f"Pfaffian degrees: {pf}, syzygy degrees: {syz}", f"degree = {degree}"])

    def charts(self):
        """For each pair (i,j): order w_i + w_j, local weights w_i+w_k, w_j+w_k."""
        out = []
        for i, j in PAIRS:
            r = (self.w2[i - 1] + self.w2[j - 1]) // 2
            rest = [k for k in range(1, 6) if k not in (i, j)]
            local = tuple((self.w2[i - 1] + self.w2[k - 1]) // 2 for k in rest) \
                + tuple((self.w2[j - 1] + self.w2[k - 1]) // 2 for k in rest)
            out.append(Chart(pair_name(i, j), r, local))
        return out

    def to_json(self):
        return {"w2": list(self.w2), "u2": 0}

    def __str__(self):
        ws = ",".join(str(Fraction(v, 2)) for v in self.w2)
        return f"wGr(2,5; w=({ws}))"


def fit_pfaffian_weights(degree_matrix):
    """Solve d_ij = w_i + w_j over half-integers; diagonal entries are ignored.

    Returns the unique solution as a tuple of exact rationals (``int`` or
    ``Fraction``), or None when the system is inconsistent.  The check runs
    over the ordered pairs, so it also requires d to be symmetric.
    """
    d = {(i, j): Fraction(coefficient(degree_matrix[i][j]))
         for i in range(5) for j in range(5) if i != j}
    w0 = exact_div(d[0, 1] + d[0, 2] - d[1, 2], 2)
    w = (w0, *[d[0, j] - w0 for j in range(1, 5)])
    return w if all(w[i] + w[j] == v for (i, j), v in d.items()) else None


def _minor(i, j):
    """x_ij at the rank-2 locus: a_i b_j - a_j b_i."""
    var = polynomials.MPoly.var
    return var(f"a{i}") * var(f"b{j}") - var(f"a{j}") * var(f"b{i}")


def verify_gr_identities(pfaffians=None):
    """Symbolic identity suite for the Pfaffian family.

    (a) M * Pf(M) = 0 as five cubics in the x_ij;
    (b) the ten relations x_ij s_k - x_ik s_j + x_jk s_i vanish identically
        after s_i -> (a_i, b_i), x_ij -> a_i b_j - a_j b_i;
    (c) each Pfaffian vanishes under x_ij -> a_i b_j - a_j b_i;
    (d) a numeric spot check of (a) at a random rational skew matrix.
    Any failure indicates a sign-convention bug and is reported per identity.
    """
    pfs = list(pfaffians) if pfaffians is not None else pfaffian_equations()
    checks = []

    for i, row in enumerate(skew_times(pfs), start=1):
        checks.append((f"(a) row {i} of M*Pf(M)", row.is_zero()))

    minors, var = {pair_name(i, j): _minor(i, j) for i, j in PAIRS}, polynomials.MPoly.var
    for i, j, k in itertools.combinations(range(1, 6), 3):
        for col, letter in enumerate("ab"):
            rel = (minors[pair_name(i, j)] * var(f"{letter}{k}")
                   - minors[pair_name(i, k)] * var(f"{letter}{j}")
                   + minors[pair_name(j, k)] * var(f"{letter}{i}"))
            checks.append((f"(b) relation ({i},{j},{k}) component {col}", rel.is_zero()))

    for idx, p in enumerate(pfs, start=1):
        checks.append((f"(c) Pf_{idx} on rank-2 locus", p.substitute(minors).is_zero()))

    rng = random.Random(2025)
    assign = {pair_name(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for i, j in PAIRS}
    rows = skew_times([p.evaluate(assign) for p in pfs])
    checks.append(("(d) numeric spot check of M*Pf(M)",
                   all(row.evaluate(assign) == 0 for row in rows)))

    return {"checks": checks, "ok": all(flag for _, flag in checks)}
