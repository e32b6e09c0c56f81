"""Brute-force graded dimensions by exact linear algebra.

Given weighted coordinates and weighted-homogeneous equations, the dimension
of the quotient ring in a fixed degree is the number of monomials of that
degree minus the rank of the span of all monomial multiples of the equations.
The equations may name other variables; those are set to 0, so the ring is
that of the coordinate section (``GradedRing``).
Everything runs over the integers (fraction-free elimination with content
removal, after Bareiss 1968), so results are exact; one row echelon form per
degree is cached so that dimension queries and the Hilbert series share the
elimination work.

A column is a monomial packed into one integer: FIELD_BITS bits per
exponent, the first variable's exponent highest.  While every exponent is at
most FIELD_MASK, packing adds like the tuples and integer order is lex order
of the exponent tuples; the largest exponent in degree d is d // min(weights),
so ``check_budget`` refuses a degree where that exceeds FIELD_MASK.  A slice
never lists its own monomials: the row m*f_j is {m + t: c for t, c in f_j}.

A slice ranks the equations in order f_0, f_1, ...; for each f_j it walks the
multipliers m of degree d - deg f_j in descending lex order and skips m*f_j
only when it lies in the span of the rows met before it.  So the span of the
stored rows is always that of all rows met; once f_j is done its pivots are
in(f_0..f_j)_d, and the pivots and their ``source`` labels are those of
inserting every row.  Two criteria skip rows before any elimination.
(F5, the syzygy criterion of Faugère 2002.)  Skip m*f_j when m is a pivot of
the degree d - deg f_j slice made by an earlier equation f_i, i < j.  That
pivot row g = lc*m + sum_{n>m} c_n*n lies in (f_0..f_i), so g*f_j lies in the
span of the multiples of f_0..f_{j-1}, all met before f_j; every n > m came
earlier in the descending walk, so m*f_j = (g*f_j - sum c_n*n*f_j)/lc lies in
the span met so far.  (Ascending order makes this hold only once the whole
equation is done, which is too late for the next criterion.)
(Zero reduction.)  Let Z_j(e) hold the multipliers m whose row m*f_j was
skipped or reduced to zero in slice e, i.e. lay in the span P of the rows met
before it: the multiples of f_0..f_{j-1} and the n*f_j with n > m.  For a
monomial k, k*P is made of multiples of f_0..f_{j-1}, met before f_j in the
higher slice, and rows k*n*f_j with k*n > k*m, met before k*m*f_j in the
descending walk; so k*m*f_j lies in the span met so far and is skipped too.
Z is passed up one variable at a time: slice d skips m*x_i whenever m is in
Z_j(d - w_i) and that slice exists, which covers every multiple k*m whose
intermediate slices exist.  On the straight Pluecker ring asked degrees 0..6
in turn, every row that reaches the echelon enlarges it.

The whole Hilbert series is read off the same pivots (``hilbert_series``).
Columns compare in lex order of exponent tuples and a stored row pivots on
its smallest column, so the pivots of the degree-d slice are in(I)_d for the
monomial order "weighted degree first, then the lex-smaller exponent tuple
leads" (lex comparison is invariant under adding a tuple, so the order is
multiplicative; positive weights make it a well-order).  Walk d = 0, 1, ...
taking into G each pivot m of slice d with no m / x_i a pivot of slice d - w_i
(a proper divisor of m has lower degree and in(I) is an ideal, so G gets each
minimal generator of in(I), read once), and stop at the first d that is at
least every equation degree and at least deg lcm(a, b) for every pair a, b
in G.  Let g_a be a row of I with lead a.
(i) The g_a generate I: an element of I_e, e <= d, has its lead in in(I)_e,
so a multiple of some a in G; subtracting a multiple of g_a lowers the lead,
and every equation has degree <= d.  (ii) Each S-pair S(g_a, g_b) lies in I
in degree deg lcm(a, b) <= d, and so does its remainder r on division by the
g_a; no term of r is divisible by any a in G, but a nonzero r would have its
lead in in(I) of degree <= d, which G generates, so r = 0.  By Buchberger's
criterion the g_a are a Groebner basis, in(I) = (G), and H(R/I) = H(R/(G)).
The numerator of a monomial ideal comes from N(J + m) = N(J) - t^deg m *
N(J : m) (Bayer-Stillman 1992, Bigatti 1997), pivoting on a power of the
variable in the most mixed generators.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import count
from math import gcd, lcm

from .series import HilbertSeries, OracleBudgetError, denominator_poly

DEGREE_BUDGET = 200_000  # refuse degrees whose monomial count exceeds this
ROW_BUDGET = 60_000      # likewise for the number of equation-multiple rows
FIELD_BITS = 16          # bits per exponent in a packed monomial
FIELD_MASK = (1 << FIELD_BITS) - 1


def count_monomials(weights, degree):
    """Number of exponent vectors with the given weighted degree."""
    if degree < 0:
        return 0
    counts = [0] * (degree + 1)
    counts[0] = 1
    for w in weights:
        if w <= 0:
            raise ValueError("weights must be positive")
        for d in range(w, degree + 1):
            counts[d] += counts[d - w]
    return counts[degree]


def weighted_monomials(weights, degree):
    """All exponent tuples of the given weighted degree, in ascending lex order,
    from an odometer over all exponents but the last, which the rest fixes."""
    if degree < 0 or not weights:
        return [()] if degree == 0 else []
    if min(weights) < 1:
        raise ValueError("weights must be positive")
    *head, last = weights
    cur, rem, out = [0] * len(weights), degree, []
    while True:
        if rem % last == 0:
            cur[-1] = rem // last
            out.append(tuple(cur))
        for i in reversed(range(len(head))):
            if head[i] <= rem:
                cur[i] += 1
                rem -= head[i]
                break
            rem += cur[i] * head[i]
            cur[i] = 0
        else:
            return out


def _normalize_row(row):
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class IntegerEchelon:
    """Incremental row echelon form of sparse integer rows, over Q.

    Every stored row is primitive and keyed by its smallest column, its
    pivot; no two rows share a pivot and there is no back-substitution.  A
    nonzero combination of stored rows has its smallest column at the least
    pivot it involves, so a row lies in the span exactly when repeatedly
    eliminating its smallest column against the pivot row there empties it.
    Each step strictly raises the smallest column, so reduction terminates.

    ``source[pivot]`` is the label passed to the insert that made the pivot;
    stored rows never change, so that row combines only rows inserted by then.
    """

    def __init__(self):
        self.rows = {}          # pivot column -> primitive row, pivot = min column
        self.source = {}        # pivot column -> label of the row that made it

    @property
    def rank(self):
        return len(self.rows)

    def _combine(self, row, piv_col):
        """a*row - b*pivot_row with the pivot column cancelled, made primitive."""
        piv = self.rows[piv_col]
        a, b = piv[piv_col], row[piv_col]
        g = gcd(a, b)
        a, b = a // g, b // g
        new = dict(row) if a == 1 else {c: a * v for c, v in row.items()}
        for c, v in piv.items():
            w = new.get(c, 0) - b * v
            if w:
                new[c] = w
            else:
                del new[c]
        return _normalize_row(new)

    def reduce(self, row):
        """Remainder of an integer row against the echelon; empty means dependent."""
        row = _normalize_row({c: v for c, v in row.items() if v})
        rows = self.rows
        while row:
            p = min(row)
            if p not in rows:
                break
            row = self._combine(row, p)
        return row

    def insert(self, row, source=None):
        """Add an integer row labelled ``source``; True when it enlarges the span."""
        red = self.reduce(row)
        if not red:
            return False
        pivot = min(red)
        self.rows[pivot] = red
        self.source[pivot] = source
        return True

    def contains(self, row):
        return not self.reduce(row)


class GradedRing:
    """Weighted coordinates with weighted-homogeneous defining equations.

    The ring is the coordinate section: every variable outside ``coords`` is
    set to 0, so a term naming one is dropped, and an equation that restricts
    to zero or repeats an earlier restriction is skipped.  Dimension queries
    run the brute-force oracle; nothing here knows the closed-form Hilbert
    series, which is the point.
    """

    def __init__(self, coords, equations):
        names = [n for n, _ in coords]
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be distinct")
        index = {name: i for i, name in enumerate(names)}
        self.weights = tuple(operator.index(w) for _, w in coords)
        n = len(names)
        self._shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self.equations = []     # (degree, [(packed exponent, int coefficient)])
        seen = set()
        for eq in equations:
            terms = {}
            for mono, coeff in eq.coeffs.items():
                if any(var not in index for var, _ in mono):
                    continue    # the term vanishes on the coordinate section
                vec = [0] * n
                for var, exp in mono:
                    vec[index[var]] += exp
                terms[tuple(vec)] = terms.get(tuple(vec), 0) + coeff
            terms = tuple(sorted((vec, coeff) for vec, coeff in terms.items() if coeff))
            if not terms or terms in seen:
                continue        # zero on the section, or a repeat of an earlier one
            seen.add(terms)
            deg = {_degree(vec, self.weights) for vec, _ in terms}
            if len(deg) != 1:
                raise ValueError("equations must be weighted-homogeneous")
            # scale to integer coefficients once, so slices build integer rows
            scale = lcm(*(coeff.denominator for _, coeff in terms))
            self.equations.append(
                (deg.pop(), [(self._pack(vec), int(coeff * scale)) for vec, coeff in terms]))
        self._multipliers = {}  # degree -> its packed monomials, descending
        self._slices = {}       # degree -> (echelon, Z_j per equation)

    def monomial_count(self, degree):
        return count_monomials(self.weights, degree)

    def check_budget(self, degree):
        # the exponent test first: counting a degree's monomials is linear in it
        if self.weights and degree // min(self.weights) > FIELD_MASK:
            raise OracleBudgetError(
                f"degree {degree} exceeds the oracle budget (an exponent "
                f"above {FIELD_MASK})")
        monomials = self.monomial_count(degree)
        if monomials > DEGREE_BUDGET:
            raise OracleBudgetError(
                f"degree {degree} exceeds the oracle budget ({monomials} monomials)")
        rows = sum(count_monomials(self.weights, degree - eq_deg)
                   for eq_deg, _ in self.equations if degree >= eq_deg)
        if rows > ROW_BUDGET:
            raise OracleBudgetError(
                f"degree {degree} exceeds the oracle budget ({rows} rows)")

    def _pack(self, exponents):
        """The exponent tuple as one integer, FIELD_BITS per exponent, the
        first exponent highest: integer order is lex order of the tuples."""
        return sum(e << s for e, s in zip(exponents, self._shifts))

    def _unpack(self, code):
        return tuple(code >> s & FIELD_MASK for s in self._shifts)

    def _slice(self, degree):
        """Row echelon form of the ideal slice in one degree and, for each
        equation, the multipliers whose rows lay in the span of the rows met
        before them (Z_j in the module docstring); built after the lower
        slices it takes multipliers, pivots and Z from."""
        if degree not in self._slices:
            self.check_budget(degree)
            need = {degree}
            for d in range(degree, -1, -1):
                if d in need and d not in self._slices and self.monomial_count(d):
                    need.update(d - e for e, _ in self.equations if e <= d)
            for d in sorted(need - self._slices.keys()):
                self._slices[d] = self._build_slice(d)
        return self._slices[degree]

    def _build_slice(self, degree):
        ech = IntegerEchelon()
        zeros = [set() for _ in self.equations]
        if not self.monomial_count(degree):
            return ech, zeros
        units = [(1 << s, w) for s, w in zip(self._shifts, self.weights)]
        for j, (eq_deg, terms) in enumerate(self.equations):
            if degree < eq_deg:
                continue
            low = degree - eq_deg
            earlier = self._slices[low][0].source
            # m*f_j lies in the span met so far when m/x_i is in Z_j one
            # variable lower, or when m is an earlier equation's pivot (F5)
            skip = set()
            for unit, w in units:
                below = self._slices.get(degree - w)
                if below is not None:
                    skip.update(m + unit for m in below[1][j])
            zero = zeros[j]
            for m in self._multiplier_codes(low):
                if (m in skip or earlier.get(m, j) < j
                        or not ech.insert({m + t: c for t, c in terms}, j)):
                    zero.add(m)
        return ech, zeros

    def _multiplier_codes(self, degree):
        if degree not in self._multipliers:
            monos = weighted_monomials(self.weights, degree)
            self._multipliers[degree] = [self._pack(m) for m in reversed(monos)]
        return self._multipliers[degree]

    def ideal_rank(self, degree):
        """Rank of the degree slice spanned by monomial multiples of the equations."""
        return self._slice(degree)[0].rank

    def dimension(self, degree):
        """dim of the degree piece of coordinate ring / ideal."""
        if degree < 0:
            return 0
        if not self.equations:
            return self.monomial_count(degree)
        rank = self.ideal_rank(degree)      # checks the budget before counting
        return self.monomial_count(degree) - rank

    def hilbert_series(self):
        """``(series, stop)``: the proven series over prod (1 - t^w), w the
        ring's weights, and the last slice ranked to prove it (module docstring)."""
        leads, stop = [], max((deg for deg, _ in self.equations), default=0)
        for d in count():
            for m in self._slice(d)[0].rows:    # every slice below d is built
                if not any(m >> s & FIELD_MASK and m - (1 << s) in self._slices[d - w][0].rows
                           for s, w in zip(self._shifts, self.weights)):
                    lead = self._unpack(m)
                    stop = max([stop] + [_degree(map(max, a, lead), self.weights) for a in leads])
                    leads.append(lead)
            if d >= stop:
                return HilbertSeries(_staircase_numerator(leads, self.weights), self.weights), d


def _degree(exponents, weights):
    return sum(e * w for e, w in zip(exponents, weights))


def _minimal(gens):
    """The minimal generators of the monomial ideal that ``gens`` generate."""
    out = []
    for g in sorted(set(gens), key=sum):
        if not any(all(map(int.__le__, h, g)) for h in out):
            out.append(g)
    return out


def _staircase_numerator(gens, weights):
    """Numerator over prod (1 - t^w) of R/(gens), for minimal monomials gens."""
    mixed = [g for g in gens if sum(map(bool, g)) > 1]
    if not mixed:   # powers of distinct variables: a regular sequence
        return denominator_poly([_degree(g, weights) for g in gens])
    # x_i^e, e the least exponent of x_i in a mixed generator, is not in (gens):
    # a pure power x_i^f in a minimal set has f above every such e
    uses = [sum(1 for g in mixed if g[i]) for i in range(len(weights))]
    i = uses.index(max(uses))
    e = min(g[i] for g in mixed if g[i])
    p = tuple(e * (j == i) for j in range(len(weights)))
    plus = [g for g in gens if g[i] < e] + [p]
    colon = _minimal([g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens])
    return (_staircase_numerator(plus, weights)
            + _staircase_numerator(colon, weights).shift(e * weights[i]))


@lru_cache(maxsize=1)
def _ring(weight_data):
    return GradedRing(weight_data.coordinates(), weight_data.equations())


def graded_dimension(family, weight_data, degree):
    """Oracle dimension of the family's coordinate ring in one degree.

    ``weight_data`` (GrWeights or OGrWeights) supplies the coordinates and
    the equations; the ring of the last weight set asked about is kept, so its
    degrees share slices.  ``family`` must be its family ("wgr25" or "wogr510");
    it stays an argument so that a trace of the call names the family.
    """
    if family != weight_data.family:
        raise ValueError(f"{weight_data} is not of family {family!r}")
    return _ring(weight_data).dimension(degree)
