"""Exact arithmetic for sparse polynomials and rational Hilbert series.

Everything here is over the rationals; there is no floating point anywhere.
``SparsePoly`` is the one sparse-polynomial kernel: ``LaurentPoly`` here and
``polynomials.MPoly`` are its subclasses, and each states only its monomial
rule, its product and its own methods.  Coefficients are ``int`` unless a
non-integral value needs a ``fractions.Fraction``, so integer series (every
ambient Hilbert numerator) never build a ``Fraction``.  ``coefficient``
normalises every rational the package reads and refuses floats; ``exact_div``
is the one true division in the package.  A Hilbert series is stored as a
Laurent-polynomial numerator over a multiset of positive integers ``{a}``,
meaning division by ``prod (1 - t^a)``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import prod


class SeriesError(ValueError):
    """Raised when a series operation is applied outside its domain."""


class OracleBudgetError(ValueError):
    """Raised when a requested oracle degree exceeds the practical bound."""


class InternalError(Exception):
    """Two of wgk's own computations disagree: exit 3."""


class Record:
    """An immutable record.  ``Record.__init__`` alone stores the fields: it binds
    its arguments to ``_fields`` and stores them in ``__dict__`` in that order,
    which ``==`` and ``hash`` rely on; a missing, extra or unknown field is a
    ``TypeError``.  Equality, hashing and ``repr`` are a frozen dataclass's, and a
    record equals only one of its own class.  Every CLI op is a fresh interpreter:
    ``dataclasses`` would cost each one ~26 ms."""

    _fields = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):       # positional is the fast path
            rest = fields[len(values):]
            if len(values) > len(fields) or named.keys() != set(rest):
                raise TypeError(f"{type(self).__qualname__}({', '.join(fields)}): missing "
                                f"{[f for f in rest if f not in named]}, extra or repeated "
                                f"{[*values[len(fields):], *(k for k in named if k not in rest)]}")
            values += tuple([named[f] for f in rest])
        self.__dict__.update(zip(fields, values))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def coefficient(c):
    """c as an int when it is integral, else as a Fraction; a float is refused
    rather than converted to the binary fraction it stores."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r}: use an int or a Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def exact_div(a, b):
    """The exact quotient a / b as a coefficient: ±a for an int a when b is ±1."""
    if type(a) is int and (b == 1 or b == -1):
        return a if b == 1 else -a
    return coefficient(Fraction(a) / b)


class SparsePoly:
    """A sparse polynomial: ``coeffs`` maps a monomial key to a nonzero ``int``,
    or ``Fraction`` when not integral.  A subclass states its monomial rule,
    ``_key`` (which normalises a key) and ``_unit`` (the key of 1), and its own
    product; everything else is here.  Construction normalises every
    coefficient by ``coefficient``, so a float is refused; ``_raw`` wraps a
    dict that is already normal, and these two are the only writers of
    ``coeffs``.  A sum or product of Fractions may keep an integral
    ``Fraction``, which compares and hashes equal to the ``int``.  A scalar
    operand is read as a constant.  A polynomial equals only one of its own
    class.  Instances are treated as immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            key = self._key
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for k, c in items:
                c = coefficient(c)
                if c:
                    k = key(k)
                    v = data.get(k, 0) + c
                    if v:
                        data[k] = v
                    else:
                        data.pop(k, None)
        self.coeffs = data

    @classmethod
    def _raw(cls, coeffs):
        res = cls.__new__(cls)
        res.coeffs = coeffs
        return res

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if other.__class__ is not self.__class__:    # a scalar; a float is refused
            other = self.__class__({self._unit: other})
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return self._raw({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return -(-self + other)     # other as given, so a float is named as given

    def __rsub__(self, other):
        return -self + other

    def scale(self, c):
        c = coefficient(c)
        if not c:
            return self._raw({})
        return self._raw({k: coefficient(c * v) for k, v in self.coeffs.items()})

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class LaurentPoly(SparsePoly):
    """Sparse Laurent polynomial in one variable t: the keys are its (possibly
    negative) int exponents.  Of the arithmetic, its product, ``shift`` and
    ``divexact`` are its own."""

    __slots__ = ()
    _key = operator.index
    _unit = 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls):
        return cls({0: 1})

    # -- structure ---------------------------------------------------------

    def min_exp(self):
        if not self.coeffs:
            raise SeriesError("zero polynomial has no minimal exponent")
        return min(self.coeffs)

    def max_exp(self):
        if not self.coeffs:
            raise SeriesError("zero polynomial has no maximal exponent")
        return max(self.coeffs)

    def __getitem__(self, e):
        return self.coeffs.get(e, 0)

    def items(self):
        return sorted(self.coeffs.items())

    def dense(self, low, high):
        """The coefficients of t^low..t^high as a list, zeros included."""
        get = self.coeffs.get
        return [get(e, 0) for e in range(low, high + 1)]

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):    # a scalar; a float is refused
            return self.scale(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentPoly._raw({e + k: c for e, c in self.coeffs.items()})

    def __call__(self, value):
        value = Fraction(coefficient(value))
        if value == 0 and any(e < 0 for e in self.coeffs):
            raise SeriesError("cannot evaluate negative exponents at 0")
        return sum(c * value ** e for e, c in self.coeffs.items())

    def divexact(self, other):
        """Exact quotient self/other, or None when the division leaves a remainder.

        One ascending scan over the quotient exponents: the remainder never
        has a term below the current one, so each step pops its lowest term.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly._raw({})
        bmin = other.min_exp()
        blead = other.coeffs[bmin]
        btail = [(be, bc) for be, bc in other.coeffs.items() if be != bmin]
        rem = dict(self.coeffs)
        quot = {}
        for e in range(self.min_exp() - bmin, self.max_exp() - other.max_exp() + 1):
            c = rem.pop(e + bmin, None)
            if c is None:
                continue
            c = exact_div(c, blead)
            quot[e] = c
            for be, bc in btail:
                k = e + be
                v = rem.get(k, 0) - c * bc
                if v:
                    rem[k] = v
                else:
                    rem.pop(k, None)
        if rem:
            return None
        return LaurentPoly._raw(quot)

    # -- display -----------------------------------------------------------

    def __str__(self):
        """Terms by ascending exponent, as in 1 - 5t^2 + 5t^3 - t^5; 0 for zero."""
        out = ""
        for e, c in self.items():
            power = "" if e == 0 else "t" if e == 1 else f"t^{e}"
            out += f" {'-' if c < 0 else '+'} {'' if power and abs(c) == 1 else abs(c)}{power}"
        return ("-" + out[3:] if out[1] == "-" else out[3:]) if out else "0"

    def to_json(self):
        """Sorted (exponent, numerator, denominator) triples."""
        return [[e, c.numerator, c.denominator] for e, c in self.items()]


def one_minus(a):
    """The factor 1 - t^a."""
    if a < 1:
        raise SeriesError(f"factor exponent must be positive, got {a}")
    return LaurentPoly({0: 1, a: -1})


def positive_degrees(degrees, what="generator degrees"):
    """``degrees`` as a sorted tuple of ints: operator.index refuses one that is
    not an int, and SeriesError names those below 1."""
    degrees = tuple(sorted(map(operator.index, degrees)))
    if degrees and degrees[0] < 1:
        raise SeriesError(f"{what} must be positive, found {[d for d in degrees if d < 1]}")
    return degrees


def denominator_poly(denominator):
    """Expand prod (1 - t^a) over the multiset."""
    p = LaurentPoly.one()
    for a in denominator:
        p = p * one_minus(a)
    return p


def times_one_minus(coeffs, a):
    """``coeffs`` times (1 - t^a) in place, truncated: high to low, as term n reads terms <= n."""
    for n in range(len(coeffs) - 1, a - 1, -1):
        coeffs[n] -= coeffs[n - a]


def over_one_minus(coeffs, a):
    """Divide the dense coefficients ``coeffs`` by (1 - t^a) in place as a series truncated
    to their length (a running sum).  True when the top a vanish: for a polynomial, exactly
    when the division is exact, since past its last term the quotient repeats with period a."""
    for n in range(a, len(coeffs)):
        coeffs[n] += coeffs[n - a]
    return not any(coeffs[-a:])


def differences(a, b):
    """The multiset differences a - b, in a's order, and b - a, in b's order, as lists
    (so both are sorted when a and b are): one ``list.remove`` for each entry of b that
    a holds, which drops the first equal entry."""
    a, b_only = list(a), []
    for x in b:
        (a.remove if x in a else b_only.append)(x)
    return a, b_only


class HilbertSeries:
    """Rational function numerator / prod (1 - t^a), a ranging over a multiset.

    The denominator multiset is stored sorted.  Comparison is exact, via
    cross-multiplied numerators; expansion is exact rational arithmetic.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=()):
        if not isinstance(numerator, LaurentPoly):
            numerator = LaurentPoly(numerator)
        self.numerator = numerator
        self.denominator = positive_degrees(denominator, "denominator entries")

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other):
        """Exact equality as rational functions, never a truncated comparison: both numerators
        over U, the union of the two denominators, by ``hilbert_numerator``.  U holds both, so
        each side gains just the factors it lacks and nothing is divided: cross-multiplication."""
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        union = self.denominator + tuple(differences(other.denominator, self.denominator)[0])
        if not union:
            return self.numerator == other.numerator
        return self.hilbert_numerator(union) == other.hilbert_numerator(union)

    def __hash__(self):
        # the value at t = 2 is exact and equal for equal series
        return hash(exact_div(self.numerator(2),
                              prod(1 - 2 ** a for a in self.denominator)))

    def canonical(self):
        """Cancel (1 - t^a) pairs by exact division of the dense numerator, and normalise it:
        a sum of Fractions may leave integral ones.  A zero numerator keeps its denominator.

        One ascending pass suffices: if (1 - t^b) does not divide num, it does not divide
        num / (1 - t^a) either, nor does a repeat of b.
        """
        num = self.numerator
        if num.is_zero():
            return self
        low, kept = num.min_exp(), []
        coeffs = num.dense(low, num.max_exp())
        for a in self.denominator:
            if kept[-1:] != [a] and over_one_minus(trial := coeffs[:], a):
                coeffs = trial[:-a]
            else:
                kept.append(a)
        return HilbertSeries(LaurentPoly(enumerate(coeffs, low)), kept)

    # -- analysis ------------------------------------------------------------

    def expand(self, order):
        """Exact power-series coefficients c_0..c_order.

        Rejects input whose negative-exponent numerator terms do not cancel in
        the expansion (the series is then not a power series).  Each factor
        (1 - t^a) divides the truncated coefficients in turn.
        """
        if order < 0:
            raise SeriesError("expansion order must be >= 0")
        low = max(0, -min(self.numerator.coeffs, default=0))    # negative exponents kept
        coeffs = self.numerator.dense(-low, order)
        for a in self.denominator:
            over_one_minus(coeffs, a)
        if any(coeffs[:low]):
            raise SeriesError(
                "numerator with negative exponents not cleared by expansion")
        return coeffs[low:]

    def coefficient(self, n):
        return self.expand(n)[n]

    def intersection_number(self, n):
        """Exact value of (1-t)^{n+1} * H at t = 1 when the pole order is n+1.

        This is the degree of the polarizing class on an n-fold with Hilbert
        series H.
        """
        if self.numerator.is_zero():
            raise SeriesError("zero series has no intersection number")
        num, order = self.numerator, len(self.denominator)
        while (q := num.divexact(one_minus(1))) is not None:
            num, order = q, order - 1
        if order != n + 1:
            raise SeriesError(
                f"pole order at t=1 is {order}, expected {n + 1}")
        return exact_div(num(1), prod(self.denominator, start=1))

    def hilbert_numerator(self, denominator):
        """H * prod (1 - t^a) over the given multiset, as a Laurent polynomial.

        Exact division is enforced; when the product is not a polynomial the denominator
        does not clear the series and an error is raised.  Factors shared with the series'
        own denominator cancel first: Q[t, 1/t] is an integral domain, so this changes
        neither the result nor when it fails.  The rest works in place on dense
        coefficients: every further factor is multiplied in before any own factor is
        divided out ((1 - t + t^2) / (1 - t^6) against (2, 3) is 1 - t, divided last).
        """
        denominator = positive_degrees(denominator)
        if not denominator:
            raise SeriesError("denominator multiset must be nonempty")
        extra, missing = differences(denominator, self.denominator)
        num = self.numerator
        if not (extra or missing) or num.is_zero():
            # a sum may have left an integral Fraction (SparsePoly); return ints,
            # as the dense path does
            if all(type(c) is int for c in num.coeffs.values()):
                return num
            return LaurentPoly(num.coeffs)
        low = num.min_exp()
        coeffs = num.dense(low, num.max_exp() + sum(extra))
        for a in extra:
            times_one_minus(coeffs, a)
        for a in missing:
            if not over_one_minus(coeffs, a):
                raise SeriesError("denominator does not clear series")
        return LaurentPoly(enumerate(coeffs, low))

    # -- display -------------------------------------------------------------

    def __str__(self):
        denom = "".join(f"(1-t^{a})" if a > 1 else "(1-t)" for a in self.denominator)
        if not denom:
            return str(self.numerator)
        return f"({self.numerator}) / {denom}"

    def __repr__(self):
        return f"HilbertSeries({self})"

    def to_json(self):
        return {"numerator": self.numerator.to_json(),
                "denominator": list(self.denominator)}
