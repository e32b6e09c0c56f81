"""Small sparse multivariate polynomials over the rationals.

Just enough ring arithmetic for symbolic identity checking (Pfaffian and
syzygy identities) and for slicing equation ideals degree by degree; no
Groebner machinery.  ``MPoly`` is a ``series.SparsePoly`` whose monomials are
sorted tuples of (variable name, exponent), so it normalises coefficients,
refuses floats and adds, negates and scales as ``LaurentPoly`` does; it states
only its monomial rule, its product and its own methods.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .series import SparsePoly, coefficient


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


class MPoly(SparsePoly):
    """Sparse multivariate polynomial: dict monomial -> int or Fraction coefficient."""

    __slots__ = ()
    _unit = ()

    @staticmethod
    def _key(m):
        return tuple(sorted((v, operator.index(e)) for v, e in m if e))

    @classmethod
    def var(cls, name):
        return cls({((name, 1),): 1})

    @classmethod
    def const(cls, c):
        return cls({(): c})

    def __mul__(self, other):
        if not isinstance(other, MPoly):    # a scalar; a float is refused
            return self.scale(other)
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = _mono_mul(m1, m2)
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return MPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def substitute(self, mapping):
        """Replace variables by polynomials; unmapped variables stay."""
        out = MPoly._raw({})
        for m, c in self.coeffs.items():
            term = MPoly._raw({(): c})
            for v, e in m:
                rep = mapping.get(v)
                if rep is None:
                    rep = MPoly.var(v)
                elif not isinstance(rep, MPoly):
                    rep = MPoly.const(rep)
                term = term * rep ** e
            out = out + term
        return out

    def evaluate(self, assignment):
        """Evaluate at rational values, refusing a float; all variables must be assigned."""
        total = Fraction(0)
        for m, c in self.coeffs.items():
            val = c
            for v, e in m:
                val *= coefficient(assignment[v]) ** e
            total += val
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for m, c in sorted(self.coeffs.items()):
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m) or "1"
            if c == 1 and m:
                piece = body
            elif c == -1 and m:
                piece = f"-{body}"
            else:
                piece = f"{c}*{body}" if m else str(c)
            bits.append(piece)
        return " + ".join(bits).replace("+ -", "- ")
