"""Small sparse multivariate polynomials over the rationals.

Just enough ring arithmetic for symbolic identity checking (Pfaffian and
syzygy identities) and for slicing equation ideals degree by degree; no
Groebner machinery.  Monomials are sorted tuples of (variable name, exponent).
Coefficients are ``int`` unless not integral, as in the series kernel.
"""

from __future__ import annotations

from fractions import Fraction

from .series import _coefficient


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


class MPoly:
    """Sparse multivariate polynomial: dict monomial -> int or Fraction coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for m, c in items:
                c = _coefficient(c)
                if not c:
                    continue
                m = tuple(sorted((v, int(e)) for v, e in m if e))
                v = data.get(m, 0) + c
                if v:
                    data[m] = v
                else:
                    data.pop(m, None)
        self.terms = data

    @classmethod
    def var(cls, name):
        return cls({((name, 1),): 1})

    @classmethod
    def const(cls, c):
        return cls({(): c})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, MPoly):    # a scalar; a float is refused
            other = MPoly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        res = MPoly()
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = MPoly()
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            c = _coefficient(other)
            if not c:
                return MPoly()
            res = MPoly()
            res.terms = {m: c * v for m, v in self.terms.items()}
            return res
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        res = MPoly()
        res.terms = out
        return res

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
        out = MPoly()
        for m, c in self.terms.items():
            term = MPoly.const(c)
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
        """Evaluate at rational values; all variables must be assigned."""
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val *= Fraction(assignment[v]) ** e
            total += val
        return total

    def restrict(self, keep):
        """Set every variable outside ``keep`` to zero."""
        keep = set(keep)
        res = MPoly()
        res.terms = {m: c for m, c in self.terms.items()
                     if all(v in keep for v, _ in m)}
        return res

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m) or "1"
            if c == 1 and m:
                piece = body
            elif c == -1 and m:
                piece = f"-{body}"
            else:
                piece = f"{c}*{body}" if m else str(c)
            bits.append(piece)
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return f"MPoly({self})"
