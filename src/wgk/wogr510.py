"""Weighted OGr(5,10): equations, syzygies, the lower half of the resolution
degrees and the sixteen orbifold charts.  ``OGrWeights`` states these as a
``WeightFamily``; the whole resolution, the Hilbert numerator, K and
well-formedness are derived there.  The spinor graph, the signed-permutation
group and the parametrization live in ``wgk.spinor``.

The sixteen spinor coordinates are indexed by the vertices of the 5-cube
modulo antipodal identification; a vertex is stored by its short subset
representative of size at most two (x, x_i, x_ij).  The ten quadric equations
are x*v - Pf(M) = 0 and M*v = 0 for the generic skew matrix M = (x_ij) and
the column v = (x_1..x_5); both halves come from ``wgk.wgrass25``, the
Pfaffians and the product ``skew_times(v)``, which the identity M*Pf(M) = 0
of wGr(2,5) also reads.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache

from . import lazy_module
from .wgrass25 import (PAIRS, Chart, WeightFamily, overall_weight, pfaffian_equations,
                       skew_times, sorted_w2)

polynomials = lazy_module("wgk.polynomials")    # read only by the symbolic equations

FULL = frozenset(range(1, 6))


def canonical_vertex(subset):
    """Short representative (size <= 2) of the antipodal pair {I, complement}."""
    s = frozenset(subset)
    if not s <= FULL:
        raise ValueError(f"vertex subset must lie in 1..5: {sorted(subset)}")
    return s if len(s) <= 2 else FULL - s


def even_rep(subset):
    """The even-size representative of the antipodal pair."""
    s = frozenset(subset)
    return s if len(s) % 2 == 0 else FULL - s


def vertex_name(subset):
    s = canonical_vertex(subset)
    return "x" + "".join(str(i) for i in sorted(s))


VERTICES = tuple([frozenset()]
                 + [frozenset({i}) for i in range(1, 6)]
                 + [frozenset({i, j}) for i, j in PAIRS])
VERTEX_NAMES = tuple(vertex_name(v) for v in VERTICES)


# -- equations and syzygies ----------------------------------------------------

@lru_cache(maxsize=1)
def equations():
    """The ten quadrics N_1..N_5, N_-1..N_-5 in the sixteen spinor coordinates:
    N_i = x*x_i - Pf_i, and N_-i is row i of M*v."""
    var = polynomials.MPoly.var
    x, v = var("x"), [var(f"x{i}") for i in range(1, 6)]
    return tuple([x * vi - pf for vi, pf in zip(v, pfaffian_equations())] + skew_times(v))


EQUATION_NAMES = ("N1", "N2", "N3", "N4", "N5",
                  "N-1", "N-2", "N-3", "N-4", "N-5")

# Rows are the ten equations, columns the sixteen vertices in VERTEX_NAMES
# order; each column is a five-term syzygy supported on the neighbours of its
# vertex.  Transcription errors are caught by verify_ogr_syzygies.
_SYZYGY_TABLE = [
    ["0", "0", "x12", "x13", "x14", "x15", "x2", "x3", "x4", "x5", "0", "0", "0", "0", "0", "0"],
    ["0", "-x12", "0", "x23", "x24", "x25", "-x1", "0", "0", "0", "x3", "x4", "x5", "0", "0", "0"],
    ["0", "-x13", "-x23", "0", "x34", "x35", "0", "-x1", "0", "0", "-x2", "0", "0", "x4", "x5", "0"],
    ["0", "-x14", "-x24", "-x34", "0", "x45", "0", "0", "-x1", "0", "0", "-x2", "0", "-x3", "0", "x5"],
    ["0", "-x15", "-x25", "-x35", "-x45", "0", "0", "0", "0", "-x1", "0", "0", "-x2", "0", "-x3", "-x4"],
    ["x1", "x", "0", "0", "0", "0", "0", "0", "0", "0", "-x45", "x35", "-x34", "-x25", "x24", "-x23"],
    ["x2", "0", "x", "0", "0", "0", "0", "x45", "-x35", "x34", "0", "0", "0", "x15", "-x14", "x13"],
    ["x3", "0", "0", "x", "0", "0", "-x45", "0", "x25", "-x24", "0", "-x15", "x14", "0", "0", "-x12"],
    ["x4", "0", "0", "0", "x", "0", "x35", "-x25", "0", "x23", "x15", "0", "-x13", "0", "x12", "0"],
    ["x5", "0", "0", "0", "0", "x", "-x34", "x24", "-x23", "0", "-x14", "x13", "0", "-x12", "0", "0"],
]


def _entry(token):
    if token == "0":
        return polynomials.MPoly()
    if token.startswith("-"):
        return -polynomials.MPoly.var(token[1:])
    return polynomials.MPoly.var(token)


@lru_cache(maxsize=1)
def first_syzygies():
    """10 x 16 matrix of linear forms; column v annihilates the equation vector."""
    return tuple(tuple(_entry(tok) for tok in row) for row in _SYZYGY_TABLE)


def verify_ogr_syzygies():
    """Check sum_k column[k] * N_k = 0 symbolically for all sixteen columns."""
    eqs = equations()
    table = first_syzygies()
    checks = []
    for col in range(16):
        combo = polynomials.MPoly()
        for row in range(10):
            combo = combo + table[row][col] * eqs[row]
        checks.append((f"syzygy column {VERTEX_NAMES[col]}", combo.is_zero()))
    return {"checks": checks, "ok": all(flag for _, flag in checks)}


# -- weight data ----------------------------------------------------------------

class OGrWeights(WeightFamily):
    """Weight data (w_1..w_5; u): doubled half-integer weights plus overall u.

    Unlike the Pfaffian family the overall weight cannot be absorbed; it enters
    the numerator through t^{2d-u} and t^{2d+u} separately.
    """

    _fields = ("w2", "u")
    family = "wogr510"
    dim, codim = 10, 5

    def __init__(self, w2, u):
        super().__init__(sorted_w2(w2), operator.index(u))
        if bad := sorted(w for w in self.vertex_weights(self.w2, self.u) if w < 1):
            raise ValueError(f"coordinate weights must be positive, found {bad}")

    @classmethod
    def of(cls, w2, u2):
        """Build from doubled weights and doubled overall weight."""
        return cls(w2, overall_weight(u2))

    # -- numerology --------------------------------------------------------------

    @staticmethod
    def vertex_weights(w2, u):
        """The sixteen coordinate weights in VERTEX_NAMES order: u at x, u + w_i + w_j
        at x_ij and u + s - w_i at x_i (the even representative of {i} is its complement)."""
        u2 = 2 * u
        s2 = u2 + sum(w2)
        return ([u] + [(s2 - v) // 2 for v in w2]
                + [(u2 + a + b) // 2 for a, b in itertools.combinations(w2, 2)])

    def coordinates(self):
        return list(zip(VERTEX_NAMES, self.vertex_weights(self.w2, self.u)))

    def equations(self):
        return list(equations())

    @staticmethod
    def banks_of(w2, u):
        """The numerator ends in -t^{4d}, d = s + 2u with s the sum of the weights;
        the relations are d ± w_i and the first syzygies 2d - a over the coordinate
        weights a, whose duals are the second syzygies 2d + a and the third 3d ∓ w_i."""
        d2 = sum(w2) + 4 * u
        return 2 * d2, ([(d2 + s * v) // 2 for v in w2 for s in (-1, 1)],
                        [d2 - a for a in OGrWeights.vertex_weights(w2, u)])

    def charts(self):
        """Sixteen orbifold charts; local weights are pair sums of the flipped w."""
        out = []
        for vert, order in zip(VERTICES, self.vertex_weights(self.w2, self.u)):
            flips = even_rep(vert)
            w2f = [-self.w2[i - 1] if i in flips else self.w2[i - 1]
                   for i in range(1, 6)]
            local = tuple((w2f[i] + w2f[j]) // 2
                          for i in range(5) for j in range(i + 1, 5))
            out.append(Chart(vertex_name(vert), order, local))
        return out

    def canonical_form(self):
        """Distinguished orbit representative under signed permutations.

        Prefers the representative without negative weights when the orbit
        contains one, then the lexicographically smallest (weights, u).
        """
        best = None
        for k in (0, 2, 4):
            for flips in itertools.combinations(range(1, 6), k):
                # u2 is even: so are 2u and a sum of k doubled weights of one parity, k even
                u2 = 2 * self.u + sum(self.w2[i - 1] for i in flips)
                w2 = tuple(sorted(-self.w2[i - 1] if i in flips else self.w2[i - 1]
                                  for i in range(1, 6)))
                key = (w2[0] < 0, w2, u2 // 2)
                if best is None or key < best:
                    best = key
        return OGrWeights(best[1], best[2])

    def to_json(self):
        return {"w2": list(self.w2), "u2": 2 * self.u}

    def __str__(self):
        ws = ",".join(str(Fraction(v, 2)) for v in self.w2)
        return f"wOGr(5,10; w=({ws}), u={self.u})"
