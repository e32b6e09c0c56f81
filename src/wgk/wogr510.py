"""Weighted OGr(5,10): spinor graph, signed-permutation group, equations,
syzygies, Hilbert data and the sixteen orbifold charts.

The sixteen spinor coordinates are indexed by the vertices of the 5-cube
modulo antipodal identification; a vertex is stored by its short subset
representative of size at most two (x, x_i, x_ij).  The ten quadric equations
are x*v - Pf(M) = 0 and M*v = 0 for the generic skew matrix M = (x_ij) and
the column v = (x_1..x_5).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .polynomials import MPoly
from .series import HilbertSeries, LaurentPoly
from .wgrass25 import (PAIRS, Chart, charts_well_formed, pair_name, pfaffian_equations,
                       pfaffians_at, skew_entry)

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


def _adjacent(a, b):
    if a == b:
        return None
    d1 = a ^ b
    if len(d1) == 1:
        return next(iter(d1))
    d2 = a ^ (FULL - b)
    if len(d2) == 1:
        return next(iter(d2))
    return None


@dataclass(frozen=True)
class SpinorGraph:
    """16 vertices, 40 edges in 5 parallel directions, two remote quads each."""
    vertices: tuple
    edges: tuple            # (direction, frozenset{v, w})
    quads: dict             # direction -> (quad, quad), each a tuple of 4 edges

    def neighbours(self, v):
        v = canonical_vertex(v)
        out = []
        for _, e in self.edges:
            if v in e:
                out.append(next(iter(e - {v})))
        return sorted(out, key=lambda s: (len(s), sorted(s)))


def _remote(e1, e2, adjacency):
    if e1 & e2:
        return False
    return not any(b in adjacency[a] for a in e1 for b in e2)


@lru_cache(maxsize=1)
def spinor_graph():
    """The 5-cube modulo antipodal identification, with its remote quads."""
    edges = []
    for a, b in itertools.combinations(VERTICES, 2):
        d = _adjacent(a, b)
        if d is not None:
            edges.append((d, frozenset({a, b})))
    adjacency = {v: set() for v in VERTICES}
    for _, e in edges:
        a, b = tuple(e)
        adjacency[a].add(b)
        adjacency[b].add(a)
    quads = {}
    for direction in range(1, 6):
        parallel = [e for d, e in edges if d == direction]
        seed = next(e for e in parallel if frozenset() in e)
        quad1 = tuple(sorted((e for e in parallel
                              if e == seed or _remote(seed, e, adjacency)),
                             key=lambda e: sorted(map(sorted, e))))
        quad2 = tuple(sorted((e for e in parallel if e not in quad1),
                             key=lambda e: sorted(map(sorted, e))))
        if len(quad1) != 4 or len(quad2) != 4:
            raise AssertionError("remote quads must split 8 parallel edges 4+4")
        for quad in (quad1, quad2):
            for e1, e2 in itertools.combinations(quad, 2):
                if not _remote(e1, e2, adjacency):
                    raise AssertionError("quad edges must be pairwise remote")
        quads[direction] = (quad1, quad2)
    return SpinorGraph(vertices=VERTICES, edges=tuple(edges), quads=quads)


# -- the Weyl group of signed permutations with evenly many sign changes ------

def wd5_identity():
    return ((1, 2, 3, 4, 5), frozenset())


def wd5_compose(g2, g1):
    """Composite acting as g2 after g1 (vertices: v -> perm(v ^ flips))."""
    p2, f2 = g2
    p1, f1 = g1
    perm = tuple(p2[p1[i] - 1] for i in range(5))
    inv1 = [0] * 5
    for i in range(5):
        inv1[p1[i] - 1] = i + 1
    flips = frozenset(f1) ^ frozenset(inv1[i - 1] for i in f2)
    return (perm, flips)


def wd5_vertex_action(g, subset):
    perm, flips = g
    moved = frozenset(perm[i - 1] for i in (frozenset(subset) ^ flips))
    return canonical_vertex(moved)


def wd5_weight_action(g, w2, u2):
    """Action on weight data: sign flips negate w_i and shift the overall weight.

    Flipping the set E sends u to u + sum_{i in E} w_i, which is what keeps the
    sixteen coordinate weights a permuted multiset.
    """
    perm, flips = g
    u2_new = u2 + sum(w2[i - 1] for i in flips)
    flipped = [-w2[i - 1] if i in flips else w2[i - 1] for i in range(1, 6)]
    moved = [0] * 5
    for i in range(5):
        moved[perm[i] - 1] = flipped[i]
    return tuple(moved), u2_new


@lru_cache(maxsize=1)
def wd5_elements():
    """All 1920 signed permutations of 5 letters with evenly many sign flips."""
    flip_sets = [frozenset(s) for k in (0, 2, 4)
                 for s in itertools.combinations(range(1, 6), k)]
    return tuple((perm, f)
                 for perm in itertools.permutations(range(1, 6))
                 for f in flip_sets)


def wd5_generators():
    """Five involutions generating the group, arranged along the D5 diagram."""
    def transposition(i, j):
        perm = list(range(1, 6))
        perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
        return tuple(perm)

    gens = [(transposition(i, i + 1), frozenset()) for i in range(1, 5)]
    gens.append((transposition(4, 5), frozenset({4, 5})))
    return gens


def wd5_element_order(g):
    e = wd5_identity()
    h = g
    n = 1
    while h != e:
        h = wd5_compose(h, g)
        n += 1
        if n > 5000:
            raise AssertionError("runaway order computation")
    return n


# -- equations and syzygies ----------------------------------------------------

@lru_cache(maxsize=1)
def equations():
    """The ten quadrics N_1..N_5, N_-1..N_-5 in the sixteen spinor coordinates."""
    pfs = pfaffian_equations()
    x = MPoly.var("x")
    eqs = []
    for i in range(1, 6):
        eqs.append(x * MPoly.var(f"x{i}") - pfs[i - 1])
    for i in range(1, 6):
        row = MPoly()
        for j in range(1, 6):
            if j != i:
                row = row + skew_entry(i, j) * MPoly.var(f"x{j}")
        eqs.append(row)
    return tuple(eqs)


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
        return MPoly()
    if token.startswith("-"):
        return -MPoly.var(token[1:])
    return MPoly.var(token)


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
        combo = MPoly()
        for row in range(10):
            combo = combo + table[row][col] * eqs[row]
        checks.append((f"syzygy column {VERTEX_NAMES[col]}", combo.is_zero()))
    return {"checks": checks, "ok": all(flag for _, flag in checks)}


# The three printed columns of the symmetric 16x16 second-syzygy matrix, kept
# as fixtures (entry = quadratic monomial plus an optional equation multiple);
# only their degrees are machine-checked, the full matrix is not reconstructed.
SECOND_SYZYGY_COLUMNS = {
    "x": [("x", "x", None), ("x", "x1", "-2*N1"), ("x", "x2", "-2*N2"),
          ("x", "x3", "-2*N3"), ("x", "x4", "-2*N4"), ("x", "x5", "-2*N5"),
          ("x", "x12", None), ("x", "x13", None), ("x", "x14", None),
          ("x", "x15", None), ("x", "x23", None), ("x", "x24", None),
          ("x", "x25", None), ("x", "x34", None), ("x", "x35", None),
          ("x", "x45", None)],
    "x1": [("x", "x1", "-2*N1"), ("x1", "x1", None), ("x1", "x2", None),
           ("x1", "x3", None), ("x1", "x4", None), ("x1", "x5", None),
           ("x1", "x12", "+2*N-2"), ("x1", "x13", "+2*N-3"),
           ("x1", "x14", "+2*N-4"), ("x1", "x15", "+2*N-5"),
           ("x1", "x23", None), ("x1", "x24", None), ("x1", "x25", None),
           ("x1", "x34", None), ("x1", "x35", None), ("x1", "x45", None)],
    "x12": [("x", "x12", None), ("x1", "x12", "+2*N-2"), ("x2", "x12", "-2*N-1"),
            ("x3", "x12", None), ("x4", "x12", None), ("x5", "x12", None),
            ("x12", "x12", None), ("x12", "x13", None), ("x12", "x14", None),
            ("x12", "x15", None), ("x12", "x23", None), ("x12", "x24", None),
            ("x12", "x25", None), ("x12", "x34", "+2*N5"),
            ("x12", "x35", "-2*N4"), ("x12", "x45", "+2*N3")],
}


def verify_parametrization():
    """Check symbolically that e*(1, M, Pf M) satisfies all ten quadrics.

    Substitutes x -> e, x_ij -> e*m_ij, x_i -> e*Pf_i(m) with independent
    symbols e, m_ij and requires each equation to vanish identically.
    """
    rename = {pair_name(i, j): MPoly.var(f"m{i}{j}") for i, j in PAIRS}
    pf_m = [p.substitute(rename) for p in pfaffian_equations()]
    e = MPoly.var("e")
    mapping = {"x": e}
    for i, j in PAIRS:
        mapping[pair_name(i, j)] = e * rename[pair_name(i, j)]
    for i in range(1, 6):
        mapping[f"x{i}"] = e * pf_m[i - 1]
    checks = []
    for name, eq in zip(EQUATION_NAMES, equations()):
        checks.append((f"parametrization kills {name}",
                       eq.substitute(mapping).is_zero()))
    return {"checks": checks, "ok": all(flag for _, flag in checks)}


def second_syzygy_degree_check(weights):
    """Degree consistency of the three stored second-syzygy columns.

    Entry (a, b, correction) in column v at row w must be the quadratic
    monomial a*b = v*w of weight wt(v) + wt(w); a correction +-2N_k must have
    the same weight.
    """
    def wt(name):
        idx = VERTEX_NAMES.index(name)
        return weights.vertex_weight(VERTICES[idx])

    d2 = weights.d2()
    for col_name, rows in SECOND_SYZYGY_COLUMNS.items():
        if len(rows) != 16:
            return False
        for row_name, (a, b, corr) in zip(VERTEX_NAMES, rows):
            if sorted((a, b)) != sorted((col_name, row_name)):
                return False
            degree = wt(col_name) + wt(row_name)
            if corr is not None:
                token = corr.split("*")[-1]        # "N3" or "N-4"
                k = int(token[1:])
                corr_deg2 = d2 - weights.w2[k - 1] if k > 0 \
                    else d2 + weights.w2[-k - 1]
                if corr_deg2 % 2 or corr_deg2 // 2 != degree:
                    return False
    return True


# -- membership and parametrization -------------------------------------------

def parametrize(e, matrix):
    """The simple spinor e*(1, M, Pf M) as a map vertex name -> value."""
    e = Fraction(e)
    point = {"x": e}
    for i, j in PAIRS:
        point[pair_name(i, j)] = e * Fraction(matrix.get((i, j), 0))
    pfs = pfaffians_at(matrix)
    for i in range(1, 6):
        point[f"x{i}"] = e * pfs[i - 1]
    return point


def membership(e, matrix, p):
    """True iff e*P = Pf M and M*P = 0 hold exactly."""
    e = Fraction(e)
    p = [Fraction(v) for v in p]
    pfs = pfaffians_at(matrix)
    if any(e * p[i] != pfs[i] for i in range(5)):
        return False
    for i in range(1, 6):
        total = Fraction(0)
        for j in range(1, 6):
            if i == j:
                continue
            v = Fraction(matrix.get((i, j), 0)) if i < j else -Fraction(matrix.get((j, i), 0))
            total += v * p[j - 1]
        if total:
            return False
    return True


def point_satisfies_equations(point):
    """Evaluate all ten quadrics at a 16-coordinate point (name -> value)."""
    assign = {name: Fraction(point.get(name, 0)) for name in VERTEX_NAMES}
    return [eq.evaluate(assign) for eq in equations()]


# -- weight data ----------------------------------------------------------------

@dataclass(frozen=True)
class OGrWeights:
    """Weight data (w_1..w_5; u): doubled half-integer weights plus overall u.

    Unlike the Pfaffian family the overall weight cannot be absorbed; it enters
    the numerator through t^{2d-u} and t^{2d+u} separately.
    """

    w2: tuple
    u: int
    family = "wogr510"
    dim = 10

    def __post_init__(self):
        w2 = tuple(sorted(int(v) for v in self.w2))
        if len(w2) != 5:
            raise ValueError("need exactly five weights")
        if len({v % 2 for v in w2}) != 1:
            raise ValueError("doubled weights must share one parity")
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "u", int(self.u))
        # the smallest of u, u + s - w_i and u + w_i + w_j
        if self.u + min(0, sum(w2[:4]) // 2, (w2[0] + w2[1]) // 2) < 1:
            bad = sorted(w for _, w in self.coordinates() if w < 1)
            raise ValueError(f"coordinate weights must be positive, found {bad}")

    @classmethod
    def of(cls, w2, u2):
        """Build from doubled weights and doubled overall weight."""
        u2 = int(u2)
        if u2 % 2:
            raise ValueError("overall weight must be an integer (doubled value even)")
        return cls(w2, u2 // 2)

    # -- numerology --------------------------------------------------------------

    def d2(self):
        """Doubled value of d = s + 2u, s the sum of the weights."""
        return sum(self.w2) + 4 * self.u

    def vertex_weight(self, subset):
        j = even_rep(subset)
        num = 2 * self.u + sum(self.w2[i - 1] for i in j)
        assert num % 2 == 0
        return num // 2

    def coordinates(self):
        """The sixteen spinor coordinates with their vertex weights: u at x,
        u + w_i + w_j at x_ij and, as the even representative of {i} is its
        complement, u + s - w_i at x_i."""
        w2, u2 = self.w2, 2 * self.u
        s2 = u2 + sum(w2)
        return list(zip(VERTEX_NAMES, [self.u] + [(s2 - v) // 2 for v in w2]
                        + [(u2 + a + b) // 2 for a, b in itertools.combinations(w2, 2)]))

    def coordinate_weights(self):
        return tuple(sorted(w for _, w in self.coordinates()))

    def equations(self):
        return list(equations())

    def numerator_terms(self):
        """Numerator 1 - t^d Q_V + t^{2d-u} Q_S- - t^{2d+u} Q_S+ + t^{3d} Q_V - t^{4d}
        as {exponent: nonzero integer coefficient}."""
        d2, coords = self.d2(), self.coordinate_weights()
        doubled = Counter([0] + [3 * d2 + s * v for v in self.w2 for s in (1, -1)]
                          + [2 * d2 - 2 * wt for wt in coords])
        doubled.subtract([4 * d2] + [d2 + s * v for v in self.w2 for s in (1, -1)]
                         + [2 * d2 + 2 * wt for wt in coords])
        if any(e2 % 2 for e2 in doubled):
            raise AssertionError("weight parity violated in numerator assembly")
        num = {e2 // 2: c for e2, c in doubled.items() if c}
        if num and min(num) < 0:
            raise ValueError("numerator has negative exponents: invalid weights")
        return num

    def hilbert_series(self):
        """``numerator_terms`` over the sixteen coordinate weights."""
        return HilbertSeries(LaurentPoly(self.numerator_terms()), self.coordinate_weights())

    def resolution_degrees(self):
        """Degree banks of the six-term resolution."""
        d2 = self.d2()
        relations = sorted((d2 - v) // 2 for v in self.w2) \
            + sorted((d2 + v) // 2 for v in self.w2)
        twod = d2
        wts = [self.vertex_weight(v) for v in VERTICES]
        first = sorted(twod - w for w in wts)
        second = sorted(twod + w for w in wts)
        third = sorted((3 * d2 - v) // 2 for v in self.w2) \
            + sorted((3 * d2 + v) // 2 for v in self.w2)
        return {
            "relations": tuple(sorted(relations)),
            "first_syzygies": tuple(first),
            "second_syzygies": tuple(second),
            "third_syzygies": tuple(sorted(third)),
            "top": (2 * d2,),
        }

    def top_exponent(self):
        """The numerator ends in -t^{4d}."""
        return 2 * self.d2()

    def adjunction(self):
        return 2 * self.d2()

    def canonical_degree(self):
        """K = O(-4d); the sixteen weights sum to 8d and the adjunction number is 4d."""
        return -2 * self.d2()

    def charts(self):
        """Sixteen orbifold charts; local weights are pair sums of the flipped w."""
        out = []
        for vert in VERTICES:
            flips = even_rep(vert)
            w2f = [-self.w2[i - 1] if i in flips else self.w2[i - 1]
                   for i in range(1, 6)]
            local = tuple((w2f[i] + w2f[j]) // 2
                          for i in range(5) for j in range(i + 1, 5))
            out.append(Chart(label=vertex_name(vert),
                             order=self.vertex_weight(vert),
                             local_weights=local))
        return out

    def is_well_formed(self):
        return charts_well_formed(self.charts())

    def canonical_form(self):
        """Distinguished orbit representative under signed permutations.

        Prefers the representative without negative weights when the orbit
        contains one, then the lexicographically smallest (weights, u).
        """
        best = None
        for k in (0, 2, 4):
            for flips in itertools.combinations(range(1, 6), k):
                u2 = 2 * self.u + sum(self.w2[i - 1] for i in flips)
                w2 = tuple(sorted(-self.w2[i - 1] if i in flips else self.w2[i - 1]
                                  for i in range(1, 6)))
                assert u2 % 2 == 0
                key = (w2[0] < 0, w2, u2 // 2)
                if best is None or key < best:
                    best = key
        return OGrWeights(best[1], best[2])

    def to_json(self):
        return {"w2": list(self.w2), "u2": 2 * self.u}

    def __str__(self):
        ws = ",".join(str(Fraction(v, 2)) for v in self.w2)
        return f"wOGr(5,10; w=({ws}), u={self.u})"
