"""Paper-only structures of weighted OGr(5,10): the spinor graph, the Weyl
group W(D5) of signed permutations, the printed second-syzygy columns and the
parametrization e*(1, M, Pf M).  No command needs them, so no module that
a command loads imports this one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .polynomials import MPoly
from .series import InternalError, Record, coefficient
from .wgrass25 import PAIRS, pair_name, pfaffian_equations, pfaffians_at, skew_values
from .wogr510 import EQUATION_NAMES, FULL, VERTEX_NAMES, VERTICES, canonical_vertex, equations


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


class SpinorGraph(Record):
    """16 vertices, 40 edges (direction, frozenset{v, w}) in 5 parallel
    directions, and ``quads``: direction -> two remote quads of 4 edges each."""
    _fields = ("vertices", "edges", "quads")

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
            raise InternalError("remote quads must split 8 parallel edges 4+4")
        for quad in (quad1, quad2):
            for e1, e2 in itertools.combinations(quad, 2):
                if not _remote(e1, e2, adjacency):
                    raise InternalError("quad edges must be pairwise remote")
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
            raise InternalError("runaway order computation")
    return n


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
    the same weight, read off the first monomial of the equation N_k.
    """
    wt = dict(weights.coordinates())
    eqs = dict(zip(EQUATION_NAMES, equations()))
    for col_name, rows in SECOND_SYZYGY_COLUMNS.items():
        if len(rows) != 16:
            return False
        for row_name, (a, b, corr) in zip(VERTEX_NAMES, rows):
            if sorted((a, b)) != sorted((col_name, row_name)):
                return False
            if corr is not None:
                monomial = next(iter(eqs[corr.split("*")[-1]].coeffs))   # "N3" or "N-4"
                if sum(wt[v] * e for v, e in monomial) != wt[col_name] + wt[row_name]:
                    return False
    return True


# -- membership and parametrization -------------------------------------------

def parametrize(e, matrix):
    """The simple spinor e*(1, M, Pf M) as a map vertex name -> value."""
    e = Fraction(coefficient(e))
    point = {"x": e, **{name: e * v for name, v in skew_values(matrix).items()}}
    point.update((f"x{i}", e * pf) for i, pf in enumerate(pfaffians_at(matrix), start=1))
    return point


def membership(e, matrix, p):
    """True iff e*P = Pf M and M*P = 0 hold exactly: the ten quadrics vanish at
    x = e, x_ij = m_ij and x_i = p_i."""
    point = {"x": e, **skew_values(matrix),
             **dict(zip([f"x{i}" for i in range(1, 6)], p, strict=True))}
    return not any(point_satisfies_equations(point))


def point_satisfies_equations(point):
    """Evaluate all ten quadrics at a 16-coordinate point (name -> value), an
    absent coordinate 0.  ValueError names a key outside ``VERTEX_NAMES``."""
    for key in point:
        if key not in VERTEX_NAMES:
            raise ValueError(f"spinor coordinate {key!r} is not one of x, x1..x5, x12..x45")
    assign = {name: point.get(name, 0) for name in VERTEX_NAMES}
    return [eq.evaluate(assign) for eq in equations()]
