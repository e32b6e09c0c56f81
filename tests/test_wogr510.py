"""The spinor-coordinate family: graph, group, equations, Hilbert data."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wgk import matcher, spinor
from wgk.oracle import GradedRing, graded_dimension
from wgk.polynomials import MPoly
from wgk.series import LaurentPoly
from wgk.wgrass25 import PAIRS, GrWeights, pfaffian_equations, pfaffians_at, skew_entry
from wgk.spinor import (membership, parametrize, point_satisfies_equations,
                        second_syzygy_degree_check, spinor_graph, verify_parametrization,
                        wd5_compose, wd5_element_order, wd5_elements, wd5_generators,
                        wd5_identity, wd5_vertex_action, wd5_weight_action)
from wgk.wogr510 import (EQUATION_NAMES, OGrWeights, VERTEX_NAMES, VERTICES,
                         canonical_vertex, equations, even_rep, first_syzygies,
                         verify_ogr_syzygies, vertex_name)

EX1 = OGrWeights((0, 0, 0, 0, 2), 1)
EX2 = OGrWeights((0, 0, 2, 2, 4), 1)
STRAIGHT = OGrWeights((0, 0, 0, 0, 0), 1)


# -- graph ------------------------------------------------------------------

def test_vertex_identification():
    assert canonical_vertex({1, 2, 3}) == frozenset({4, 5})
    assert canonical_vertex({2, 3, 4, 5}) == frozenset({1})
    assert vertex_name(frozenset()) == "x"
    assert vertex_name({3, 4, 5}) == "x12"


def test_graph_counts():
    g = spinor_graph()
    assert len(g.vertices) == 16
    assert len(g.edges) == 40
    for direction in range(1, 6):
        assert sum(1 for d, _ in g.edges if d == direction) == 8


def test_neighbours_of_origin():
    g = spinor_graph()
    assert [vertex_name(v) for v in g.neighbours(frozenset())] == [
        "x1", "x2", "x3", "x4", "x5"]


def test_direction_one_quads():
    g = spinor_graph()
    named = [{frozenset(vertex_name(v) for v in e) for e in quad}
             for quad in g.quads[1]]
    assert {frozenset({"x", "x1"}), frozenset({"x23", "x45"}),
            frozenset({"x24", "x35"}), frozenset({"x25", "x34"})} in named
    assert {frozenset({"x2", "x12"}), frozenset({"x3", "x13"}),
            frozenset({"x4", "x14"}), frozenset({"x5", "x15"})} in named


def test_quads_partition_each_direction():
    g = spinor_graph()
    for direction in range(1, 6):
        q1, q2 = g.quads[direction]
        parallel = {e for d, e in g.edges if d == direction}
        assert set(q1) | set(q2) == parallel
        assert not set(q1) & set(q2)


# -- the signed permutation group ----------------------------------------------

def test_group_order():
    assert len(wd5_elements()) == 1920


def test_identity_fixes_vertices():
    e = wd5_identity()
    for v in VERTICES:
        assert wd5_vertex_action(e, v) == v


def test_generators_satisfy_coxeter_relations():
    gens = wd5_generators()
    assert all(wd5_element_order(g) == 2 for g in gens)
    adjacency = {(0, 1), (1, 2), (2, 3), (2, 4)}   # chain with a fork at the end
    for i, j in itertools.combinations(range(5), 2):
        order = wd5_element_order(wd5_compose(gens[i], gens[j]))
        assert order == (3 if (i, j) in adjacency else 2)


def test_generators_generate_the_group():
    gens = wd5_generators()
    seen = {wd5_identity()}
    frontier = [wd5_identity()]
    while frontier:
        nxt = []
        for g in frontier:
            for t in gens:
                h = wd5_compose(t, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    assert seen == set(wd5_elements())


def test_group_action_permutes_quads():
    g = spinor_graph()
    all_quads = {frozenset(quad) for quads in g.quads.values() for quad in quads}
    for element in wd5_generators():
        for quad in all_quads:
            image = frozenset(
                frozenset(wd5_vertex_action(element, v) for v in e)
                for e in quad)
            assert image in all_quads


def doubled_d(w):
    """2d = s + 4u, s the sum of the doubled weights: the relations lie in degrees d ± w_i."""
    return sum(w.w2) + 4 * w.u


def test_weight_action_preserves_coordinate_weights():
    rng = random.Random(3)
    elements = wd5_elements()
    for w in (EX1, EX2, OGrWeights((1, 1, 1, 3, 3), 2)):
        base = w.coordinate_weights()
        d2 = doubled_d(w)
        for _ in range(20):
            g = elements[rng.randrange(len(elements))]
            w2, u2 = wd5_weight_action(g, w.w2, 2 * w.u)
            assert u2 % 2 == 0
            moved = OGrWeights(w2, u2 // 2)
            assert moved.coordinate_weights() == base
            assert doubled_d(moved) == d2
            assert moved.hilbert_series().numerator == w.hilbert_series().numerator


def test_hilbert_series_invariant_under_weight_permutation():
    # sorting on construction implements the invariance; spot check directly
    a = OGrWeights((4, 0, 2, 2, 0), 1)
    assert a == EX2
    assert a.hilbert_series().numerator == EX2.hilbert_series().numerator


# -- equations and syzygies -------------------------------------------------------

def test_equation_n1():
    n1 = equations()[0]
    want = {(("x", 1), ("x1", 1)): Fraction(1),
            (("x23", 1), ("x45", 1)): Fraction(-1),
            (("x24", 1), ("x35", 1)): Fraction(1),
            (("x25", 1), ("x34", 1)): Fraction(-1)}
    assert n1.coeffs == want


def reference_equations():
    """The ten quadrics as built before M*v was read from skew_times."""
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


def test_equations_equal_the_hand_built_rows_term_for_term():
    # the same polynomials with their terms in the same order
    assert equations() == reference_equations()
    assert ([list(eq.coeffs.items()) for eq in equations()]
            == [list(eq.coeffs.items()) for eq in reference_equations()])


def test_equations_supported_on_quads():
    g = spinor_graph()
    all_quads = {frozenset(frozenset(vertex_name(v) for v in e) for e in quad)
                 for quads in g.quads.values() for quad in quads}
    for eq in equations():
        support = frozenset(frozenset(v for v, _ in mono) for mono in eq.coeffs)
        assert support in all_quads


def test_equation_weights():
    # N_i has weight d - w_i and N_-i has weight d + w_i
    for w in (EX1, EX2, STRAIGHT):
        # GradedRing rejects an equation that is not weighted-homogeneous
        degrees = [deg for deg, _ in GradedRing(w.coordinates(), w.equations()).equations]
        assert len(degrees) == 10
        d2 = doubled_d(w)
        for idx, deg in enumerate(degrees):
            i = idx + 1 if idx < 5 else -(idx - 4)
            expected2 = d2 - w.w2[i - 1] if i > 0 else d2 + w.w2[-i - 1]
            assert deg * 2 == expected2


def test_membership_and_parametrization():
    assert membership(1, {}, [0, 0, 0, 0, 0])
    assert not membership(1, {}, [1, 0, 0, 0, 0])
    rng = random.Random(5)
    from wgk.wgrass25 import PAIRS, pfaffians_at
    for _ in range(10):
        m = {(i, j): Fraction(rng.randint(-6, 6), rng.randint(1, 5))
             for i, j in PAIRS}
        assert membership(1, m, pfaffians_at(m))
        point = parametrize(Fraction(rng.randint(1, 7)), m)
        assert all(v == 0 for v in point_satisfies_equations(point))
    point = parametrize(1, {(1, 2): 1, (3, 4): 1})
    assert point["x"] == 1 and point["x12"] == 1 and point["x34"] == 1
    assert point["x5"] == 1
    assert sum(1 for v in point.values() if v) == 4
    assert parametrize(0, {(1, 2): 9}) == {name: 0 for name in VERTEX_NAMES}
    unit = parametrize(1, {})
    assert unit["x"] == 1 and sum(1 for v in unit.values() if v) == 1


@pytest.mark.parametrize("key", ["x2345", "x01", "x21", "y", 1])
def test_a_spinor_coordinate_outside_the_vertex_names_is_refused(key):
    # x2345 (the other name of the vertex x1) and x01 were read as 0: ten zeros
    assert point_satisfies_equations({"x": 1, "x1": 1})[0] == 1
    with pytest.raises(ValueError, match=re.escape(f"spinor coordinate {key!r} is not one of")):
        point_satisfies_equations({"x": 1, key: 1})
    # every point membership and parametrize build still evaluates
    assert membership(1, {(1, 2): 1, (3, 4): 1}, [0, 0, 0, 0, 1])
    assert not any(point_satisfies_equations(parametrize(2, {(1, 2): 1, (3, 4): 1})))


def reference_membership(e, matrix, p):
    """membership as it was: e*P = Pf M, then M*P = 0, written out by hand."""
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


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def spinor_triples(draw):
    """(e, M, P): e is 0 or small, M generic or of rank 2 (so Pf M = 0), and P is
    Pf(M)/e, or 0 when e = 0, perturbed in one entry or not."""
    e = draw(st.sampled_from([0]) | SMALL)
    if draw(st.booleans()):
        m = {pair: draw(SMALL) for pair in PAIRS}
    else:
        a, b = (draw(st.lists(SMALL, min_size=5, max_size=5)) for _ in range(2))
        m = {(i, j): a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1] for i, j in PAIRS}
    p = [pf / e if e else Fraction(0) for pf in pfaffians_at(m)]
    if draw(st.booleans()):
        p[draw(st.integers(0, 4))] += draw(SMALL.filter(bool))
    return e, m, p


@settings(max_examples=300, deadline=None)
@given(spinor_triples())
def test_membership_agrees_with_the_hand_written_rule(triple):
    assert membership(*triple) == reference_membership(*triple)


def test_parametrization_identity():
    assert verify_parametrization()["ok"]


def test_first_syzygy_columns():
    table = first_syzygies()
    col_x = [table[row][0] for row in range(10)]
    assert all(entry.is_zero() for entry in col_x[:5])
    for i, entry in enumerate(col_x[5:], start=1):
        assert entry.coeffs == {((f"x{i}", 1),): Fraction(1)}
    # third column (vertex x2) has entry x12 against the first equation
    assert table[0][2].coeffs == {(("x12", 1),): Fraction(1)}
    for col in range(16):
        entries = [table[row][col] for row in range(10)]
        support = [v for e in entries for mono in e.coeffs for v, _ in mono]
        assert len(support) == 5
        neighbours = {vertex_name(v) for v in
                      spinor_graph().neighbours(VERTICES[col])}
        assert set(support) == neighbours


def test_syzygy_identity():
    report = verify_ogr_syzygies()
    assert report["ok"]
    assert len(report["checks"]) == 16


def test_syzygy_numeric_spot_check():
    rng = random.Random(12)
    from wgk.wgrass25 import PAIRS
    m = {(i, j): Fraction(rng.randint(-5, 5)) for i, j in PAIRS}
    point = parametrize(Fraction(3, 2), m)
    assign = {name: point[name] for name in VERTEX_NAMES}
    eq_vals = point_satisfies_equations(point)
    table = first_syzygies()
    for col in range(16):
        total = sum((table[row][col].evaluate(assign) * eq_vals[row]
                     for row in range(10)), Fraction(0))
        assert total == 0


# -- numerology ---------------------------------------------------------------------

def test_coordinate_weights():
    assert EX1.coordinate_weights() == (1,) * 8 + (2,) * 8
    assert EX2.coordinate_weights() == (1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                        4, 4, 4, 4, 5, 5)
    assert STRAIGHT.coordinate_weights() == (1,) * 16


def test_hilbert_numerators():
    assert EX1.hilbert_series().numerator == LaurentPoly(
        {0: 1, 2: -1, 3: -8, 4: 7, 5: 8, 7: -8, 8: -7, 9: 8, 10: 1, 12: -1})
    assert STRAIGHT.hilbert_series().numerator == LaurentPoly(
        {0: 1, 2: -10, 3: 16, 5: -16, 6: 10, 8: -1})


def test_invalid_weights_raise():
    with pytest.raises(ValueError, match="positive"):
        OGrWeights((0, 0, 0, 0, 0), 0)
    with pytest.raises(ValueError, match="integer"):
        OGrWeights.of((0, 0, 0, 0, 0), 3)
    with pytest.raises(ValueError, match="parity"):
        OGrWeights((0, 1, 0, 0, 0), 1)


def test_resolution_degrees():
    banks = EX1.resolution_degrees()
    assert banks["relations"] == (2, 3, 3, 3, 3, 3, 3, 3, 3, 4)
    assert banks["top"] == (12,)
    d2 = doubled_d(EX1)
    tot = banks["relations"]
    assert sum(tot) * 2 == len(tot) * d2            # average d
    first = banks["first_syzygies"]
    assert sum(first) * 4 == len(first) * 3 * d2    # average 3d/2
    second = banks["second_syzygies"]
    assert sum(second) * 4 == len(second) * 5 * d2  # average 5d/2
    third = banks["third_syzygies"]
    assert sum(third) * 2 == len(third) * 3 * d2    # average 3d
    straight = STRAIGHT.resolution_degrees()
    assert straight["relations"] == (2,) * 10
    assert straight["first_syzygies"] == (3,) * 16


def reference_banks(w):
    """The six-term resolution stated in full: the relations in degrees d ± w_i,
    the first syzygies in 2d - a and the second in 2d + a over the coordinate
    weights a, the third in 3d ± w_i and the top in 4d."""
    d2, wts = doubled_d(w), w.coordinate_weights()
    relations = sorted((d2 + s * v) // 2 for v in w.w2 for s in (-1, 1))
    return {"relations": tuple(relations),
            "first_syzygies": tuple(d2 - a for a in reversed(wts)),
            "second_syzygies": tuple(d2 + a for a in wts),
            "third_syzygies": tuple(d2 + e for e in relations),
            "top": (2 * d2,)}


@st.composite
def ogr_weights(draw):
    """Doubled weights of either parity, with u just large enough or more."""
    p = draw(st.integers(0, 1))
    w2 = sorted(2 * k + p for k in draw(st.lists(st.integers(-6, 6), min_size=5, max_size=5)))
    least = min(0, sum(w2[:4]) // 2, (w2[0] + w2[1]) // 2)    # the least weight at u = 0
    return OGrWeights(w2, 1 - least + draw(st.integers(0, 3)))


def assert_banks_are_the_reference(w):
    assert list(w.resolution_degrees().items()) == list(reference_banks(w).items()), w
    # Gorenstein duality: num(t) = -t^top num(1/t)
    terms, top = w.numerator_terms(), w.top_exponent()
    assert all(terms.get(top - e) == -c for e, c in terms.items()), w


def test_derived_banks_equal_the_reference_for_every_model():
    models = [OGrWeights(*fields) for fields in matcher._ENUMERATE["wogr510"](12, 6, None)]
    assert {v % 2 for w in models for v in w.w2} == {0, 1}
    for w in models:
        assert_banks_are_the_reference(w)


@settings(max_examples=200, deadline=None)
@given(ogr_weights())
def test_derived_banks_equal_the_reference(w):
    assert_banks_are_the_reference(w)


def test_resolution_degrees_match_numerator_bands():
    # the numerator is exactly the alternating sum over the degree banks, in
    # resolution order with the top last, for both families
    signs = {"relations": -1, "first_syzygies": 1, "second_syzygies": -1,
             "third_syzygies": 1, "top": -1}
    for w in (EX1, EX2, STRAIGHT, OGrWeights((1, 1, 3, 3, 5), 2),
              GrWeights((1, 1, 1, 1, 3)), GrWeights((1, 1, 3, 3, 5)), GrWeights((0, 2, 2, 2, 4))):
        banks = w.resolution_degrees()
        assert list(banks) == [bank for bank in signs if bank in banks]
        assert banks["top"] == (w.top_exponent(),)
        terms = [(0, 1)]
        for bank, sign in signs.items():
            terms.extend((e, sign) for e in banks.get(bank, ()))
        assert LaurentPoly(terms) == w.hilbert_series().numerator


def test_canonical_degree():
    assert EX1.canonical_degree() == -12
    assert EX2.canonical_degree() == -24
    assert STRAIGHT.canonical_degree() == -8
    for w in (EX1, EX2, STRAIGHT):
        # the sixteen weights sum to 8d, and adjunction 4d gives K = O(-4d)
        assert sum(w.coordinate_weights()) == 4 * doubled_d(w)
        assert -sum(w.coordinate_weights()) + 2 * doubled_d(w) == w.canonical_degree()


def test_charts():
    charts = {ch.label: ch for ch in EX1.charts()}
    assert charts["x"].order == 1
    x2 = charts["x2"]
    assert x2.order == 2
    assert sum(1 for w in x2.local_weights if w % 2 == 1) == 4
    # chart at the origin vertex has local weights w_i + w_j
    chart_x = {ch.label: ch for ch in EX2.charts()}["x"]
    assert chart_x.order == 1
    assert sorted(chart_x.local_weights) == sorted(
        (EX2.w2[i] + EX2.w2[j]) // 2 for i in range(5) for j in range(i + 1, 5))


def test_second_syzygy_degree_consistency():
    for w in (EX1, EX2, STRAIGHT, OGrWeights((1, 1, 1, 1, 3), 1)):
        assert second_syzygy_degree_check(w)


def test_a_correction_naming_the_wrong_equation_fails_the_degree_check(monkeypatch):
    w = OGrWeights((0, 2, 2, 4, 4), 1)      # w_2 = 1: N2 has degree d - 1, N-2 has d + 1
    assert second_syzygy_degree_check(w)
    column = list(spinor.SECOND_SYZYGY_COLUMNS["x1"])
    assert column[6] == ("x1", "x12", "+2*N-2")
    column[6] = ("x1", "x12", "+2*N2")
    monkeypatch.setitem(spinor.SECOND_SYZYGY_COLUMNS, "x1", column)
    assert not second_syzygy_degree_check(w)


def test_gorenstein_symmetry_sign_twisted():
    rng = random.Random(23)
    count = 0
    while count < 200:
        parity = rng.choice((0, 1))
        w2 = tuple(sorted(rng.randrange(parity, 9, 2) for _ in range(5)))
        u = rng.randint(1, 4)
        try:
            w = OGrWeights(w2, u)
            num = w.hilbert_series().numerator
        except ValueError:
            continue
        count += 1
        top = 2 * doubled_d(w)
        assert num.max_exp() == top
        for e, c in num.coeffs.items():
            assert c == -num[top - e]


def test_expansion_matches_brute_force_oracle():
    for w, depth in ((STRAIGHT, 2), (EX1, 4), (EX2, 5)):
        closed = w.hilbert_series().expand(depth)
        for m in range(depth + 1):
            assert graded_dimension("wogr510", w, m) == closed[m]


def test_canonical_form_orbit_minimum():
    w = OGrWeights((0, 0, 0, 0, 2), 1)
    # acting by any flip pattern lands back on the same canonical form
    g = ((1, 2, 3, 4, 5), frozenset({4, 5}))
    w2, u2 = wd5_weight_action(g, w.w2, 2 * w.u)
    moved = OGrWeights(w2, u2 // 2)
    assert moved.canonical_form() == w.canonical_form()
