"""The codimension-3 Pfaffian family: weights, equations, Hilbert data."""

import random
import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from wgk import matcher
from wgk.matcher import enumerate_gr_weights
from wgk.oracle import graded_dimension
from wgk.polynomials import MPoly
from wgk.series import LaurentPoly, exact_div
from wgk.spinor import membership, parametrize
from wgk.wgrass25 import (GrWeights, fit_pfaffian_weights, pfaffian_equations,
                          pfaffians_at, skew_times, verify_gr_identities)
from wgk.wogr510 import OGrWeights

W1 = GrWeights((1, 1, 1, 1, 3))
W2 = GrWeights((1, 1, 1, 3, 3))
STRAIGHT = GrWeights((1,) * 5)


def test_weight_validation():
    with pytest.raises(ValueError, match="parity"):
        GrWeights((1, 1, 1, 1, 2))
    with pytest.raises(ValueError, match="positive"):
        GrWeights((-3, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="five"):
        GrWeights((1, 1, 1))


def test_u_absorption():
    # integral weights (0,0,0,0,0) with u=1 is the straight family
    assert GrWeights.of((0, 0, 0, 0, 0), 2) == STRAIGHT
    assert GrWeights.of((0, 0, 0, 0, 2), 2) == W1
    with pytest.raises(ValueError, match="integer"):
        GrWeights.of((1, 1, 1, 1, 1), 1)


def test_both_families_refuse_an_odd_doubled_overall_weight_alike():
    message = re.escape("overall weight must be an integer (doubled value even)")
    for build in (lambda: GrWeights.of((1, 1, 1, 1, 1), 1),
                  lambda: OGrWeights.of((0, 0, 0, 0, 0), -3)):
        with pytest.raises(ValueError, match=message):
            build()
    assert OGrWeights.of((0, 0, 0, 0, 2), 2) == OGrWeights((0, 0, 0, 0, 2), 1)
    assert GrWeights.of((2, 2, 2, 2, 4), -2) == GrWeights((1, 1, 1, 1, 3))


def test_plucker_weights():
    assert STRAIGHT.plucker_weights() == (1,) * 10
    assert W1.plucker_weights() == (1,) * 6 + (2,) * 4
    assert W2.plucker_weights() == (1, 1, 1, 2, 2, 2, 2, 2, 2, 3)


def test_numerology():
    assert W1.resolution_degrees()["relations"] == (2, 3, 3, 3, 3)
    assert W1.top_exponent() == 7
    assert W1.canonical_degree() == -7
    assert W2.resolution_degrees()["relations"] == (3, 3, 4, 4, 4)
    assert Fraction(sum(STRAIGHT.w2), 2) == Fraction(5, 2)
    assert STRAIGHT.resolution_degrees()["relations"] == (2,) * 5
    assert STRAIGHT.canonical_degree() == -5


def test_resolution_degrees():
    assert W1.resolution_degrees() == {"relations": (2, 3, 3, 3, 3),
                                       "first_syzygies": (4, 4, 4, 4, 5), "top": (7,)}


def reference_banks(w):
    """The Pfaffian resolution stated in full: Pf_i in degree d - w_i, its
    syzygy in degree d + w_i, and the top 2d."""
    d2, w2 = sum(w.w2), w.w2
    return {"relations": tuple(sorted((d2 - v) // 2 for v in w2)),
            "first_syzygies": tuple(sorted((d2 + v) // 2 for v in w2)), "top": (d2,)}


@st.composite
def gr_weights(draw):
    """Doubled weights of either parity, lifted until w_1 + w_2 > 0."""
    p = draw(st.integers(0, 1))
    w2 = sorted(2 * k + p for k in draw(st.lists(st.integers(-6, 6), min_size=5, max_size=5)))
    lift = 2 * max(0, -(w2[0] + w2[1]) // 4 + 1)
    return GrWeights([v + lift for v in w2])


def assert_banks_are_the_reference(w):
    assert list(w.resolution_degrees().items()) == list(reference_banks(w).items()), w
    # Gorenstein duality: num(t) = -t^top num(1/t)
    terms, top = w.numerator_terms(), w.top_exponent()
    assert all(terms.get(top - e) == -c for e, c in terms.items()), w


def test_derived_banks_equal_the_reference_for_every_model():
    models = [GrWeights(*fields) for fields in matcher._ENUMERATE["wgr25"](12, 6, None)]
    assert {v % 2 for w in models for v in w.w2} == {0, 1}
    for w in models:
        assert_banks_are_the_reference(w)


@settings(max_examples=200, deadline=None)
@given(gr_weights())
def test_derived_banks_equal_the_reference(w):
    assert_banks_are_the_reference(w)


def test_adjunction_pairs_with_dual_syzygy_degrees():
    for w in (STRAIGHT, W1, W2):
        banks = w.resolution_degrees()
        for pf, syz in zip(banks["relations"], reversed(banks["first_syzygies"])):
            assert pf + syz == w.top_exponent()


def test_adjunction_bookkeeping():
    # minus the sum of coordinate weights plus the adjunction number equals
    # the canonical degree: -4d + 2d = -2d
    rng = random.Random(19)
    for _ in range(50):
        w = random_gr_weights(rng)
        assert -sum(w.plucker_weights()) + w.top_exponent() == w.canonical_degree()


def test_hilbert_series_closed_forms():
    assert STRAIGHT.hilbert_series().numerator == LaurentPoly(
        {0: 1, 2: -5, 3: 5, 5: -1})
    assert W1.hilbert_series().numerator == LaurentPoly(
        {0: 1, 2: -1, 3: -4, 4: 4, 5: 1, 7: -1})
    assert W1.hilbert_series().coefficient(1) == 6


def test_hilbert_numerator_consistency():
    for w in (STRAIGHT, W1, W2):
        series = w.hilbert_series()
        assert series.hilbert_numerator(w.plucker_weights()) == series.numerator


def test_numerator_is_alternating_sum_over_degree_banks():
    for w in (STRAIGHT, W1, W2, GrWeights((1, 1, 3, 3, 5))):
        banks = w.resolution_degrees()
        terms = [(0, 1), (w.top_exponent(), -1)]
        terms.extend((e, -1) for e in banks["relations"])
        terms.extend((e, 1) for e in banks["first_syzygies"])
        assert LaurentPoly(terms) == w.hilbert_series().numerator


def test_degree():
    assert STRAIGHT.degree() == 5
    assert W1.degree() == Fraction(13, 16)      # (4 - 26 + 35) / 16
    assert W2.degree() == Fraction(7, 48)       # (14 - 70 + 84) / 192
    # cross-checks against the worked sections
    assert W1.degree() * 2 ** 3 == Fraction(13, 2)
    assert W2.degree() * 2 ** 5 == Fraction(14, 3)


def _binom3(m):
    return m * (m - 1) * (m - 2) // 6


def test_degree_equals_the_pfaffian_closed_form():
    # the resolution's alternating sum of C(e, 3) over the banks, over the
    # product of the ten coordinate weights
    for w in [GrWeights(*fields) for fields in enumerate_gr_weights(10)] + [GrWeights((2, 2, 2, 4, 4))]:
        d2 = sum(w.w2)
        top = (sum(_binom3((d2 - v) // 2) - _binom3((d2 + v) // 2) for v in w.w2)
               + _binom3(d2))
        assert w.degree() == Fraction(top, prod(w.coordinate_weights())), w


def test_pfaffian_equations_fixed_signs():
    pf5 = pfaffian_equations()[4]
    x12, x34 = "x12", "x34"
    expect = {(("x12", 1), ("x34", 1)): Fraction(1),
              (("x13", 1), ("x24", 1)): Fraction(-1),
              (("x14", 1), ("x23", 1)): Fraction(1)}
    assert pf5.coeffs == expect


def test_pfaffians_at_elementary_matrix():
    vals = pfaffians_at({(1, 2): 1, (3, 4): 1})
    assert vals == [0, 0, 0, 0, 1]


@pytest.mark.parametrize("key", [(2, 1), (1, 1), (1, 6), (0, 1), "x12"])
def test_a_skew_matrix_key_off_the_upper_triangle_is_refused(key):
    # (2, 1) was read as 0: the Pfaffians came out zero and membership held
    readers = (pfaffians_at, lambda m: parametrize(1, m), lambda m: membership(1, m, [0] * 5))
    for read in readers:
        with pytest.raises(ValueError, match=re.escape(f"key {key!r} is not a pair")):
            read({key: 1, (3, 4): 1})


def test_skew_times_a_unit_column_is_a_column_of_the_skew_matrix():
    for j in range(1, 6):
        column = [MPoly.const(int(k == j)) for k in range(1, 6)]
        expect = [MPoly.var(f"x{i}{j}") if i < j else -MPoly.var(f"x{j}{i}") if i > j
                  else MPoly() for i in range(1, 6)]
        assert skew_times(column) == expect


def test_identities_all_pass():
    report = verify_gr_identities()
    assert report["ok"]
    assert len(report["checks"]) == 31      # 5 + 20 + 5 + 1


def test_identities_catch_a_corrupted_sign():
    pfs = list(pfaffian_equations())
    pfs[2] = -pfs[2]
    report = verify_gr_identities(pfaffians=pfs)
    assert not report["ok"]
    assert any(name.startswith("(a)") and not ok
               for name, ok in report["checks"])


def test_charts():
    charts = {ch.label: ch for ch in W1.charts()}
    assert charts["x45"].order == 2
    assert charts["x45"].local_weights == (1, 1, 1, 2, 2, 2)
    charts2 = {ch.label: ch for ch in W2.charts()}
    assert charts2["x45"].order == 3
    assert charts2["x45"].local_weights == (2, 2, 2, 2, 2, 2)
    assert all(ch.order == 1 for ch in STRAIGHT.charts())


def test_well_formedness():
    assert W1.is_well_formed() == (True, None)
    assert STRAIGHT.is_well_formed() == (True, None)
    flag, witness = GrWeights((2, 2, 2, 2, 2)).is_well_formed()
    assert not flag and "gcd" in witness


def test_fit_pfaffian_weights():
    rows = [[0, 1, 1, 1, 2],
            [1, 0, 1, 1, 2],
            [1, 1, 0, 1, 2],
            [1, 1, 1, 0, 2],
            [2, 2, 2, 2, 0]]
    assert fit_pfaffian_weights(rows) == tuple(
        Fraction(x, 2) for x in (1, 1, 1, 1, 3))
    ones = [[1] * 5 for _ in range(5)]
    assert fit_pfaffian_weights(ones) == (Fraction(1, 2),) * 5
    bad = [row[:] for row in ones]
    bad[3][4] = bad[4][3] = 2
    assert fit_pfaffian_weights(bad) is None


def reference_fit_pfaffian_weights(degree_matrix):
    """fit_pfaffian_weights as it was: a symmetry pass, then the upper triangle."""
    d = {}
    for i in range(5):
        for j in range(5):
            if i != j:
                d[(i, j)] = Fraction(degree_matrix[i][j])
    for i in range(5):
        for j in range(5):
            if i != j and d[(i, j)] != d[(j, i)]:
                return None
    w = [None] * 5
    w[0] = exact_div(d[(0, 1)] + d[(0, 2)] - d[(1, 2)], 2)
    for j in range(1, 5):
        w[j] = d[(0, j)] - w[0]
    for i in range(5):
        for j in range(i + 1, 5):
            if w[i] + w[j] != d[(i, j)]:
                return None
    return tuple(w)


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def degree_matrices(draw):
    """d_ij = w_i + w_j for random half-integers w, as it is, with one entry or
    one symmetric pair changed, or with independent entries; the diagonal is
    None, since neither fit reads it."""
    w = [Fraction(k, 2) for k in draw(st.lists(st.integers(-8, 8), min_size=5, max_size=5))]
    matrix = [[None if i == j else w[i] + w[j] for j in range(5)] for i in range(5)]
    kind = draw(st.sampled_from(["fit", "entry", "pair", "asymmetric"]))
    if kind in ("entry", "pair"):
        i, j = draw(st.permutations(range(5)))[:2]
        delta = draw(SMALL.filter(bool))
        matrix[i][j] += delta
        if kind == "pair":
            matrix[j][i] += delta
    elif kind == "asymmetric":
        matrix = [[None if i == j else draw(SMALL) for j in range(5)] for i in range(5)]
    return matrix


@settings(max_examples=300, deadline=None)
@given(degree_matrices())
def test_fit_agrees_with_the_two_pass_reference(matrix):
    fit, reference = fit_pfaffian_weights(matrix), reference_fit_pfaffian_weights(matrix)
    assert fit == reference
    assert [type(v) for v in fit or ()] == [type(v) for v in reference or ()]


def test_fit_roundtrip_on_valid_weights():
    rng = random.Random(7)
    for _ in range(25):
        w = sorted(rng.choice([1, 1, 1, 3, 3, 5]) for _ in range(5))
        try:
            gw = GrWeights(tuple(w))
        except ValueError:
            continue
        matrix = [[0] * 5 for _ in range(5)]
        ws = tuple(Fraction(v, 2) for v in gw.w2)
        for i in range(5):
            for j in range(5):
                if i != j:
                    matrix[i][j] = ws[i] + ws[j]
        assert fit_pfaffian_weights(matrix) == ws


def random_gr_weights(rng, max_w2=8):
    while True:
        parity = rng.choice((0, 1))
        w2 = sorted(rng.randrange(-max_w2 + ((-max_w2 - parity) % 2),
                                  max_w2 + 1, 2) for _ in range(5))
        try:
            return GrWeights(tuple(w2))
        except ValueError:
            continue


def test_gorenstein_symmetry_of_numerator():
    rng = random.Random(11)
    for _ in range(200):
        w = random_gr_weights(rng)
        num = w.hilbert_series().numerator
        top = w.top_exponent()
        assert num.max_exp() == top
        for e, c in num.coeffs.items():
            assert c == -num[top - e]


def test_expansion_matches_brute_force_oracle():
    for w, depth in ((STRAIGHT, 4), (W1, 5), (W2, 5)):
        closed = w.hilbert_series().expand(depth)
        for m in range(depth + 1):
            assert graded_dimension("wgr25", w, m) == closed[m]
