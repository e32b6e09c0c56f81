"""The orbifold Riemann-Roch engine against its generating function, the
closed forms it replaced, and the worked 3-folds."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from wgk.orbifold_rr import (PeriodicTable, RRData, hilbert_can3, hilbert_cy3,
                             hilbert_series, local_term, plurigenus)
from wgk.sections import AmbientModel, section_series, singularity_analysis
from wgk.series import HilbertSeries, LaurentPoly, denominator_poly

FIFTH_334 = local_term(5, (3, 3, 4))
CAN3 = RRData.canonical3(pg=7, kcubed=21, half_points=2)
CY3 = RRData.cy3(acubed=Fraction(6, 5), ac2=Fraction(108, 5), points=(FIFTH_334,))


def test_plurigenus_can3_values():
    got = [plurigenus(CAN3, n) for n in range(9)]
    assert got == [1, 7, 29, 83, 190, 370, 645, 1035, 1562]


def test_plurigenus_can3_low_degrees():
    assert plurigenus(RRData.canonical3(3, 5, 1), 0) == 1
    assert plurigenus(RRData.canonical3(3, 5, 1), 1) == 3


def test_hilbert_can3_matches_term_formula():
    series = hilbert_can3(CAN3)
    expansion = series.expand(40)
    for n in range(41):
        assert expansion[n] == plurigenus(CAN3, n)


def test_hilbert_can3_numerator():
    series = hilbert_can3(CAN3)
    assert series.hilbert_numerator((1, 1, 1, 2)) == LaurentPoly(
        {0: 1, 1: 4, 2: 10, 3: 12, 4: 10, 5: 4, 6: 1})


def test_hilbert_can3_intersection_number_is_kcubed():
    assert hilbert_can3(CAN3).intersection_number(3) == 21
    other = RRData.canonical3(4, Fraction(5, 2), 1)
    assert hilbert_can3(other).intersection_number(3) == Fraction(5, 2)


def test_genus_only_branch():
    assert hilbert_can3(RRData.canonical3(1, 2, 0)).coefficient(1) == 1


def test_plurigenus_cy3_values():
    got = [plurigenus(CY3, n) for n in range(9)]
    assert got == [1, 2, 5, 11, 20, 34, 54, 81, 117]
    assert plurigenus(CY3, 2) == 5          # includes c(2) = -1/5
    assert plurigenus(CY3, 5) == 34         # c(5) = c(0) = 0


def test_hilbert_cy3_closed_form():
    series = hilbert_cy3(CY3)
    target = HilbertSeries(
        LaurentPoly({0: 1, 1: -2, 2: 3, 3: -1, 4: -1, 5: 1, 6: 1, 7: -3,
                     8: 2, 9: -1}), (1, 1, 1, 1, 5))
    assert series == target
    expansion = series.expand(40)
    for n in range(41):
        assert expansion[n] == plurigenus(CY3, n)


def test_hilbert_cy3_intersection_number_is_acubed():
    assert hilbert_cy3(CY3).intersection_number(3) == Fraction(6, 5)


def test_zero_tables_drop_out():
    padded = RRData.cy3(CY3.acubed, CY3.ac2,
                        (FIFTH_334, local_term(3, (1, 1, 1)), local_term(3, (2, 2, 2))))
    assert hilbert_cy3(padded) == hilbert_cy3(CY3)
    assert [plurigenus(padded, n) for n in range(12)] == \
        [plurigenus(CY3, n) for n in range(12)]


def test_integrality_of_both_data_sets():
    for n in range(51):
        a = plurigenus(CAN3, n)
        b = plurigenus(CY3, n)
        assert a.denominator == 1 and a >= 0
        assert b.denominator == 1 and b >= 0


def test_periodicity_of_cy_contributions():
    period = lcm(*(t.r for t in CY3.points))
    for n in range(1, 20):
        m = n + period
        diff = plurigenus(CY3, m) - plurigenus(CY3, n)
        poly_diff = (CY3.acubed / 6 * (m ** 3 - n ** 3)
                     + CY3.ac2 / 12 * (m - n))
        assert diff == poly_diff


def test_periodic_table_validation():
    with pytest.raises(ValueError, match="c\\(0\\)"):
        PeriodicTable(3, (1, 0, 0))
    with pytest.raises(ValueError, match="need exactly r = 3 values, got 2"):
        PeriodicTable(3, (0, 0))
    with pytest.raises(ValueError, match="order r must be positive, got 0"):
        PeriodicTable(0, ())
    table = PeriodicTable(4, (0, Fraction(1, 2), 0, Fraction(-1, 2)))
    assert table.at(5) == Fraction(1, 2)
    assert table.at(8) == 0


@pytest.mark.parametrize("point", [(3, (1, 1, 1)), local_term(3, (1, 1, 1)).values, None])
def test_a_point_that_is_not_a_periodic_table_is_refused_by_name(point):
    # else the data constructs and plurigenus fails later on a missing ``at``
    with pytest.raises(TypeError, match=r"^points\[1\] = .* is not a PeriodicTable$"):
        RRData(0, 1, 0, 0, (local_term(5, (3, 3, 4)), point))


def test_local_terms_of_the_cy3_basket():
    assert FIFTH_334 == PeriodicTable(5, (0, 0, Fraction(-1, 5), Fraction(1, 5), 0))
    third = local_term(3, (1, 1, 1))
    assert third == PeriodicTable(3, (0, Fraction(1, 9), Fraction(-1, 9)))
    assert local_term(3, (2, 2, 2)) == PeriodicTable(3, (0, Fraction(-1, 9), Fraction(1, 9)))
    # a point the hand-written tables refused now has a term
    assert local_term(7, (1, 2, 4)).values == tuple(
        Fraction(c, 7) for c in (0, 1, 1, -1, 1, -1, -1))


def test_local_term_refuses_with_the_point_named():
    with pytest.raises(ValueError, match=r"1/4\(1,2,1\) is not an isolated"):
        local_term(4, (1, 2, 1))
    # a term that does not vanish at 0 is no longer refused: it is normalised,
    # and the constant it loses is carried by chi and A.c2
    assert local_term(5, (3, 3, 3)).values[0] == 0
    assert local_term(2, (1, 1, 1)) == PeriodicTable(2, (0, Fraction(-1, 8)))


def units(r):
    return st.integers(1, r - 1).filter(lambda a: gcd(a, r) == 1)


def isolated_points():
    """1/r(a_1..a_n) with n <= 4 and every a_i prime to r; half the draws are
    1/r(a, b, -a-b), whose raw term vanishes at 0."""
    any_point = st.integers(2, 30).flatmap(lambda r: st.tuples(
        st.just(r), st.lists(units(r), min_size=1, max_size=4).map(tuple)))
    gorenstein = st.integers(2, 30).flatmap(lambda r: st.tuples(
        st.just(r), st.tuples(units(r), units(r)).map(lambda ab: ab + ((-sum(ab)) % r,))
        .filter(lambda w: gcd(w[2], r) == 1)))
    return st.one_of(any_point, gorenstein)


@settings(max_examples=300, deadline=None)
@given(isolated_points())
def test_local_term_satisfies_its_defining_identity(point):
    # C(x) prod(1 - x^a_i) = 1 - N/r in Q[x]/(x^r - 1), where C = sum c(m) x^m
    # and N = sum_j x^j
    # (the identity holds for the raw term c and for c - c(0) alike: N x^a = N)
    r, weights = point
    values = local_term(r, weights).values
    assert values[0] == 0
    product = LaurentPoly(dict(enumerate(values)))
    for a in weights:
        product = product * LaurentPoly({0: 1, a: -1})
    reduced = LaurentPoly((e % r, c) for e, c in product.items())
    assert reduced == LaurentPoly({j: int(j == 0) - Fraction(1, r) for j in range(r)})


def test_validation():
    with pytest.raises(ValueError):
        RRData.canonical3(-1, 2, 0)
    with pytest.raises(ValueError, match="positive"):
        RRData.cy3(0, 1, ())
    with pytest.raises(ValueError):
        plurigenus(CAN3, -1)
    with pytest.raises(ValueError, match="k <= 1"):
        RRData(2, 1, 0, 0)


# -- the one formula against the closed forms it replaced --------------------------

def old_can3(pg, kcubed, half_points, n):
    """The pointwise canonical 3-fold formula that had its own closed form:
    1, p_g, then n(n-1)(2n-1)/12 K^3 + (2n-1)(p_g-1) + h floor(n/2)/4."""
    if n < 2:
        return (1, pg)[n]
    return (Fraction(n * (n - 1) * (2 * n - 1), 12) * kcubed + (2 * n - 1) * (pg - 1)
            + half_points * Fraction(n // 2, 4))


def old_cy3(acubed, ac2, tables, n):
    """The pointwise Calabi-Yau formula: 1, then A^3 n^3/6 + A.c2 n/12 + sum c(n)."""
    if n == 0:
        return 1
    return acubed * Fraction(n ** 3, 6) + ac2 * Fraction(n, 12) + sum(t.at(n) for t in tables)


def added(a, b):
    """a + b, cross-multiplied over both denominators and made canonical, as
    every sum of series was before one construction replaced them."""
    num = (a.numerator * denominator_poly(b.denominator)
           + b.numerator * denominator_poly(a.denominator))
    return HilbertSeries(num, a.denominator + b.denominator).canonical()


def old_series(*terms):
    """The closed forms were sums, each made canonical, of these terms:
    (numerator, denominator, scale)."""
    total = HilbertSeries(LaurentPoly.one())
    for num, den, c in terms:
        total = added(total, HilbertSeries(LaurentPoly(num).scale(c), den))
    return total.canonical()


def two_part_series(data):
    """The two-part assembly that ``hilbert_series`` replaced: P(0..5) less the
    tables times (1 - t)^4, cut below degree 6 and made canonical, plus
    (sum c(k) t^k) / (1 - t^r) for each table, one sum at a time."""
    values = [plurigenus(data, n) - sum(t.at(n) for t in data.points) for n in range(6)]
    num = LaurentPoly(dict(enumerate(values))) * denominator_poly((1, 1, 1, 1))
    total = HilbertSeries(LaurentPoly((e, c) for e, c in num.items() if e < 6),
                          (1, 1, 1, 1)).canonical()
    for table in data.points:
        total = added(total, HilbertSeries(LaurentPoly(dict(enumerate(table.values))), (table.r,)))
    return total


def old_hilbert_can3(pg, kcubed, half_points):
    return old_series(({1: 1}, (), 1), ({1: 1, 2: 1}, (1, 1), pg - 1),
                      ({2: 1, 3: 1}, (1, 1, 1, 1), kcubed / 2),
                      ({2: 1}, (1, 2), Fraction(half_points, 4)))


def old_hilbert_cy3(acubed, ac2, tables):
    return old_series(({1: 1, 2: 4, 3: 1}, (1, 1, 1, 1), acubed / 6), ({1: 1}, (1, 1), ac2 / 12),
                      *((dict(enumerate(t.values)), (t.r,), 1) for t in tables))


fractions = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 5, 12]))


def tables():
    """The term of a Gorenstein point 1/r(a, b, -a-b), or any table with c(0) = 0."""
    gorenstein = st.integers(2, 9).flatmap(lambda r: st.tuples(units(r), units(r)).map(
        lambda ab: (r, ab + ((-sum(ab)) % r,)))).filter(lambda p: gcd(p[1][2], p[0]) == 1)
    free = st.integers(1, 9).flatmap(lambda r: st.lists(
        fractions, min_size=r - 1, max_size=r - 1).map(lambda c: PeriodicTable(r, [0] + c)))
    return st.one_of(gorenstein.map(lambda p: local_term(*p)), free)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), fractions.filter(lambda k: k > 0), st.integers(0, 6))
def test_plurigenus_and_series_equal_the_old_canonical3_formula(pg, kcubed, half_points):
    data = RRData.canonical3(pg, kcubed, half_points)
    old = [old_can3(pg, kcubed, half_points, n) for n in range(31)]
    assert [plurigenus(data, n) for n in range(31)] == old
    assert hilbert_series(data).expand(30) == old
    # the printed form, which canonical() does not make unique, is the old one
    assert hilbert_can3(data).to_json() == old_hilbert_can3(pg, kcubed, half_points).to_json()


@settings(max_examples=200, deadline=None)
@given(st.integers(-1, 1), fractions.filter(lambda a: a > 0), fractions, fractions,
       st.lists(tables(), max_size=4))
def test_the_series_is_the_two_part_assembly_and_expands_to_plurigenus(k, acubed, chi, ac2,
                                                                       points):
    data = RRData(k, acubed, chi, ac2, points)
    series, reference = hilbert_series(data), two_part_series(data)
    assert series == reference
    # canonical() does not make the printed form unique: it is the old one too
    assert series.to_json() == reference.to_json()
    assert series.expand(60) == [plurigenus(data, n) for n in range(61)]


@settings(max_examples=50, deadline=None)
@given(fractions.filter(lambda k: k <= 0), st.integers(0, 12), st.integers(0, 6))
def test_a_non_positive_cube_is_refused(cube, pg, half_points):
    # K is ample on a canonical 3-fold and A on a polarized Calabi-Yau 3-fold
    with pytest.raises(ValueError, match=f"^K3 must be positive, got {cube}$"):
        RRData.canonical3(pg, cube, half_points)
    with pytest.raises(ValueError, match=f"^A3 must be positive, got {cube}$"):
        RRData.cy3(cube, 1)


@settings(max_examples=150, deadline=None)
@given(fractions.filter(lambda a: a > 0), fractions, st.lists(tables(), max_size=3))
def test_plurigenus_and_series_equal_the_old_cy3_formula(acubed, ac2, points):
    data = RRData.cy3(acubed, ac2, points)
    old = [old_cy3(acubed, ac2, points, n) for n in range(31)]
    assert [plurigenus(data, n) for n in range(31)] == old
    assert hilbert_series(data).expand(30) == old
    assert hilbert_cy3(data).to_json() == old_hilbert_cy3(acubed, ac2, points).to_json()


def test_the_half_point_term_is_floor_n_over_2_over_4_less_n_over_8():
    half = local_term(2, (1, 1, 1))
    for n in range(-40, 41):
        assert half.at(n) == Fraction(n // 2, 4) - Fraction(n, 8)


def test_fano3_genus4_is_the_formula_at_k_minus_1():
    # wGr(2,5) w = (1/2,1/2,1/2,1/2,3/2) cut by three quadrics: K = -A,
    # A^3 = 13/2, one 1/2(1,1,1) point, chi = 1, -K.c2 = 24 - 3/2
    model, cut = AmbientModel.from_json({"family": "wgr25", "w2": [1, 1, 1, 1, 3], "u2": 0}), (2, 2, 2)
    assert [(str(s), n) for s, n in singularity_analysis(model, cut).basket] == [("1/2(1,1,1)", 1)]
    data = RRData(-1, Fraction(13, 2), 1, 24 - Fraction(3, 2), (local_term(2, (1, 1, 1)),))
    series = section_series(model, cut)
    assert hilbert_series(data) == series
    assert [plurigenus(data, n) for n in range(41)] == series.expand(40)
