"""Plurigenus formulas against their closed forms, on the worked 3-folds."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from wgk.orbifold_rr import (CY3Data, Canonical3Data, PeriodicTable,
                             hilbert_can3, hilbert_cy3, local_term,
                             plurigenus_can3, plurigenus_cy3)
from wgk.series import HilbertSeries, LaurentPoly

FIFTH_334 = local_term(5, (3, 3, 4))
CAN3 = Canonical3Data(pg=7, kcubed=21, half_points=2)
CY3 = CY3Data(acubed=Fraction(6, 5), ac2=Fraction(108, 5), points=(FIFTH_334,))


def test_plurigenus_can3_values():
    got = [plurigenus_can3(CAN3, n) for n in range(9)]
    assert got == [1, 7, 29, 83, 190, 370, 645, 1035, 1562]


def test_plurigenus_can3_low_degrees():
    assert plurigenus_can3(Canonical3Data(3, 5, 1), 0) == 1
    assert plurigenus_can3(Canonical3Data(3, 5, 1), 1) == 3


def test_hilbert_can3_matches_term_formula():
    series = hilbert_can3(CAN3)
    expansion = series.expand(40)
    for n in range(41):
        assert expansion[n] == plurigenus_can3(CAN3, n)


def test_hilbert_can3_numerator():
    series = hilbert_can3(CAN3)
    assert series.hilbert_numerator((1, 1, 1, 2)) == LaurentPoly(
        {0: 1, 1: 4, 2: 10, 3: 12, 4: 10, 5: 4, 6: 1})


def test_hilbert_can3_intersection_number_is_kcubed():
    assert hilbert_can3(CAN3).intersection_number(3) == 21
    other = Canonical3Data(4, Fraction(5, 2), 1)
    assert hilbert_can3(other).intersection_number(3) == Fraction(5, 2)


def test_genus_only_branch():
    assert hilbert_can3(Canonical3Data(1, 2, 0)).coefficient(1) == 1


def test_plurigenus_cy3_values():
    got = [plurigenus_cy3(CY3, n) for n in range(9)]
    assert got == [1, 2, 5, 11, 20, 34, 54, 81, 117]
    assert plurigenus_cy3(CY3, 2) == 5          # includes c(2) = -1/5
    assert plurigenus_cy3(CY3, 5) == 34         # c(5) = c(0) = 0


def test_hilbert_cy3_closed_form():
    series = hilbert_cy3(CY3)
    target = HilbertSeries(
        LaurentPoly({0: 1, 1: -2, 2: 3, 3: -1, 4: -1, 5: 1, 6: 1, 7: -3,
                     8: 2, 9: -1}), (1, 1, 1, 1, 5))
    assert series.series_equal(target)
    expansion = series.expand(40)
    for n in range(41):
        assert expansion[n] == plurigenus_cy3(CY3, n)


def test_hilbert_cy3_intersection_number_is_acubed():
    assert hilbert_cy3(CY3).intersection_number(3) == Fraction(6, 5)


def test_zero_tables_drop_out():
    padded = CY3Data(CY3.acubed, CY3.ac2,
                     (FIFTH_334, local_term(3, (1, 1, 1)), local_term(3, (2, 2, 2))))
    assert hilbert_cy3(padded).series_equal(hilbert_cy3(CY3))
    assert [plurigenus_cy3(padded, n) for n in range(12)] == \
        [plurigenus_cy3(CY3, n) for n in range(12)]


def test_integrality_of_both_data_sets():
    for n in range(51):
        a = plurigenus_can3(CAN3, n)
        b = plurigenus_cy3(CY3, n)
        assert a.denominator == 1 and a >= 0
        assert b.denominator == 1 and b >= 0


def test_periodicity_of_cy_contributions():
    period = lcm(*(t.r for t in CY3.points))
    for n in range(1, 20):
        m = n + period
        diff = plurigenus_cy3(CY3, m) - plurigenus_cy3(CY3, n)
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
    with pytest.raises(ValueError, match=r"1/5\(3,3,3\) has local term -1/5 at 0"):
        local_term(5, (3, 3, 3))


def units(r):
    return st.integers(1, r - 1).filter(lambda a: gcd(a, r) == 1)


def isolated_points():
    """1/r(a_1..a_n) with n <= 4 and every a_i prime to r; half the draws are
    1/r(a, b, -a-b), whose term always vanishes at 0."""
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
    r, weights = point
    try:
        values = local_term(r, weights).values
    except ValueError as exc:
        assert len(weights) != 3 or sum(weights) % r
        assert str(exc).startswith(f"1/{r}({','.join(map(str, weights))}) has local term")
        return
    assert sum(values) == 0
    product = LaurentPoly(dict(enumerate(values)))
    for a in weights:
        product = product * LaurentPoly({0: 1, a: -1})
    reduced = LaurentPoly((e % r, c) for e, c in product.items())
    assert reduced == LaurentPoly({j: int(j == 0) - Fraction(1, r) for j in range(r)})


def test_validation():
    with pytest.raises(ValueError):
        Canonical3Data(-1, 2, 0)
    with pytest.raises(ValueError, match="positive"):
        CY3Data(0, 1, ())
    with pytest.raises(ValueError):
        plurigenus_can3(CAN3, -1)
