"""Exact series arithmetic: expansion, numerators, intersection numbers."""

from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from wgk import series
from wgk.matcher import _target_at2
from wgk.polynomials import MPoly
from wgk.series import (HilbertSeries, LaurentPoly, SeriesError, denominator_poly,
                        exact_div, one_minus, over_one_minus, times_one_minus)


def F(x):
    return Fraction(x)


def test_geometric_square_expansion():
    h = HilbertSeries(LaurentPoly.one(), (1, 1))
    assert h.expand(3) == [1, 2, 3, 4]


def test_canonical_threefold_expansion():
    # regular 3-fold of general type with genus 7, K^3 = 21, two half points
    num = LaurentPoly({0: 1, 1: 4, 2: 10, 3: 12, 4: 10, 5: 4, 6: 1})
    h = HilbertSeries(num, (1, 1, 1, 2))
    assert [int(c) for c in h.expand(8)] == [1, 7, 29, 83, 190, 370, 645, 1035, 1562]


def test_straight_plucker_series_expansion():
    # independent oracle: dim of degree-m piece is (m+1)(m+2)^2(m+3)^2(m+4)/144
    h = HilbertSeries(LaurentPoly({0: 1, 2: -5, 3: 5, 5: -1}), (1,) * 10)
    got = [int(c) for c in h.expand(3)]
    want = [(m + 1) * (m + 2) ** 2 * (m + 3) ** 2 * (m + 4) // 144
            for m in range(4)]
    assert want == [1, 10, 50, 175]
    assert got == want


def test_expansion_is_linear_and_multiplicative():
    h1 = HilbertSeries(LaurentPoly({0: 1, 3: 2}), (1, 2))
    h2 = HilbertSeries(LaurentPoly({1: 1}), (1, 1, 5))
    n = 12
    s1, s2 = h1.expand(n), h2.expand(n)
    total = HilbertSeries(h1.numerator * denominator_poly(h2.denominator)
                          + h2.numerator * denominator_poly(h1.denominator),
                          h1.denominator + h2.denominator)
    assert total.expand(n) == [a + b for a, b in zip(s1, s2)]
    prod = HilbertSeries(h1.numerator * h2.numerator,
                         h1.denominator + h2.denominator)
    conv = [sum(s1[k] * s2[m - k] for k in range(m + 1)) for m in range(n + 1)]
    assert prod.expand(n) == conv


def test_expand_rejects_uncleared_negative_exponents():
    h = HilbertSeries(LaurentPoly({-1: 1}), (1,))
    with pytest.raises(SeriesError):
        h.expand(4)


def test_laurent_shift_clears_negative_exponents():
    p = LaurentPoly({-1: 1, 0: 1})
    ok = HilbertSeries(p.shift(1), (1,))
    assert [int(c) for c in ok.expand(2)] == [1, 2, 2]


def test_hilbert_numerator_projective_space():
    h = HilbertSeries(LaurentPoly.one(), (1, 1, 1))
    assert h.hilbert_numerator((1, 1, 1)) == LaurentPoly.one()


def test_hilbert_numerator_canonical_threefold():
    num = LaurentPoly({0: 1, 1: 4, 2: 10, 3: 12, 4: 10, 5: 4, 6: 1})
    h = HilbertSeries(num, (1, 1, 1, 2))
    cleared = h.hilbert_numerator((1,) * 7 + (2, 2))
    prefix = {0: 1, 2: -1, 3: -8, 4: 7, 5: 8, 7: -8}
    for e, c in prefix.items():
        assert cleared[e] == c


def test_hilbert_numerator_cy_threefold():
    num = LaurentPoly({0: 1, 1: -2, 2: 3, 3: -1, 4: -1, 5: 1, 6: 1, 7: -3,
                       8: 2, 9: -1})
    h = HilbertSeries(num, (1, 1, 1, 1, 5))
    assert h.hilbert_numerator((1, 1, 2, 2, 5)) == LaurentPoly(
        {0: 1, 3: 3, 5: -2, 6: 2, 8: -3, 11: -1})


def test_hilbert_numerator_rejects_non_clearing_denominator():
    h = HilbertSeries(LaurentPoly.one(), (3,))
    with pytest.raises(SeriesError, match="does not clear"):
        h.hilbert_numerator((2,))


@pytest.mark.parametrize("degree", [0, -2])
def test_hilbert_numerator_names_a_degree_that_is_not_a_positive_integer(degree):
    # 0 once cleared to a zero numerator and -2 raised IndexError
    h = HilbertSeries(LaurentPoly.one(), (1, 1))
    with pytest.raises(SeriesError) as info:
        h.hilbert_numerator((degree, 1, 1))
    assert str(info.value) == f"generator degrees must be positive, found [{degree}]"


def test_numerator_roundtrip_reproduces_expansion():
    h = HilbertSeries(LaurentPoly({0: 1, 4: 2, 7: -1}), (1, 1, 2, 3))
    num = h.hilbert_numerator((1, 2, 2, 3, 5))
    back = HilbertSeries(num, (1, 2, 2, 3, 5))
    assert back.expand(30) == h.expand(30)
    assert back == h


def test_intersection_number_projective_space():
    assert HilbertSeries(LaurentPoly.one(), (1, 1, 1, 1)).intersection_number(3) == 1


def test_intersection_number_cy_example():
    num = LaurentPoly({0: 1, 1: -2, 2: 3, 3: -1, 4: -1, 5: 1, 6: 1, 7: -3,
                       8: 2, 9: -1})
    h = HilbertSeries(num, (1, 1, 1, 1, 5))
    assert h.intersection_number(3) == F("6/5")


def test_intersection_number_fano_section():
    from wgk.wgrass25 import GrWeights
    amb = GrWeights((1, 1, 1, 1, 3)).hilbert_series()
    section = HilbertSeries(amb.numerator * denominator_poly((2, 2, 2)), amb.denominator)
    assert section.intersection_number(3) == F("13/2")


def test_intersection_number_pole_mismatch_names_actual_order():
    with pytest.raises(SeriesError, match="pole order at t=1 is 4"):
        HilbertSeries(LaurentPoly.one(), (1, 1, 1, 1)).intersection_number(2)


def test_intersection_number_cone_scaling():
    h = HilbertSeries(LaurentPoly({0: 2, 1: 1}), (1, 2, 3))
    for a in (1, 2, 5):
        coned = HilbertSeries(h.numerator, h.denominator + (a,))
        assert coned.intersection_number(3) == h.intersection_number(2) / a


def test_methods_on_projective_line():
    h = HilbertSeries(LaurentPoly.one(), (1, 1))
    assert h.expand(2) == [1, 2, 3]
    assert h.hilbert_numerator((1, 1)) == LaurentPoly.one()
    assert h.intersection_number(1) == 1


def test_series_equality_is_cross_multiplied():
    a = HilbertSeries(LaurentPoly({0: 1, 1: 1}), (2,))       # (1+t)/(1-t^2)
    b = HilbertSeries(LaurentPoly.one(), (1,))                # 1/(1-t)
    assert a == b
    assert a != HilbertSeries(LaurentPoly.one(), (2,))


def sparse_equality(h, g):
    """Reference: the cross-multiplied sparse products ``HilbertSeries.__eq__`` once formed."""
    return (h.numerator * denominator_poly(g.denominator)
            == g.numerator * denominator_poly(h.denominator))


@st.composite
def equality_cases(draw):
    """Two series, in either order: one and the same times a shared product of
    (1 - t^a), that one with a term added, or two drawn apart.  Coefficients are
    ints, integral Fractions and proper ones, and exponents may be negative."""
    num = LaurentPoly(draw(mixed_terms()))
    denom = draw(st.lists(st.integers(1, 6), max_size=5))
    h, kind = HilbertSeries(num, denom), draw(st.integers(0, 2))
    if kind < 2:
        extra = draw(st.lists(st.integers(1, 6), max_size=4))
        g = HilbertSeries(num * denominator_poly(extra), denom + extra)
        if kind:
            g = HilbertSeries(g.numerator + LaurentPoly({draw(st.integers(-3, 12)): draw(mixed)}),
                              g.denominator)
    else:
        g = HilbertSeries(LaurentPoly(draw(mixed_terms())),
                          draw(st.lists(st.integers(1, 6), max_size=5)))
    return (h, g) if draw(st.booleans()) else (g, h)


@settings(max_examples=400, deadline=None)
@given(equality_cases())
@example((HilbertSeries(LaurentPoly(), (1,)), HilbertSeries(LaurentPoly(), (2, 3))))
@example((HilbertSeries(LaurentPoly({-2: Fraction(1, 2)}), (1,)),
          HilbertSeries(LaurentPoly({-2: Fraction(1, 2), -1: Fraction(1, 2)}), (2,))))
def test_dense_equality_is_the_cross_multiplied_sparse_equality(pair):
    h, g = pair
    assert (h == g) == (g == h) == sparse_equality(h, g)


def test_canonical_cancels_pairs():
    h = HilbertSeries(one_minus(2) * LaurentPoly({0: 1, 1: 3}), (1, 2, 2))
    c = h.canonical()
    assert len(c.denominator) == 2          # one factor cancelled
    assert c == h
    assert HilbertSeries(LaurentPoly({0: 1, 1: 3}), (1, 2)) == c


def _canonical_by_restarts(h):
    """Reference: cancel the smallest dividing factor, then rescan from the start."""
    num, denom = h.numerator, list(h.denominator)
    changed = True
    while changed and not num.is_zero():
        changed = False
        for a in sorted(set(denom)):
            q = num.divexact(one_minus(a))
            if q is not None:
                num, changed = q, True
                denom.remove(a)
                break
    return num, tuple(denom)


def test_equal_series_hash_equally():
    a = HilbertSeries(LaurentPoly({0: 1, 1: 1}), (2,))       # (1+t)/(1-t^2)
    b = HilbertSeries(LaurentPoly.one(), (1,))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@st.composite
def series_pairs(draw):
    """A series and an equal one: numerator and denominator times prod (1 - t^a)."""
    num = LaurentPoly(draw(st.dictionaries(st.integers(-2, 8), st.integers(-4, 4),
                                           max_size=5)))
    denom = draw(st.lists(st.integers(1, 5), max_size=4))
    extra = draw(st.lists(st.integers(1, 5), max_size=3))
    h = HilbertSeries(num, denom)
    return h, HilbertSeries(num * denominator_poly(extra), denom + extra)


@settings(max_examples=200, deadline=None)
@given(series_pairs())
def test_equal_series_hash_equally_property(pair):
    h, g = pair
    assert h == g
    assert hash(h) == hash(g)
    assert hash(h.canonical()) == hash(h)


@settings(max_examples=200, deadline=None)
@given(series_pairs())
def test_canonical_single_pass_matches_restarting_scan(pair):
    for h in pair:
        c = h.canonical()
        assert (c.numerator, c.denominator) == _canonical_by_restarts(h)


def test_divexact_detects_remainder():
    assert one_minus(3).divexact(one_minus(2)) is None
    q = one_minus(6).divexact(one_minus(2))
    assert q == LaurentPoly({0: 1, 2: 1, 4: 1})


def test_numerator_roundtrip_property():
    import random
    rng = random.Random(41)
    for _ in range(40):
        num = LaurentPoly({rng.randrange(0, 9): rng.randint(-5, 5)
                           for _ in range(rng.randint(1, 6))})
        if num.is_zero():
            continue
        denom = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 5)))
        h = HilbertSeries(num, denom)
        against = denom + tuple(rng.randint(1, 4)
                                for _ in range(rng.randint(0, 3)))
        back = HilbertSeries(h.hilbert_numerator(against), against)
        assert back == h
        order = rng.randrange(5, 30)
        assert back.expand(order) == h.expand(order)


def test_nonnegative_integer_coefficients_for_graded_rings():
    from wgk.wgrass25 import GrWeights
    from wgk.wogr510 import OGrWeights
    for series in (GrWeights((1, 1, 1, 3, 3)).hilbert_series(),
                   OGrWeights((0, 0, 2, 2, 4), 1).hilbert_series()):
        for c in series.expand(25):
            assert c.denominator == 1 and c >= 0


# -- the linear kernels against the quadratic versions they replaced -------------

def _divexact_by_min_rem(a, b):
    """Reference: long division that takes min() of the remainder at each step."""
    if a.is_zero():
        return LaurentPoly()
    bmin, blead = b.min_exp(), b[b.min_exp()]
    max_qexp = a.max_exp() - b.max_exp()
    rem, quot = dict(a.coeffs), {}
    while rem:
        rmin = min(rem)
        e = rmin - bmin
        if e > max_qexp:
            return None
        c = Fraction(rem[rmin]) / blead
        quot[e] = c
        for be, bc in b.coeffs.items():
            v = rem.get(e + be, F(0)) - c * bc
            if v:
                rem[e + be] = v
            else:
                rem.pop(e + be, None)
    return LaurentPoly(quot)


def _numerator_by_full_product(h, gens):
    """Reference: multiply by every generator factor, then divide by every own one."""
    num = h.numerator * denominator_poly(gens)
    for a in h.denominator:
        num = _divexact_by_min_rem(num, one_minus(a))
        if num is None:
            raise SeriesError("denominator does not clear series")
    return num


def _expand_by_recurrence(h, order):
    """Reference: convolve with the multiplied-out denominator polynomial."""
    if h.numerator.is_zero():
        return [F(0)] * (order + 1)
    start = min(0, h.numerator.min_exp())
    pitems = [(e, c) for e, c in denominator_poly(h.denominator).coeffs.items() if e > 0]
    coeffs = {}
    for n in range(start, order + 1):
        acc = h.numerator[n]
        for e, c in pitems:
            if n - e >= start:
                acc -= c * coeffs.get(n - e, F(0))
        coeffs[n] = acc
    if any(coeffs[n] for n in range(start, 0)):
        raise SeriesError("numerator with negative exponents not cleared by expansion")
    return [coeffs.get(n, F(0)) for n in range(order + 1)]


coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def laurent(min_exp=-4, max_exp=8, max_size=6):
    return st.dictionaries(st.integers(min_exp, max_exp), coefficients,
                           max_size=max_size).map(LaurentPoly)


def outcome(fn, *args):
    """fn(*args), or the SeriesError it raises, as a comparable value."""
    try:
        return fn(*args)
    except SeriesError as exc:
        return ("SeriesError", str(exc))


@settings(max_examples=200, deadline=None)
@given(laurent(), laurent(max_size=4).filter(lambda b: not b.is_zero()), laurent())
def test_divexact_matches_min_rem_division(q, b, r):
    # exact products (negative exponents, non-unit leading terms) and
    # products plus a perturbation, which mostly leave a remainder
    for a in (q * b, q * b + r):
        assert a.divexact(b) == _divexact_by_min_rem(a, b)
    if not q.is_zero():
        assert (q * b).divexact(b) == q


def test_divexact_non_unit_leading_term_and_remainder():
    b = LaurentPoly({-1: 3, 2: F("1/2")})
    q = LaurentPoly({-2: F("2/3"), 0: -1, 3: 5})
    assert (q * b).divexact(b) == q
    assert (q * b + LaurentPoly({1: 1})).divexact(b) is None
    assert LaurentPoly({0: 1}).divexact(LaurentPoly({0: 1, 1: 1})) is None


generator_multisets = st.lists(st.integers(1, 5), max_size=5)


@st.composite
def numerator_cases(draw):
    """A series and a generator multiset equal to, overlapping or disjoint from
    its denominator; the numerator is often a multiple of some factors."""
    own = draw(generator_multisets)
    kind = draw(st.sampled_from(("equal", "overlapping", "disjoint")))
    if kind == "equal":
        gens = draw(st.permutations(own))
    elif kind == "overlapping":
        gens = draw(st.lists(st.sampled_from(own), max_size=len(own))) if own else []
        gens += draw(generator_multisets)
    else:
        gens = draw(st.lists(st.integers(1, 7).filter(lambda a: a not in own),
                             max_size=5))
    num = draw(laurent(-2, 6, 4)) * denominator_poly(draw(generator_multisets))
    return HilbertSeries(num, own), gens


@settings(max_examples=300, deadline=None)
@given(numerator_cases())
def test_hilbert_numerator_matches_full_product(case):
    h, gens = case
    if not gens:
        with pytest.raises(SeriesError, match="nonempty"):
            h.hilbert_numerator(gens)
        return
    assert outcome(h.hilbert_numerator, gens) == outcome(_numerator_by_full_product, h, gens)


def test_hilbert_numerator_cancels_equal_multisets_without_dividing():
    h = HilbertSeries(LaurentPoly({0: 1, 3: -2, 7: 1}), (1, 2, 2, 5))
    with mock.patch.object(LaurentPoly, "divexact", side_effect=AssertionError):
        assert h.hilbert_numerator((5, 2, 1, 2)) == h.numerator


@settings(max_examples=300, deadline=None)
@given(laurent(-3, 8, 5), generator_multisets, st.integers(0, 25))
def test_expand_matches_recurrence(num, denom, order):
    h = HilbertSeries(num, denom)
    assert outcome(h.expand, order) == outcome(_expand_by_recurrence, h, order)


# -- the int-or-Fraction kernel against the Fraction-only one it replaced --------

class _FractionPoly:
    """Reference: LaurentPoly arithmetic with every coefficient a Fraction."""

    def __init__(self, coeffs=None):
        self.coeffs = {e: Fraction(c) for e, c in (coeffs or {}).items() if c}

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, e):
        return self.coeffs.get(e, F(0))

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, F(0)) + c
        return _FractionPoly(out)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, F(0)) + c1 * c2
        return _FractionPoly(out)

    def scale(self, c):
        return _FractionPoly({e: Fraction(c) * v for e, v in self.coeffs.items()})

    def __call__(self, value):
        value = Fraction(value)
        if value == 0 and any(e < 0 for e in self.coeffs):
            raise SeriesError("cannot evaluate negative exponents at 0")
        return sum((c * value ** e for e, c in self.coeffs.items()), F(0))

    def divexact(self, other):
        if self.is_zero():
            return _FractionPoly()
        bmin, bmax = min(other.coeffs), max(other.coeffs)
        blead = other.coeffs[bmin]
        rem, quot = dict(self.coeffs), {}
        for e in range(min(rem) - bmin, max(rem) - bmax + 1):
            c = rem.pop(e + bmin, None)
            if c is None:
                continue
            c /= blead
            quot[e] = c
            for be, bc in other.coeffs.items():
                if be != bmin:
                    v = rem.get(e + be, F(0)) - c * bc
                    if v:
                        rem[e + be] = v
                    else:
                        rem.pop(e + be, None)
        return None if rem else _FractionPoly(quot)


def _fraction_denominator_poly(denominator):
    p = _FractionPoly({0: 1})
    for a in denominator:
        p = p * _FractionPoly({0: 1, a: -1})
    return p


def _fraction_canonical(num, denominator):
    denom = list(denominator)
    for a in sorted(set(denom)):
        while a in denom and not num.is_zero():
            q = num.divexact(_FractionPoly({0: 1, a: -1}))
            if q is None:
                break
            num = q
            denom.remove(a)
    return num, tuple(sorted(denom))


def _fraction_expand(num, denominator, order):
    if num.is_zero():
        return [F(0)] * (order + 1)
    low = max(0, -min(num.coeffs))
    coeffs = [num[n] for n in range(-low, order + 1)]
    for a in denominator:
        for i in range(a, len(coeffs)):
            coeffs[i] += coeffs[i - a]
    if any(coeffs[:low]):
        raise SeriesError("numerator with negative exponents not cleared by expansion")
    return coeffs[low:]


def _fraction_hilbert_numerator(num, denominator, gens):
    if not gens:
        raise SeriesError("denominator multiset must be nonempty")
    extra, own = Counter(gens), Counter(denominator)
    num = num * _fraction_denominator_poly((extra - own).elements())
    for a in (own - extra).elements():
        num = num.divexact(_FractionPoly({0: 1, a: -1}))
        if num is None:
            raise SeriesError("denominator does not clear series")
    return num


def _fraction_at2(num):
    """The pre-filter value of ``_ModelIndex.lookup`` as it was: rational evaluation."""
    return int(num(2)) if all(c.denominator == 1 for c in num.coeffs.values()) else None


def _value(result):
    """A comparable form of a kernel result: the coefficient dict of a polynomial."""
    return result.coeffs if isinstance(result, (LaurentPoly, _FractionPoly)) else result


def _stored(result):
    """The coefficients a kernel result holds."""
    if isinstance(result, LaurentPoly):
        return list(result.coeffs.values())
    return result if isinstance(result, list) else []


mixed = st.one_of(st.integers(-4, 4), coefficients)    # ints, integral, proper Fractions


def mixed_terms(min_exp=-3, max_exp=7, max_size=5):
    return st.dictionaries(st.integers(min_exp, max_exp), mixed, max_size=max_size)


def _integral(*values):
    return all(Fraction(v).denominator == 1 for v in values)


POLY_OPS = {
    "mul": lambda p, b, r, c: p * b,
    "add": lambda p, b, r, c: p + r,
    "scale": lambda p, b, r, c: p.scale(c),
    "divexact": lambda p, b, r, c: (p * b).divexact(b),
    "divexact with remainder": lambda p, b, r, c: (p * b + r).divexact(b),
    "at 2": lambda p, b, r, c: p(2),
    "at c": lambda p, b, r, c: p(c),
}


@settings(max_examples=300, deadline=None)
@given(mixed_terms(), mixed_terms(max_size=3).filter(lambda d: any(d.values())),
       mixed_terms(), mixed)
def test_kernel_matches_fraction_only_arithmetic(p, b, r, c):
    new = [LaurentPoly(d) for d in (p, b, r)] + [c]
    old = [_FractionPoly(d) for d in (p, b, r)] + [c]
    integral = _integral(*p.values(), *b.values(), *r.values(), c)
    unit_lead = new[1][new[1].min_exp()] in (1, -1)
    for name, op in POLY_OPS.items():
        got = outcome(op, *new)
        assert _value(got) == _value(outcome(op, *old)), name
        if isinstance(got, LaurentPoly):
            assert all(type(v) in (int, Fraction) for v in got.coeffs.values()), name
            if integral and (unit_lead or not name.startswith("divexact")):
                assert all(type(v) is int for v in got.coeffs.values()), name



@settings(max_examples=200, deadline=None)
@given(mixed_terms(), st.integers(1, 12))
@example({}, 1)                                     # the empty list
@example({-2: 1, 0: Fraction(1, 2)}, 3)             # a at the list's length
@example({-3: 2, -1: -1}, 9)                        # a past it
def test_the_one_minus_loops_match_the_sparse_product_and_quotient(terms, a):
    # each p and p times the factor, so the division is exact about half the time
    factor = one_minus(a)
    for p in (LaurentPoly(terms), LaurentPoly(terms) * factor):
        low = min(p.coeffs, default=0)
        dense = [p[e] for e in range(low, max(p.coeffs, default=low - 1) + 1)]
        coeffs = dense[:]
        times_one_minus(coeffs, a)
        assert LaurentPoly(enumerate(coeffs, low)) == LaurentPoly(
            (e, c) for e, c in (p * factor).coeffs.items() if e < low + len(dense))
        coeffs, quotient = dense[:], p.divexact(factor)
        assert over_one_minus(coeffs, a) == (quotient is not None)
        if quotient is not None:
            assert LaurentPoly(enumerate(coeffs, low)) == quotient

def reference_hilbert_numerator(h, denominator):
    """Reference: the body ``hilbert_numerator`` had before it cleared factor by
    factor.  The shared factors cancel, the numerator is multiplied by the
    product of the other generator factors, then each own factor is divided
    out by ``divexact``."""
    denominator = tuple(denominator)
    if not denominator:
        raise SeriesError("denominator multiset must be nonempty")
    gens, own = Counter(denominator), Counter(h.denominator)
    num = h.numerator * denominator_poly((gens - own).elements())
    for a in (own - gens).elements():
        q = num.divexact(one_minus(a))
        if q is None:
            raise SeriesError("denominator does not clear series")
        num = q
    return num


@st.composite
def clearing_cases(draw):
    """A numerator with int and Fraction coefficients and negative exponents, or
    0, often a multiple of some factors plus at most one stray term; its own
    denominator; and a generator multiset that shares some of its factors and
    adds others."""
    num = draw(st.one_of(st.just({}), mixed_terms(-3, 6, 5)))
    num = (LaurentPoly(num) * denominator_poly(draw(generator_multisets))
           + LaurentPoly(draw(mixed_terms(-3, 12, 1))))
    own = draw(generator_multisets)
    gens = draw(st.lists(st.sampled_from(own), max_size=len(own))) if own else []
    return HilbertSeries(num, own), gens + draw(generator_multisets)


@settings(max_examples=400, deadline=None)
@given(clearing_cases())
# a sum of halves keeps Fraction(1); with its own denominator nothing is cleared
@example((HilbertSeries(LaurentPoly({0: Fraction(1, 2)}) + LaurentPoly({0: Fraction(1, 2)}),
                        (1,)), [1]))
def test_hilbert_numerator_clears_factor_by_factor_as_the_product_did(case):
    h, gens = case
    got = outcome(h.hilbert_numerator, gens)
    assert got == outcome(reference_hilbert_numerator, h, gens)
    if isinstance(got, LaurentPoly) and _integral(*h.numerator.coeffs.values()):
        assert all(type(c) is int for c in got.coeffs.values())


@settings(max_examples=300, deadline=None)
@given(clearing_cases())
@example((HilbertSeries(LaurentPoly({0: 1}), (1, 2, 2, 3)), [2, 3, 3, 4, 1]))
def test_hilbert_numerator_clears_the_counter_differences_of_the_multisets(case):
    # the factors multiplied in are gens - own and those divided out own - gens,
    # each ascending, as the Counter differences give them; a refusal (a failed
    # division, or no generators) ends the passes
    h, gens = case
    with mock.patch.object(series, "times_one_minus", wraps=times_one_minus) as times, \
            mock.patch.object(series, "over_one_minus", wraps=over_one_minus) as over:
        got = outcome(h.hilbert_numerator, gens)
    multiplied = [call.args[1] for call in times.call_args_list]
    divided = [call.args[1] for call in over.call_args_list]
    gens, own = Counter(sorted(gens)), Counter(h.denominator)
    if gens == own or h.numerator.is_zero():
        assert multiplied == divided == []
        return
    missing = list((own - gens).elements())
    assert multiplied == list((gens - own).elements())
    assert divided == (missing[:len(divided)] if isinstance(got, tuple) else missing)


def test_differences_keep_the_order_of_each_operand():
    # a - b in a's order, b - a in b's order, each list.remove dropping the first
    # equal entry: sorted operands give sorted differences, unsorted ones do not
    assert series.differences([3, 1, 2, 1, 5], [1, 4, 5, 0, 4]) == ([3, 2, 1], [4, 0, 4])
    assert series.differences([1, 1, 2, 3, 5], [0, 1, 4, 4, 5]) == ([1, 2, 3], [0, 4, 4])
    assert series.differences([], [2, 1]) == ([], [2, 1])


def test_hilbert_numerator_multiplies_before_it_divides():
    # 1 - t + t^2 divides 1 - t^6 = (1 - t^3)(1 + t)(1 - t + t^2) but not by itself
    h = HilbertSeries(LaurentPoly({0: 1, 1: -1, 2: 1}), (6,))
    assert h.hilbert_numerator((2, 3)) == LaurentPoly({0: 1, 1: -1})
    assert reference_hilbert_numerator(h, (2, 3)) == LaurentPoly({0: 1, 1: -1})
    assert h.numerator.divexact(one_minus(6)) is None


def test_hilbert_numerator_reads_every_one_of_the_top_a_coefficients():
    # (1 + t - t^2) / (1 - t^2) sums to 1 + t + 0 t^2: only the lower of the top
    # two coefficients shows that 1 + t - t^2 = (1 - t^2) + t leaves a remainder
    h = HilbertSeries(LaurentPoly({0: 1, 1: 1, 2: -1}), (2, 2))
    with pytest.raises(SeriesError, match="does not clear"):
        h.hilbert_numerator((2,))


def in_t(p):
    """A LaurentPoly's coefficients keyed as the monomials of an MPoly in t."""
    return {((("t", e),) if e else ()): c for e, c in p.coeffs.items()}


def normal(p):
    """Each stored coefficient is an int unless it is not integral."""
    return all(type(c) is int or c.denominator != 1 for c in p.coeffs.values())


SHARED_OPS = {
    "+": lambda p, q, c: p + q,
    "-": lambda p, q, c: p - q,
    "unary -": lambda p, q, c: -p,
    "scale": lambda p, q, c: p.scale(c),
    "*": lambda p, q, c: p * q,
    "* scalar": lambda p, q, c: c * p,
}


@settings(max_examples=300, deadline=None)
@given(mixed_terms(0, 6), mixed_terms(0, 6), mixed)
def test_laurent_poly_and_mpoly_in_one_variable_agree(p, q, c):
    lp, lq = LaurentPoly(p), LaurentPoly(q)
    mp, mq = (MPoly({(("t", e),): v for e, v in d.items()}) for d in (p, q))
    for name, op in SHARED_OPS.items():
        got_l, got_m = op(lp, lq, c), op(mp, mq, c)
        assert type(got_l) is LaurentPoly and type(got_m) is MPoly, name
        assert in_t(got_l) == got_m.coeffs, name
    for got_l, got_m in ((lp, mp), (lp.scale(c), mp.scale(c))):
        assert normal(got_l) and normal(got_m)
        assert ({k: type(v) for k, v in in_t(got_l).items()}
                == {k: type(v) for k, v in got_m.coeffs.items()})
    assert (lp == lq) == (mp == mq) and lp != mp and mp != lp
    # a sum of Fractions may keep an integral one: equal, and hashed equally
    for poly, other in ((lp, lq), (mp, mq)):
        back = poly + other - other
        assert back == poly and hash(back) == hash(poly)
        fractions = type(poly)({k: Fraction(v) for k, v in poly.coeffs.items()})
        assert fractions == poly and hash(fractions) == hash(poly)


def test_a_laurent_poly_never_equals_an_mpoly():
    # not even at zero, where the two store the same empty dict
    assert LaurentPoly().coeffs == MPoly().coeffs
    for lp, mp in ((LaurentPoly(), MPoly()), (LaurentPoly.one(), MPoly.const(1))):
        assert lp != mp and mp != lp and not lp == mp


@settings(max_examples=300, deadline=None)
@given(mixed_terms(-2, 6, 4), generator_multisets, generator_multisets,
       generator_multisets, st.integers(0, 20))
def test_series_kernel_matches_fraction_only_arithmetic(terms, factors, own, gens, order):
    # the numerator is often a multiple of some (1 - t^a), so divisions succeed and fail
    num = LaurentPoly(terms) * denominator_poly(factors)
    old = _FractionPoly(terms) * _fraction_denominator_poly(factors)
    h = HilbertSeries(num, own)
    c, (oc, odenom) = h.canonical(), _fraction_canonical(old, own)
    assert (c.numerator.coeffs, c.denominator) == (oc.coeffs, odenom)
    assert all(type(v) is int or v.denominator != 1 for v in c.numerator.coeffs.values())
    results = {"canonical": c.numerator,
               "expand": outcome(h.expand, order),
               "hilbert_numerator": outcome(h.hilbert_numerator, gens)}
    assert results["expand"] == outcome(_fraction_expand, old, own, order)
    assert (_value(results["hilbert_numerator"])
            == _value(outcome(_fraction_hilbert_numerator, old, own, gens)))
    if not num.is_zero():
        # a negative exponent, which the rational value truncated, reaches no model
        assert _target_at2(num) == (None if num.min_exp() < 0 else _fraction_at2(old))
    for name, result in results.items():
        assert all(type(v) in (int, Fraction) for v in _stored(result)), name
        if _integral(*terms.values()):
            assert all(type(v) is int for v in _stored(result)), name
    # the same series written with Fraction(n) in place of n
    as_fractions = (LaurentPoly({e: Fraction(v) for e, v in terms.items()})
                    * denominator_poly(factors))
    assert as_fractions == num and hash(as_fractions) == hash(num)
    g = HilbertSeries(as_fractions, own)
    assert g == h and hash(g) == hash(h)


def test_exact_div():
    assert exact_div(7, 1) == 7 and exact_div(7, -1) == -7
    assert type(exact_div(6, 3)) is int and exact_div(6, 3) == 2
    assert type(exact_div(Fraction(3, 2), Fraction(1, 2))) is int
    assert type(exact_div(Fraction(3), -1)) is int and exact_div(Fraction(3), -1) == -3
    assert exact_div(1, 2) == Fraction(1, 2)
    assert exact_div(-3, Fraction(-6, 5)) == Fraction(5, 2)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def test_integral_coefficients_are_stored_as_ints():
    p = LaurentPoly({0: Fraction(4, 2), 1: Fraction(1, 3), 2: 5})
    assert [type(c) for _, c in p.items()] == [int, Fraction, int]
    assert type(p.scale(Fraction(3))[1]) is int
    assert HilbertSeries(LaurentPoly({0: 1}), (1, 1)).expand(3) == [1, 2, 3, 4]
    assert all(type(c) is int for c in HilbertSeries(LaurentPoly(), (1,)).expand(3))


def test_float_coefficients_are_refused():
    for make in (lambda: LaurentPoly({0: 0.1}), lambda: LaurentPoly.one().scale(2.0),
                 lambda: HilbertSeries({1: 0.5}), lambda: LaurentPoly({1: 1})(0.5)):
        with pytest.raises(TypeError, match="float"):
            make()
