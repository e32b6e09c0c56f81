"""The oracle's integer echelon against a plain Fraction elimination, the
pruned slices against the all-multiples slices they replaced, the guards of
the packed keys, the oracle against the closed-form Hilbert series beyond the
acceptance degrees, and the proven staircase series against graded dimensions
and the window loop it replaced."""

import itertools
from collections import Counter
from fractions import Fraction
from operator import add, mul

import pytest
from hypothesis import example, given, settings, strategies as st

from wgk.oracle import (FIELD_MASK, GradedRing, IntegerEchelon, OracleBudgetError, _minimal,
                        _staircase_numerator, count_monomials, graded_dimension,
                        weighted_monomials)
from wgk.polynomials import MPoly
from wgk.series import HilbertSeries, LaurentPoly, denominator_poly, one_minus
from wgk.wgrass25 import GrWeights
from wgk.wogr510 import OGrWeights


def reference_rank(rows, ncols):
    """Rank over Q by dense Gaussian elimination on Fractions."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / mat[rank][col]
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def sparse_rows(ncols, max_rows):
    nonzero = st.integers(-6, 6).filter(bool)
    row = st.dictionaries(st.integers(0, ncols - 1), nonzero, max_size=4)
    return st.lists(row, max_size=max_rows)


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 9))
    return ncols, draw(sparse_rows(ncols, 10))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_fraction_elimination(matrix):
    ncols, rows = matrix
    ech = IntegerEchelon()
    for i, row in enumerate(rows):
        grew = ech.insert(row)
        assert grew == (reference_rank(rows[:i + 1], ncols)
                        > reference_rank(rows[:i], ncols))
    assert ech.rank == reference_rank(rows, ncols)
    for pivot, stored in ech.rows.items():
        assert pivot == min(stored)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_contains_matches_fraction_elimination(data):
    ncols, rows = data.draw(matrices())
    ech = IntegerEchelon()
    for row in rows:
        ech.insert(row)
    rank = reference_rank(rows, ncols)

    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(rows),
                                max_size=len(rows)))
    combo = {}
    for k, row in zip(coeffs, rows):
        for c, v in row.items():
            combo[c] = combo.get(c, 0) + k * v
    assert ech.contains(combo)

    for probe in data.draw(sparse_rows(ncols, 5)):
        inside = reference_rank(rows + [probe], ncols) == rank
        assert ech.contains(probe) == inside


def test_straight_plucker_degrees_7_and_8_match_closed_form():
    straight = GrWeights((1,) * 5)
    closed = straight.hilbert_series().expand(8)
    oracle = [graded_dimension("wgr25", straight, m) for m in (7, 8)]
    assert oracle == [4950, 9075]
    assert oracle == [int(c) for c in closed[7:9]]


def test_straight_spinor_degrees_3_to_5_match_closed_form():
    straight = OGrWeights((0, 0, 0, 0, 0), 1)
    closed = straight.hilbert_series().expand(5)
    oracle = [graded_dimension("wogr510", straight, m) for m in (3, 4, 5)]
    assert oracle == [672, 2772, 9504]
    assert oracle == [int(c) for c in closed[3:6]]


def reference_slice(ring, degree):
    """The ideal slice from every monomial multiple of every equation, in
    ascending lex order, each row labelled with its equation's index."""
    cols = {m: i for i, m in enumerate(weighted_monomials(ring.weights, degree))}
    ech = IntegerEchelon()
    for j, (eq_deg, terms) in enumerate(ring.equations):
        shift = degree - eq_deg
        if shift < 0:
            continue
        for mult in weighted_monomials(ring.weights, shift):
            row = {}
            for code, coeff in terms:
                col = cols[tuple(map(add, mult, ring._unpack(code)))]
                row[col] = row.get(col, 0) + coeff
            ech.insert(row, j)
    return cols, ech


def as_poly(names, terms):
    return MPoly({tuple(zip(names, vec)): c for vec, c in terms.items()})


@st.composite
def random_rings(draw, terms=(1, 4), extra=(0, 3)):
    """Weighted-homogeneous integer equations of mixed degrees, with repeats,
    multiples, shared factors and variables no equation uses; each form has
    ``terms`` monomials and ``extra`` equations follow the first."""
    n = draw(st.integers(2, 6))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    names = [f"x{i}" for i in range(n)]
    unused = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    monos = {d: [m for m in weighted_monomials(weights, d)
                 if not any(m[i] for i in unused)] for d in range(1, 5)}
    degrees = [d for d, ms in monos.items() if ms]
    coeff = st.integers(-3, 3).filter(bool)

    def form(degrees):
        picked = draw(st.lists(st.sampled_from(monos[draw(st.sampled_from(degrees))]),
                               min_size=terms[0], max_size=terms[1]))
        return as_poly(names, {m: draw(coeff) for m in picked})

    equations = [form(degrees)] if degrees else []
    for _ in range(draw(st.integers(*extra)) if degrees else 0):
        kind = draw(st.sampled_from(("new", "new", "repeat", "multiple", "shared")))
        base = draw(st.sampled_from(equations))
        if kind == "repeat":
            equations.append(base)
        elif kind == "multiple":
            equations.append(base * draw(coeff))
        elif kind == "shared" and degrees[0] <= 2:
            equations.append(base * form([d for d in degrees if d <= 2]))
        else:
            equations.append(form(degrees))
    return list(zip(names, weights)), equations


@st.composite
def several_lead_rings(draw):
    """Two to four forms with distinct leading monomials: each form is its
    lead plus lex-larger monomials of the lead's degree (the lex-smaller
    exponent tuple leads), so most staircases have several minimal pivots
    and the S-pairs between them matter."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    names = [f"x{i}" for i in range(n)]
    monos = {d: weighted_monomials(weights, d) for d in range(1, 5)}
    leads = draw(st.lists(st.sampled_from([(d, i) for d, ms in monos.items()
                                           for i in range(len(ms))]),
                          min_size=2, max_size=4, unique=True))
    coeff = st.integers(-3, 3).filter(bool)
    equations = []
    for d, i in leads:
        tail = monos[d][i + 1:]
        picked = draw(st.lists(st.sampled_from(tail), max_size=3)) if tail else []
        equations.append(as_poly(names, {m: draw(coeff) for m in [monos[d][i]] + picked}))
    return list(zip(names, weights)), equations


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_rings(), random_rings(terms=(2, 6), extra=(1, 3)),
                 several_lead_rings()), st.data())
def test_pruned_slices_equal_all_multiples(ring_data, data):
    """The second strategy draws more and longer equations and the third forms
    with distinct leads, so more of their ideals have a staircase with two or
    more minimal pivots."""
    coords, equations = ring_data
    ring = GradedRing(coords, equations)
    degrees = [d for d in range(10) if ring.monomial_count(d) <= 300]
    # a fresh ring, queried out of order, builds its lower slices itself
    for d in data.draw(st.permutations(degrees)):
        cols, ref = reference_slice(ring, d)
        monos = list(cols)
        assert ring.dimension(d) == len(cols) - ref.rank
        assert ring.ideal_rank(d) == ref.rank
        # the same pivot monomials, each made by the same equation
        ech, _ = ring._slice(d)
        assert ({ring._unpack(p): j for p, j in ech.source.items()}
                == {monos[p]: j for p, j in ref.source.items()})
        for mono, col in cols.items():
            assert ech.contains({ring._pack(mono): 1}) == ref.contains({col: 1})


def test_a_zero_reduction_under_an_earlier_row_is_not_skipped_too_early():
    """x0*(x1 + x2), then x0: the zero-reduction skip is sound only when each
    equation's multipliers run in descending lex order; ascending, degree 3
    lost a rank here."""
    names = ["x0", "x1", "x2"]
    x0, x1, x2 = map(MPoly.var, names)
    ring = GradedRing([(n, 1) for n in names], [x0 * x1 + x0 * x2, x0])
    series, _ = ring.hilbert_series()
    assert series == HilbertSeries(one_minus(1), (1, 1, 1))   # k[x1, x2]
    assert ring.ideal_rank(3) == 6
    assert ring.dimension(3) == 4


def test_straight_plucker_slices_reduce_to_zero_only_the_degree_3_syzygies(monkeypatch):
    """Asked degrees 0..6 in turn, as ``wgk verify --full`` does, the only
    rows that reach the echelon and reduce to zero are the five in degree 3
    that are the linear syzygies of the Pfaffians (Buchsbaum-Eisenbud); every
    multiple of them is skipped above."""
    straight = GrWeights((1,) * 5)
    ring = GradedRing(straight.coordinates(), straight.equations())
    inserts = []
    insert = IntegerEchelon.insert

    def counted(self, row, source=None):
        inserts.append(insert(self, row, source))
        return inserts[-1]

    monkeypatch.setattr(IntegerEchelon, "insert", counted)
    ranks, zero_rows = [], []
    for d in range(7):
        inserts.clear()
        ranks.append(ring.ideal_rank(d))
        assert inserts.count(True) == ranks[-1]
        zero_rows.append(inserts.count(False))
    assert ranks == [0, 0, 5, 45, 225, 826, 2485]
    assert zero_rows == [0, 0, 0, 5, 0, 0, 0]


def test_a_degree_whose_exponents_overflow_the_packing_is_refused():
    """A packed key past FIELD_MASK would carry into the next exponent."""
    ring = GradedRing([("x", 2)], [MPoly.var("x")])
    ring.check_budget(2 * FIELD_MASK + 1)      # x^FIELD_MASK still fits
    for degree in (2 * FIELD_MASK + 2, 2 * FIELD_MASK + 3):
        with pytest.raises(OracleBudgetError, match="exponent"):
            ring.check_budget(degree)
    with pytest.raises(OracleBudgetError):
        ring.dimension(2 * FIELD_MASK + 2)


def test_a_ring_holds_the_equations_restricted_to_its_coordinates(monkeypatch):
    """A term naming z is dropped, z^2 restricts to zero and is skipped, and
    x*y + x*z and x*y restrict to the same equation, which is kept once."""
    x, y, z = (MPoly.var(v) for v in "xyz")
    coords = [("x", 1), ("y", 1)]
    ring = GradedRing(coords, [x * y + x * z, z ** 2, x * y, x ** 2 - 3 * y * z])
    assert ring.equations == GradedRing(coords, [x * y, x ** 2]).equations
    assert [[(ring._unpack(code), c) for code, c in terms] for _, terms in ring.equations] \
        == [[((1, 1), 1)], [((2, 0), 1)]]
    # two equations of degree 2 give 2 * 3 rows in degree 4, not 3 * 3
    monkeypatch.setattr("wgk.oracle.ROW_BUDGET", 5)
    with pytest.raises(OracleBudgetError, match=r"\(6 rows\)$"):
        ring.check_budget(4)
    assert ring.dimension(3) == 1          # y^3 alone survives x*y and x^2


@st.composite
def small_gr_weights(draw):
    """Valid Pfaffian weights with doubled weights at most 7."""
    p = draw(st.integers(0, 1))
    rest = sorted(2 * k + p for k in draw(st.lists(st.integers(1 - p, 3), min_size=4,
                                                    max_size=4)))
    first = 2 * draw(st.integers((p - rest[0]) // 2 + 1 - p, (rest[0] - p) // 2)) + p
    return GrWeights([first] + rest)


@st.composite
def small_ogr_weights(draw):
    """Valid spinor weights with |doubled weights| at most 5, u near its least."""
    p = draw(st.integers(0, 1))
    w2 = [2 * k + p for k in draw(st.lists(st.integers(-2, 2), min_size=5, max_size=5))]
    shifts = ([0] + [(a + b) // 2 for i, a in enumerate(w2) for b in w2[i + 1:]]
              + [(sum(w2) - v) // 2 for v in w2])
    return OGrWeights(w2, 1 - min(shifts) + draw(st.integers(0, 1)))


MONOMIAL_CAP = 3000


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_gr_weights(), small_ogr_weights()))
def test_oracle_equals_closed_form_on_random_weights(w):
    coords = [wt for _, wt in w.coordinates()]
    degrees = [d for d in range(17) if count_monomials(coords, d) <= MONOMIAL_CAP]
    closed = w.hilbert_series().expand(max(degrees))
    for d in degrees:
        assert graded_dimension(w.family, w, d) == closed[d]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(small_gr_weights(), small_ogr_weights()), min_size=1, max_size=2),
       st.data())
def test_the_kept_ring_answers_like_a_fresh_ring(weight_sets, data):
    """Degrees <= 4 of one or two weight sets, asked in a random interleaved
    order, so the kept ring is extended out of order and evicted."""
    queries = [(w, d) for w in weight_sets for d in range(5)
               if count_monomials([wt for _, wt in w.coordinates()], d) <= MONOMIAL_CAP]
    for w, d in data.draw(st.permutations(queries)):
        fresh = GradedRing(w.coordinates(), w.equations())
        assert graded_dimension(w.family, w, d) == fresh.dimension(d)


def test_negative_degrees_are_empty():
    """count_monomials, check_budget and ideal_rank raised IndexError here."""
    ring = GradedRing([("x", 1), ("y", 2)], [MPoly.var("x") * MPoly.var("x")])
    assert count_monomials((1, 2), -1) == 0
    assert weighted_monomials((1, 2), -3) == []
    ring.check_budget(-1)
    assert ring.ideal_rank(-1) == 0
    assert ring.dimension(-2) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=5), st.integers(-3, 12))
@example([], 0)
@example([], 2)
def test_weighted_monomials_are_in_ascending_lex_order(weights, degree):
    """The staircase proof reads in(I) off the pivots only in this order."""
    brute = [m for m in itertools.product(*(range(max(degree, 0) // w + 1)
                                            for w in weights))
             if sum(e * w for e, w in zip(m, weights)) == degree]
    assert weighted_monomials(weights, degree) == sorted(brute)


def window_series(ring):
    """The stratum series before the staircase: rank degree after degree and
    stop after sum(weights) + max(degrees) zero numerator coefficients."""
    weights = ring.weights
    if not ring.equations:
        return HilbertSeries(LaurentPoly.one(), weights)
    degrees = [deg for deg, _ in ring.equations]
    if len(degrees) == 1:
        return HilbertSeries(one_minus(degrees[0]), weights)
    window = sum(weights) + max(degrees)
    dp = denominator_poly(weights).coeffs
    dims, numer, top = [], {}, 0
    for d in range(3 * sum(weights) + sum(degrees) + 11):
        dims.append(ring.dimension(d))
        nd = sum(c * dims[d - e] for e, c in dp.items() if e <= d)
        if nd:
            numer[d] = nd
            top = d
        if d >= top + window:
            return HilbertSeries(LaurentPoly(numer), weights)
    raise AssertionError("window loop did not stabilize")


STAIRCASE_CAP = 2000


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_rings(terms=(2, 6), extra=(1, 3)), several_lead_rings()))
def test_proven_series_matches_dimensions_and_the_window_loop(ring_data):
    ring = GradedRing(*ring_data)
    series, stop = ring.hilbert_series()
    assert series.denominator == tuple(sorted(ring.weights))
    degrees = [d for d in range(max(3 * stop, 12) + 1)
               if ring.monomial_count(d) <= STAIRCASE_CAP]
    expansion = series.expand(max(degrees))
    assert [expansion[d] for d in degrees] == [ring.dimension(d) for d in degrees]
    # the window loop ranks up to top + window; compare where that is cheap
    top = series.numerator.max_exp() if not series.numerator.is_zero() else 0
    end = top + sum(ring.weights) + max((e for e, _ in ring.equations), default=0)
    if all(ring.monomial_count(d) <= STAIRCASE_CAP for d in range(end + 1)):
        assert window_series(GradedRing(*ring_data)).numerator == series.numerator


@st.composite
def monomial_ideals(draw):
    """``(weights, gens)``: one to eight nonzero exponent tuples, entries 0-3, on
    2-5 coordinates of weight 1-3."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return weights, draw(st.lists(exponents, min_size=1, max_size=8))


def monomial_ring_data(ideal):
    weights, gens = ideal
    names = [f"x{i}" for i in range(len(weights))]
    return list(zip(names, weights)), [as_poly(names, {g: 1}) for g in gens]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_proven_series_of_a_monomial_ideal_counts_standard_monomials(data):
    weights, gens = data.draw(monomial_ideals())
    n = len(weights)
    ring = GradedRing(*monomial_ring_data((weights, gens)))
    series, stop = ring.hilbert_series()
    degrees = [d for d in range(max(3 * stop, 12) + 1)
               if ring.monomial_count(d) <= STAIRCASE_CAP]
    expansion = series.expand(max(degrees))
    # monomials[k]: the monomials of degree k, counted by one coin-change pass
    monomials = [1] + [0] * max(degrees)
    for w in weights:
        for k in range(w, len(monomials)):
            monomials[k] += monomials[k - w]
    # the non-standard monomials of degree d, those divisible by some g, by
    # inclusion-exclusion: sum over nonempty subsets S of gens of
    # (-1)^(|S|+1) monomials[d - deg lcm S], the lcm taken exponent by exponent
    signed_lcms = [((0,) * n, -1)]
    for g in gens:
        signed_lcms += [(tuple(map(max, lcm, g)), -sign) for lcm, sign in signed_lcms]
    lcm_degrees = Counter()
    for lcm, sign in signed_lcms[1:]:
        lcm_degrees[sum(map(mul, weights, lcm))] += sign
    for d in degrees:
        nonstandard = sum(c * monomials[d - e] for e, c in lcm_degrees.items() if e <= d)
        assert expansion[d] == monomials[d] - nonstandard


def reference_hilbert_series(ring):
    """``GradedRing.hilbert_series`` as it was: at each degree unpack every pivot
    of the slice and re-minimise them together with the leads found so far."""
    eq_bound = max((deg for deg, _ in ring.equations), default=0)
    leads = []
    for d in itertools.count():
        ech, _ = ring._slice(d)
        leads = _minimal(leads + [ring._unpack(k) for k in ech.rows])
        if d >= max([eq_bound] + [sum(map(mul, map(max, a, b), ring.weights))
                                  for a, b in itertools.combinations(leads, 2)]):
            return HilbertSeries(_staircase_numerator(leads, ring.weights), ring.weights), d


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_rings(), random_rings(terms=(2, 6), extra=(1, 3)),
                 several_lead_rings(), monomial_ideals().map(monomial_ring_data)))
def test_each_lead_is_read_once_and_the_series_and_stop_are_the_re_minimising_loops(ring_data):
    ring = GradedRing(*ring_data)
    unpacked = []
    unpack = ring._unpack
    ring._unpack = lambda code: unpacked.append(unpack(code)) or unpacked[-1]
    assert ring.hilbert_series() == reference_hilbert_series(GradedRing(*ring_data))
    # only minimal generators of in(I) are unpacked, each once
    assert sorted(_minimal(unpacked)) == sorted(unpacked)
