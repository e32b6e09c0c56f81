"""The oracle's integer echelon against a plain Fraction elimination, and the
oracle against the closed-form Hilbert series beyond the acceptance degrees."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from wgk.oracle import IntegerEchelon, graded_dimension
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
    straight = GrWeights.from_fractions(["1/2"] * 5)
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
