"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Everything here is an exact-arithmetic check (integers and fractions, no
tolerances).  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines.
"""

import random
from fractions import Fraction

from wgk.matcher import match_pipeline
from wgk.oracle import graded_dimension
from wgk.orbifold_rr import RRData, hilbert_can3, hilbert_cy3, local_term
from wgk.sections import (AmbientModel, QuotientSingularity, rr_roundtrip,
                          section_canonical, section_series, singularity_analysis)
from wgk.series import HilbertSeries, LaurentPoly
from wgk.wgrass25 import GrWeights, verify_gr_identities
from wgk.spinor import verify_parametrization
from wgk.wogr510 import OGrWeights, verify_ogr_syzygies

W1 = GrWeights((1, 1, 1, 1, 3))
W2 = GrWeights((1, 1, 1, 3, 3))
EX1 = OGrWeights((0, 0, 0, 0, 2), 1)
EX2 = OGrWeights((0, 0, 2, 2, 4), 1)
EX1_NUMERATOR = LaurentPoly({0: 1, 2: -1, 3: -8, 4: 7, 5: 8, 7: -8, 8: -7,
                             9: 8, 10: 1, 12: -1})


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_symbolic_identities():
    gr = verify_gr_identities()
    assert gr["ok"], [n for n, ok in gr["checks"] if not ok]
    assert sum(1 for n, _ in gr["checks"] if n.startswith("(a)")) == 5
    assert sum(1 for n, _ in gr["checks"] if n.startswith("(b)")) == 20
    par = verify_parametrization()
    assert par["ok"] and len(par["checks"]) == 10
    syz = verify_ogr_syzygies()
    assert syz["ok"] and len(syz["checks"]) == 16
    report(1, "M*Pf(M), tautological relations, spinor parametrization and "
              "all 16 syzygy columns vanish identically")


def test_criterion_2_numerology():
    assert W1.plucker_weights() == (1,) * 6 + (2,) * 4
    assert W1.resolution_degrees()["relations"] == (2, 3, 3, 3, 3)
    assert W2.plucker_weights() == (1, 1, 1, 2, 2, 2, 2, 2, 2, 3)
    assert W2.resolution_degrees()["relations"] == (3, 3, 4, 4, 4)
    report(2, "P(1^6,2^4) with Pfaffian degrees {2,3,3,3,3} and "
              "P(1^3,2^6,3) with {3,3,4,4,4}")


def test_criterion_3_degree_section_cross_checks():
    assert W1.degree() * 8 == Fraction(13, 2)
    fano = section_series(AmbientModel(W1), (2, 2, 2))
    assert (fano.intersection_number(3), fano.coefficient(1)) == (Fraction(13, 2), 6)
    assert W2.degree() == Fraction(7, 48)
    coned = section_series(AmbientModel(W2, cone=(1,)), (2,) * 5)
    assert (coned.intersection_number(2), coned.coefficient(1)) == (Fraction(14, 3), 4)
    plain = section_series(AmbientModel(W2), (2, 2, 2, 3))
    assert (plain.intersection_number(2), plain.coefficient(1)) == (Fraction(7, 2), 3)
    report(3, "-K^3 = 13/2 with h^0 = 6; D^2 = 14/3 with h^0 = 4; "
              "D^2 = 7/2 with h^0 = 3")


def test_criterion_4_orbifold_riemann_roch():
    can3 = hilbert_can3(RRData.canonical3(7, 21, 2))
    assert [int(c) for c in can3.expand(8)] == [1, 7, 29, 83, 190, 370, 645,
                                                1035, 1562]
    assert can3.hilbert_numerator((1, 1, 1, 2)) == LaurentPoly(
        {0: 1, 1: 4, 2: 10, 3: 12, 4: 10, 5: 4, 6: 1})
    cy3 = hilbert_cy3(RRData.cy3(Fraction(6, 5), Fraction(108, 5),
                                 (local_term(5, (3, 3, 4)),)))
    assert [int(c) for c in cy3.expand(8)] == [1, 2, 5, 11, 20, 34, 54, 81, 117]
    closed = HilbertSeries(LaurentPoly(
        {0: 1, 1: -2, 2: 3, 3: -1, 4: -1, 5: 1, 6: 1, 7: -3, 8: 2, 9: -1}),
        (1, 1, 1, 1, 5))
    assert cy3 == closed
    report(4, "plurigenus series and closed forms of both 3-fold data sets")


def test_criterion_5_recognition_end_to_end():
    rr1 = hilbert_can3(RRData.canonical3(7, 21, 2))
    rep1 = match_pipeline(rr1, basket=(QuotientSingularity(2, (1, 1, 1)),) * 2)
    accepted = [c for c in rep1.candidates if c.accepted]
    assert len(accepted) == 1
    model = accepted[0].model
    assert model.family == "wogr510" and model.cone == ()
    assert model.base.canonical_form() == EX1.canonical_form()
    assert model.base.hilbert_series().numerator == EX1_NUMERATOR

    rr2 = hilbert_cy3(RRData.cy3(Fraction(6, 5), Fraction(108, 5),
                                 (local_term(5, (3, 3, 4)),)))
    rep2 = match_pipeline(rr2, basket=(QuotientSingularity(3, (1, 1, 1)),
                                       QuotientSingularity(3, (2, 2, 2)),
                                       QuotientSingularity(5, (3, 3, 4))))
    accepted = [c for c in rep2.candidates if c.accepted]
    assert len(accepted) == 1
    assert accepted[0].model.base.canonical_form() == EX2.canonical_form()
    mirages = [c for c in rep2.rejected() if c.model.family == "wgr25"]
    assert len(mirages) == 1
    mirage = mirages[0]
    assert mirage.model.base == GrWeights((2, 2, 2, 4, 4))
    assert mirage.model.cone == (1,) and mirage.nonlinear == (6,)
    assert not mirage.accepted
    assert "divisible by 5" in mirage.reason
    report(5, "both data sets recognized; the cone mirage is rejected for "
              "the 1/5 divisibility reason")


def test_criterion_6_adjunction():
    assert section_canonical(AmbientModel(W1), (2, 2, 2)) == -1
    assert section_canonical(AmbientModel(EX1), (1, 2, 2, 2, 2, 2, 2)) == 1
    assert section_canonical(AmbientModel(EX2), (2, 2, 3, 4, 4, 4, 5)) == 0
    report(6, "section canonical degrees -1, +1 and 0")


def test_criterion_7_singularity_baskets_and_roundtrip():
    cases = [
        (AmbientModel(W1), (2, 2, 2), [(2, (1, 1, 1), 1)]),
        (AmbientModel(W2, cone=(1,)), (2,) * 5, [(3, (1, 2), 1)]),
        (AmbientModel(W2), (2, 2, 2, 3), [(2, (1, 1), 3)]),
        (AmbientModel(EX1), (1, 2, 2, 2, 2, 2, 2), [(2, (1, 1, 1), 2)]),
        (AmbientModel(EX2), (2, 2, 3, 4, 4, 4, 5),
         [(3, (1, 1, 1), 1), (3, (2, 2, 2), 1), (5, (3, 3, 4), 1)]),
    ]
    baskets = []
    for model, cut, expected in cases:
        baskets.append(singularity_analysis(model, cut).basket)
        got = [(s.r, s.weights, n) for s, n in baskets[-1]]
        assert got == expected, (str(model), cut, got)
    for (model, cut, _), basket, kind in zip(cases[3:], baskets[3:], ("canonical3", "cy3")):
        assert rr_roundtrip(section_series(model, cut), basket, kind)["ok"]
    report(7, "all five baskets reproduced and both round trips exact")


def test_criterion_8_oracle_equivalence():
    straight_gr = GrWeights((1,) * 5)
    closed = straight_gr.hilbert_series().expand(6)
    oracle = [graded_dimension("wgr25", straight_gr, m) for m in range(7)]
    assert oracle == [1, 10, 50, 175, 490, 1176, 2520]
    assert oracle == [int(c) for c in closed]

    straight_ogr = OGrWeights((0, 0, 0, 0, 0), 1)
    closed = straight_ogr.hilbert_series().expand(2)
    oracle = [graded_dimension("wogr510", straight_ogr, m) for m in range(3)]
    assert oracle == [1, 16, 126]
    assert oracle == [int(c) for c in closed]

    for family, data in (("wgr25", W1), ("wgr25", W2),
                         ("wogr510", EX1), ("wogr510", EX2)):
        closed = data.hilbert_series().expand(5)
        for m in range(6):
            assert graded_dimension(family, data, m) == closed[m]
    report(8, "brute-force graded dimensions agree with the closed forms "
              "(straight families to degree 6 resp. 2; two weighted "
              "weightings per family to degree 5)")


def _random_gr(rng):
    while True:
        parity = rng.choice((0, 1))
        lo = -8 + ((-8 - parity) % 2)
        w2 = tuple(sorted(rng.randrange(lo, 9, 2) for _ in range(5)))
        try:
            return GrWeights(w2)
        except ValueError:
            continue


def _random_ogr(rng):
    while True:
        parity = rng.choice((0, 1))
        w2 = sorted(rng.randrange(parity, 9, 2) for _ in range(5))
        if rng.random() < 0.3 and all(v > 0 for v in w2):
            w2[0] = -w2[0]
        try:
            return OGrWeights(tuple(sorted(w2)), rng.randint(1, 4))
        except ValueError:
            continue


def test_supplementary_fixture_suite_through_cli(capsys):
    # the embedded fixture file is exercised end to end via the command line,
    # including weight parsing and output formatting
    from wgk import cli
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "FAIL" not in out
    assert cli.main(["rr", "can3", "--pg", "7", "--k3", "21", "--half", "2",
                     "--expand", "8"]) == 0
    assert capsys.readouterr().out.strip() == "1 7 29 83 190 370 645 1035 1562"
    report("CLI", "fixture suite and formatting exercised through the "
                  "command line")


def test_criterion_9_gorenstein_symmetry():
    rng = random.Random(2025)
    for _ in range(1000):
        w = _random_gr(rng)
        num = w.hilbert_series().numerator
        top = w.top_exponent()
        assert num.max_exp() == top
        assert all(c == -num[top - e] for e, c in num.coeffs.items())
    for _ in range(1000):
        w = _random_ogr(rng)
        try:
            num = w.hilbert_series().numerator
        except ValueError:
            continue
        top = 2 * (sum(w.w2) + 4 * w.u)     # 4d, d = s + 2u
        assert num.max_exp() == top
        assert all(c == -num[top - e] for e, c in num.coeffs.items())
    report(9, "sign-twisted palindrome symmetry for 1000 random weightings "
              "per family")
