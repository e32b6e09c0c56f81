"""Recognition of ambient models from target Hilbert data."""

import ast
import contextlib
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from test_contracts import index_value, order_at_one
import wgk
from wgk import matcher, sections
from wgk.matcher import (MatchQuery, enumerate_gr_weights,
                         enumerate_ogr_weights, infer_generators,
                         match_pipeline, search)
from wgk.orbifold_rr import RRData, hilbert_can3, hilbert_cy3, local_term
from wgk.sections import FAMILIES, AmbientModel, QuotientSingularity, singularity_filter
from wgk.series import (HilbertSeries, LaurentPoly, SeriesError, denominator_poly, one_minus,
                        over_one_minus)
from wgk.wgrass25 import GrWeights, WeightFamily
from wgk.wogr510 import VERTICES, OGrWeights, even_rep

H_CAN3 = hilbert_can3(RRData.canonical3(7, 21, 2))
H_CY3 = hilbert_cy3(RRData.cy3(Fraction(6, 5), Fraction(108, 5),
                                (local_term(5, (3, 3, 4)),)))
BASKET_CAN3 = (QuotientSingularity(2, (1, 1, 1)),) * 2
BASKET_CY3 = (QuotientSingularity(3, (1, 1, 1)), QuotientSingularity(3, (2, 2, 2)),
              QuotientSingularity(5, (3, 3, 4)))


def infer_and_force(series, basket=None, residue_forcing=True):
    """The greedy generators, then the degrees ``basket`` forces: a degree
    divisible by r for each 1/r point and, with ``residue_forcing``, the
    residues of its weights, composed as ``match_pipeline`` composes them."""
    basket = basket or ()
    forced = matcher._force_divisibility(infer_generators(series), basket)
    return matcher._force_residues(forced, basket) if residue_forcing else forced


def gr_models(max_w2, tau=None):
    """The weights of the wGr(2,5) field values ``enumerate_gr_weights`` gives."""
    return [GrWeights(*fields) for fields in enumerate_gr_weights(max_w2, tau)]


def ogr_models(max_w2, max_u, tau=None):
    """The weights of the wOGr(5,10) field values ``enumerate_ogr_weights`` gives."""
    return [OGrWeights(*fields) for fields in enumerate_ogr_weights(max_w2, max_u, tau)]


def test_infer_generators_projective_space():
    assert infer_generators(HilbertSeries(LaurentPoly.one(), (1, 1, 1))) == (1, 1, 1)


def test_infer_generators_can3():
    # seven in degree one, and the two half points force two in degree two
    assert infer_and_force(H_CAN3, basket=BASKET_CAN3) == (1,) * 7 + (2, 2)


def test_infer_generators_cy3_greedy_steps():
    # plain greedy: two of degree 1, then two of degree 2 (then three 3s)
    gens = infer_generators(H_CY3)
    assert gens[:4] == (1, 1, 2, 2)
    assert gens == (1, 1, 2, 2, 3, 3, 3)
    forced = infer_and_force(H_CY3, basket=BASKET_CY3, residue_forcing=False)
    assert forced == (1, 1, 2, 2, 3, 3, 3, 5)
    full = infer_and_force(H_CY3, basket=BASKET_CY3)
    assert full == (1, 1, 2, 2, 3, 3, 3, 4, 5)


@pytest.mark.parametrize("series, basket, gen_sets", [
    (H_CY3, BASKET_CY3, [("greedy", (1, 1, 2, 2, 3, 3, 3)),
                         ("divisibility-forced", (1, 1, 2, 2, 3, 3, 3, 5)),
                         ("residue-forced", (1, 1, 2, 2, 3, 3, 3, 4, 5))]),
    # the residue-forced set repeats the divisibility-forced one and is dropped
    (H_CAN3, BASKET_CAN3, [("greedy", (1,) * 7 + (2,)), ("divisibility-forced", (1,) * 7 + (2, 2))]),
])
def test_match_pipeline_infers_the_generators_once(series, basket, gen_sets):
    # the greedy, divisibility-forced and residue-forced sets share one greedy pass
    with mock.patch.object(matcher, "infer_generators", wraps=infer_generators) as infer, \
            mock.patch.object(HilbertSeries, "expand", autospec=True,
                              side_effect=HilbertSeries.expand) as expand:
        report = match_pipeline(series, basket=basket)
    assert infer.call_count == 1 and expand.call_count == 1
    assert [(p, g) for p, g, _ in report.generator_sets] == gen_sets
    assert [c for c in report.candidates if c.accepted]


def test_search_spinor_example_one():
    numerator = HilbertSeries(LaurentPoly(
        {0: 1, 2: -1, 3: -8, 4: 7, 5: 8, 7: -8, 8: -7, 9: 8, 10: 1, 12: -1}))
    hits = search(MatchQuery(target=numerator, generator_degrees=(1,) * 8 + (2,) * 8,
                             family="wogr510"))
    assert len(hits) == 1
    model = hits[0]
    assert model.base.canonical_form() == OGrWeights((0, 0, 0, 0, 2), 1)
    assert model.cone == ()


def test_search_spinor_example_two():
    target = OGrWeights((0, 0, 2, 2, 4), 1).hilbert_series()
    numerator = HilbertSeries(target.numerator)
    hits = search(MatchQuery(target=numerator, family="wogr510"))
    assert [m.base.canonical_form() for m in hits] == [OGrWeights((0, 0, 2, 2, 4), 1)]


def test_search_straight_plucker():
    numerator = HilbertSeries(LaurentPoly({0: 1, 2: -5, 3: 5, 5: -1}))
    hits = search(MatchQuery(target=numerator, generator_degrees=(1,) * 10,
                             family="wgr25"))
    assert [m.base for m in hits] == [GrWeights((1, 1, 1, 1, 1))]


@pytest.mark.parametrize("degree", [0, -2])
def test_a_generator_degree_that_is_not_a_positive_integer_is_refused_by_name(degree):
    """Refused where it is given, never scanned: 0 once gave no hit and an
    ``ok`` generator set, and -2 an IndexError; the message has no hint."""
    target = HilbertSeries(LaurentPoly({0: 1, 2: -5, 3: 5, 5: -1}), (1,) * 10)
    gens = (degree,) + (1,) * 10
    for call in (lambda: search(MatchQuery(target, generator_degrees=gens)),
                 lambda: match_pipeline(target, user_generators=[gens])):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"generator degrees must be positive, found [{degree}]"


def test_search_roundtrip_property():
    rng = random.Random(31)
    gr_pool = gr_models(4)
    for w in rng.sample(gr_pool, 12):
        hits = search(MatchQuery(target=w.hilbert_series(),
                                 generator_degrees=w.plucker_weights(),
                                 family="wgr25", max_w2=4))
        assert [m.base for m in hits] == [w]
    ogr_pool = ogr_models(4, 2)
    for w in rng.sample(ogr_pool, 12):
        try:
            series = w.hilbert_series()
        except ValueError:
            continue
        hits = search(MatchQuery(target=series,
                                 generator_degrees=w.coordinate_weights(),
                                 family="wogr510", max_w2=4, max_u=2))
        assert [m.base.canonical_form() for m in hits] == [w.canonical_form()]


def test_search_is_deterministic():
    numerator = HilbertSeries(LaurentPoly({0: 1, 2: -5, 3: 5, 5: -1}))
    q = MatchQuery(target=numerator)
    first = [str(m) for m in search(q)]
    second = [str(m) for m in search(q)]
    assert first == second == sorted(first)


def test_the_matcher_reads_the_filter_and_its_bounds_from_sections():
    # sections holds them so that a command other than match compiles no matcher
    for name in ("singularity_filter", "fmt_multiset", "DEFAULT_MAX_W2", "DEFAULT_MAX_U"):
        assert getattr(matcher, name) is getattr(sections, name), name
    assert wgk.singularity_filter is sections.singularity_filter


def test_singularity_filter():
    mirage = AmbientModel(GrWeights((2, 2, 2, 4, 4)), cone=(1,))
    ok, reason = singularity_filter(mirage, (QuotientSingularity(5, (3, 3, 4)),))
    assert not ok
    assert reason == "no coordinate weight divisible by 5 in {1,2^3,3^6,4}"
    good = AmbientModel(OGrWeights((0, 0, 2, 2, 4), 1))
    assert singularity_filter(good, (QuotientSingularity(5, (3, 3, 4)),)) == (True, None)
    assert singularity_filter(mirage, ()) == (True, None)


def test_filter_soundness():
    # never rejects a model that carries a chart of the required order
    rng = random.Random(17)
    pool = ogr_models(6, 3)
    for w in rng.sample(pool, 30):
        model = AmbientModel(w)
        for r in {2, 3, 5}:
            if any(cw % r == 0 for cw in model.coordinate_weights()):
                ok, _ = singularity_filter(
                    model, (QuotientSingularity(r, (1,) * 3),))
                assert ok


def test_pipeline_example_one():
    report = match_pipeline(H_CAN3, basket=BASKET_CAN3)
    accepted = [c for c in report.candidates if c.accepted]
    assert len(accepted) == 1
    cand = accepted[0]
    assert cand.model.base.canonical_form() == OGrWeights((0, 0, 0, 0, 2), 1)
    assert cand.model.cone == ()
    assert cand.sections == (1, 2, 2, 2, 2, 2, 2)
    assert cand.generators == (1,) * 7 + (2, 2)


def test_pipeline_example_two_with_mirage():
    report = match_pipeline(H_CY3, basket=BASKET_CY3)
    accepted = [c for c in report.candidates if c.accepted]
    assert len(accepted) == 1
    cand = accepted[0]
    assert cand.model.base.canonical_form() == OGrWeights((0, 0, 2, 2, 4), 1)
    assert cand.sections == (2, 2, 3, 4, 4, 4, 5)
    mirages = [c for c in report.rejected()
               if isinstance(c.model.base, GrWeights)]
    assert len(mirages) == 1
    mirage = mirages[0]
    assert mirage.model.base == GrWeights((2, 2, 2, 4, 4))
    assert mirage.model.cone == (1,)
    assert mirage.nonlinear == (6,)
    assert mirage.reason == "no coordinate weight divisible by 5 in {1,2^3,3^6,4}"


def test_pipeline_augmentation_step():
    # without residue forcing the pipeline must guess the extra degree-4
    # generator and relation by retrying
    report = match_pipeline(H_CY3, basket=BASKET_CY3, residue_forcing=False)
    assert "added one generator and relation in degree 4" in report.diagnostics
    accepted = [c for c in report.candidates if c.accepted]
    assert [c.model.base.canonical_form() for c in accepted] == [
        OGrWeights((0, 0, 2, 2, 4), 1)]
    assert accepted[0].generators == (1, 1, 2, 2, 3, 3, 3, 4, 5)


def test_pipeline_genus_six_curve_series():
    # subcanonical curve with p_1 = 6 and degree 10: quadric section of the
    # cone over the straight Pfaffian family, at series level
    series = HilbertSeries(LaurentPoly({0: 1, 1: 4, 2: 4, 3: 1}), (1, 1))
    assert [int(c) for c in series.expand(3)] == [1, 6, 15, 25]
    report = match_pipeline(series)
    formal = [c for c in report.candidates if c.nonlinear]
    assert any(c.model.base == GrWeights((1, 1, 1, 1, 1))
               and c.model.cone == (1,) and c.nonlinear == (2,)
               for c in formal)


def test_search_with_canonical_degree_and_basket_requirements():
    numerator = HilbertSeries(OGrWeights((0, 0, 2, 2, 4), 1)
                              .hilbert_series().numerator)
    hits = search(MatchQuery(target=numerator, family="wogr510"))
    assert len([m for m in hits if m.canonical_degree() == -24]) == 1
    assert [m for m in hits if m.canonical_degree() == -12] == []
    assert search(MatchQuery(target=numerator, family="wogr510",
                             basket=(QuotientSingularity(7, (1, 2, 4)),))) == []


def test_query_validation():
    with pytest.raises(ValueError, match="bounds"):
        MatchQuery(target=HilbertSeries(LaurentPoly.one(), (1,)), max_w2=0)
    with pytest.raises(ValueError, match="family"):
        MatchQuery(target=HilbertSeries(LaurentPoly.one(), (1,)), family="flag")


@pytest.mark.parametrize("bounds", [dict(max_w2=2.5), dict(max_u=2.5), dict(max_u=math.inf),
                                    dict(max_w2=Fraction(4)), dict(max_w2=8.0)])
def test_a_search_bound_that_is_not_an_integer_is_refused_when_the_query_is_built(bounds):
    # read through operator.index: neither a TypeError deep in the enumeration
    # nor a model index of its own for a bound equal to an int
    target = GrWeights((1,) * 5).hilbert_series()
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        MatchQuery(target=target, generator_degrees=(1,) * 10, **bounds)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        match_pipeline(target, **bounds)


def test_enumerations_within_bounds_and_canonical():
    for w in gr_models(4):
        assert all(abs(v) <= 4 for v in w.w2)
        assert w.w2 == tuple(sorted(w.w2))
    seen = set()
    for w in ogr_models(4, 2):
        assert all(abs(v) <= 4 for v in w.w2)
        assert 1 <= w.u <= 2
        c = w.canonical_form()
        key = (c.w2, c.u)
        assert key not in seen
        seen.add(key)


# -- the model index against the full-table linear scan it replaced -------------

@lru_cache(maxsize=None)
def full_table(family, max_w2, max_u):
    """Every bounded model with its numerator, in enumeration order."""
    table = []
    if family in (None, "wgr25"):
        for w in gr_models(max_w2):
            table.append(("wgr25", w, w.hilbert_series().numerator,
                          tuple(w.plucker_weights())))
    if family in (None, "wogr510"):
        for w in ogr_models(max_w2, max_u):
            try:
                num = w.hilbert_series().numerator
            except ValueError:
                continue
            table.append(("wogr510", w, num, w.coordinate_weights()))
    return tuple(table)


def table_entry(w):
    """The family and field values of ``w``: the name the model index gives it."""
    return (w.family, *vars(w).values())


def linear_scan(index, n_target, formal=False):
    """Oracle for ``matcher._ModelIndex.lookup``: the whole table, no slicing, no filter."""
    for family in index.families:
        for _, w, num, cw in full_table(family, *index.bounds):
            yield w, HilbertSeries(num, cw), table_entry(w)


def by_linear_scan(fn, *args, **kwargs):
    with mock.patch.object(matcher._ModelIndex, "lookup", linear_scan):
        return fn(*args, **kwargs)


def augment_bound(k):
    """``match_pipeline`` trying extra degrees up to ``k`` only, which keeps a
    drawn query that accepts nothing to k + 1 rounds in place of nine."""
    return mock.patch.object(matcher, "AUGMENT_BOUND", k)


SMALL = dict(max_w2=4, max_u=2)
SMALL_MODELS = ([("wgr25", w) for w in gr_models(4)]
                + [("wogr510", w) for w in ogr_models(4, 2)])
DEFAULT_MODELS = ([("wgr25", w) for w in gr_models(matcher.DEFAULT_MAX_W2)]
                  + [("wogr510", w) for w in ogr_models(
                      matcher.DEFAULT_MAX_W2, matcher.DEFAULT_MAX_U)])


def model_series(w):
    try:
        return w.hilbert_series()
    except ValueError:
        assume(False)


def search_key(models):
    return [(m.family, m.base, m.cone) for m in models]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_MODELS), st.sampled_from((None, "wgr25", "wogr510")),
       st.sampled_from((None, 1, 2, 3)))
def test_search_agrees_with_linear_scan(model, family, extra):
    _, w = model
    series = model_series(w)
    gens = series.denominator + ((extra,) if extra else ())
    for query in (MatchQuery(target=series, generator_degrees=gens, family=family, **SMALL),
                  MatchQuery(target=HilbertSeries(series.numerator), family=family,
                             **SMALL)):
        assert search_key(search(query)) == search_key(by_linear_scan(search, query))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_MODELS), st.sampled_from((None, "wgr25", "wogr510")),
       st.sampled_from((None, 1, 2, 3)))
def test_pipeline_agrees_with_linear_scan(model, family, k):
    # with k, the target is a degree-k hypersurface in the cone over the model;
    # against the cone's generators only a formal (nonlinear section) match fits
    _, w = model
    series = model_series(w)
    if k:
        series = HilbertSeries(series.numerator * one_minus(k), series.denominator + (1,))
    kwargs = dict(family=family, user_generators=[series.denominator], **SMALL)
    with augment_bound(1):
        report = match_pipeline(series, **kwargs)
        assert report.to_json() == by_linear_scan(match_pipeline, series, **kwargs).to_json()
    if family in (None, model[0]):
        assert any(c.model.base == w and bool(c.nonlinear) == bool(k)
                   for c in report.candidates)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DEFAULT_MODELS))
def test_search_finds_every_in_bounds_model(model):
    family, w = model
    series = model_series(w)
    hits = search(MatchQuery(target=series, generator_degrees=series.denominator))
    assert any(m.family == family and m.cone == () and m.base == w for m in hits)


@st.composite
def gr_weights(draw):
    """Valid Pfaffian weights: one parity, w_1 + w_2 > 0 (all doubled)."""
    p = draw(st.integers(0, 1))
    rest = sorted(2 * k + p for k in draw(st.lists(st.integers(1 - p, 6), min_size=4,
                                                    max_size=4)))
    first = 2 * draw(st.integers((p - rest[0]) // 2 + 1 - p, (rest[0] - p) // 2)) + p
    return GrWeights([first] + rest)


@st.composite
def ogr_weights(draw):
    """Valid spinor weights: any doubled w of one parity, u just large enough."""
    p = draw(st.integers(0, 1))
    w2 = [2 * k + p for k in draw(st.lists(st.integers(-6, 6), min_size=5, max_size=5))]
    shifts = ([0] + [(a + b) // 2 for i, a in enumerate(w2) for b in w2[i + 1:]]
              + [(sum(w2) - v) // 2 for v in w2])
    return OGrWeights(w2, 1 - min(shifts) + draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(gr_weights(), ogr_weights()))
def test_numerator_top_term_is_minus_t_to_the_top_exponent(w):
    num = model_series(w).numerator
    spinor = isinstance(w, OGrWeights)
    top = 2 * (sum(w.w2) + 4 * w.u) if spinor else sum(w.w2)     # 4d or 2d
    assert w.top_exponent() == top
    assert num[0] == 1 and num.min_exp() == 0
    assert num.max_exp() == top and num[top] == -1
    if spinor:
        # the weight of a vertex is u plus half the sum of w over its even representative
        by_vertex = [w.u + sum(w.w2[i - 1] for i in even_rep(v)) // 2 for v in VERTICES]
        assert w.coordinate_weights() == tuple(sorted(by_vertex))


@settings(max_examples=200, deadline=None)
@given(st.one_of(gr_weights(), ogr_weights()), st.lists(st.integers(1, 4), max_size=2))
def test_both_families_answer_the_family_interface_alike(w, cone):
    num = model_series(w).numerator
    tau = w.top_exponent()
    # Gorenstein symmetry, every term: t^tau N(1/t) = -N(t)
    assert LaurentPoly({tau - e: c for e, c in num.coeffs.items()}) == -num
    assert w.canonical_degree() == tau - sum(wt for _, wt in w.coordinates())
    model = AmbientModel(w, cone)
    assert model.canonical_degree() == tau - sum(model.coordinate_weights())
    assert AmbientModel.from_json(model.to_json()) == model
    assert AmbientModel.from_json(AmbientModel(w).to_json()).base == w


def numerator_by_closure(w):
    """Oracle: the closed-form numerators as assembled before ``numerator_terms``."""
    d2 = sum(w.w2) + (4 * w.u if isinstance(w, OGrWeights) else 0)     # 2d
    if isinstance(w, GrWeights):
        num = {0: Fraction(1)}
        for v in w.w2:
            e = (d2 - v) // 2
            num[e] = num.get(e, Fraction(0)) - 1
            e = (d2 + v) // 2
            num[e] = num.get(e, Fraction(0)) + 1
        num[d2] = num.get(d2, Fraction(0)) - 1
        return LaurentPoly(num)
    acc = {0: 1}

    def add(e2, c):
        assert e2 % 2 == 0
        acc[e2 // 2] = acc.get(e2 // 2, 0) + c
    for v in w.w2:
        add(d2 - v, -1)
        add(d2 + v, -1)
        add(3 * d2 - v, 1)
        add(3 * d2 + v, 1)
    for wt in w.coordinate_weights():
        add(2 * d2 - 2 * wt, 1)
        add(2 * d2 + 2 * wt, -1)
    add(4 * d2, -1)
    return LaurentPoly(acc)


@settings(max_examples=200, deadline=None)
@given(st.one_of(gr_weights(), ogr_weights()))
def test_numerator_terms_and_index_value_at_2_match_the_previous_assembly(w):
    terms = w.numerator_terms()
    assert all(isinstance(c, int) and c for c in terms.values())
    expected = numerator_by_closure(w)
    assert LaurentPoly(terms) == expected == w.hilbert_series().numerator
    assert index_value(w) == expected(2)


@pytest.mark.parametrize("family", ["wgr25", "wogr510"])
def test_index_value_at_2_is_the_numerator_at_2_for_every_model(family):
    slices = matcher._ModelIndex(family, 12, 6).reach(family, 0, 10 ** 6)
    assert count_models({family: slices}) == len(matcher._ENUMERATE[family](12, 6, None))
    for top, models in slices.items():
        for fields, num2 in models:
            w = FAMILIES[family](*fields)
            *middle, last = w.resolution_degrees().values()
            # the separation the index checks: 1 and -t^top cannot cancel
            assert last == (top,) and len(middle) % 2 == 0
            assert all(0 < e < top for bank in middle for e in bank)
            assert num2 == LaurentPoly(w.numerator_terms())(2)


def reach_all(index):
    """Each family's slices of ``index``, after reaching every top exponent."""
    return {fam: index.reach(fam, 0, 10 ** 6) for fam in index.families}


def count_models(slices):
    return sum(len(models) for s in slices.values() for models in s.values())


def test_a_cold_index_builds_no_numerator():
    matcher._model_index.cache_clear()
    try:
        with mock.patch.object(WeightFamily, "numerator_terms", autospec=True,
                               side_effect=WeightFamily.numerator_terms) as terms:
            slices = reach_all(matcher._model_index(None, 8, 4))
    finally:
        matcher._model_index.cache_clear()
    assert terms.call_count == 0
    assert count_models(slices) == 1365


@pytest.mark.parametrize("bounds", [(8, 4), (12, 6)])
def test_the_index_holds_each_models_own_value_at_2_in_enumeration_order(bounds):
    # the index reads each model's banks off its field values over one table of
    # powers per top; the reference builds every model and its numerator
    expected = {"wgr25": {}, "wogr510": {}}
    for fam, by_top in expected.items():
        for fields in matcher._ENUMERATE[fam](*bounds, None):
            w = FAMILIES[fam](*fields)
            by_top.setdefault(w.top_exponent(), []).append(
                (fields, LaurentPoly(w.numerator_terms())(2)))
    matcher._model_index.cache_clear()
    try:
        slices = reach_all(matcher._model_index(None, *bounds))
    finally:
        matcher._model_index.cache_clear()
    for fam, by_top in expected.items():
        assert list(slices[fam]) == list(by_top)
        for top, models in by_top.items():
            assert slices[fam][top] == models, (fam, top)


@pytest.mark.parametrize("bounds", [(8, 4), (12, 6)])
def test_an_index_reached_window_by_window_holds_what_one_reach_holds(bounds):
    # a w2's models fall into several windows, prefixes and single tops built
    # in any order.  Slice order may differ, not a slice.  A single top keeps
    # its key when it holds no model, so that it is not enumerated again
    whole = reach_all(matcher._ModelIndex(None, *bounds))
    index = matcher._ModelIndex(None, *bounds)
    windows = ((39, 40), (103, 104), (0, 8), (0, 16), (16, 17), (17, 18), (87, 88),
               (0, 40), (0, 76), (103, 104), (0, 10 ** 6))
    for fam in index.families:
        for lo, hi in windows:
            slices = index.reach(fam, lo, hi)
            for t in range(lo + 1, min(hi, 200) + 1):
                assert slices.get(t, []) == whole[fam].get(t, []), (fam, lo, hi, t)
        assert {t: models for t, models in slices.items() if models} == whole[fam]
        for top, models in slices.items():
            assert all(num2 == index_value(FAMILIES[fam](*fields))
                       for fields, num2 in models), top


def test_every_spinor_tuple_variant_and_u_within_bounds_is_enumerated():
    # the enumerator's rule, restated: each sorted tuple of one parity in
    # [0, max_w2], its first entry negated when all are positive, and 1 <= u <= max_u
    max_w2, max_u = 16, 8
    expected = []
    for parity in (0, 1):
        for tup in itertools.combinations_with_replacement(range(parity, max_w2 + 1, 2), 5):
            variants = [tup] + ([(-tup[0],) + tup[1:]] if tup[0] > 0 else [])
            expected += [OGrWeights(w2, u) for w2 in variants for u in range(1, max_u + 1)]
    assert ogr_models(max_w2, max_u) == expected


def test_zero_target_has_no_candidates():
    zero = HilbertSeries(LaurentPoly(), (1, 1))
    assert search(MatchQuery(target=HilbertSeries(LaurentPoly()))) == []
    assert search(MatchQuery(target=zero, generator_degrees=(1, 1))) == []
    report = match_pipeline(zero, user_generators=[(1, 1)])
    assert report.candidates == []
    assert ("user[0]", (1, 1), "ok") in report.generator_sets


def test_a_target_that_is_not_an_integer_polynomial_reaches_no_model():
    # a match is num * q with num and q integer polynomials: 1 + ... and prod (1 - t^k)
    integral = LaurentPoly({0: 1, 2: -5, 3: 5, 5: -1})      # the straight wGr(2,5)
    halves = integral + LaurentPoly({1: Fraction(1, 2)})
    negative = integral + LaurentPoly({-1: 1})
    index = matcher._model_index(None, 4, 2)
    filtered = list(index.lookup(integral, formal=True))
    assert GrWeights((1, 1, 1, 1, 1)) in [w for w, _, _ in filtered]
    assert all(integral(2) % series.numerator(2) == 0 for _, series, _ in filtered)
    for target in (halves, negative):
        assert list(index.lookup(target, formal=True)) == []
    for target in (integral, halves, negative):
        query = MatchQuery(target=HilbertSeries(target, (1,) * 10),
                           generator_degrees=(1,) * 10, **SMALL)
        assert search(query) == by_linear_scan(search, query)
        assert bool(search(query)) == (target is integral)


def test_index_is_built_once_per_bounds_and_reads_the_enumerators_at_call_time():
    calls = []

    def counting(max_w2, tau=None):
        calls.append(max_w2)
        return enumerate_gr_weights(max_w2, tau)

    matcher._model_index.cache_clear()
    target = HilbertSeries(LaurentPoly({0: 1, 2: -5, 3: 5, 5: -1}))
    with mock.patch.object(matcher, "enumerate_gr_weights", counting):
        for _ in range(2):
            hits = search(MatchQuery(target=target, family="wgr25", max_w2=3))
            assert [m.base for m in hits] == [GrWeights((1, 1, 1, 1, 1))]
    assert calls == [3]
    matcher._model_index.cache_clear()


def test_a_warm_index_forms_no_series_and_no_canonical_form_again():
    w = OGrWeights((0, 0, 2, 2, 4), 1)
    query = MatchQuery(target=w.hilbert_series(), generator_degrees=w.coordinate_weights())

    def queries():
        return (match_pipeline(H_CY3, basket=BASKET_CY3),
                match_pipeline(H_CAN3, basket=BASKET_CAN3), search(query))

    def counted(cls, name):
        return mock.patch.object(cls, name, autospec=True, side_effect=getattr(cls, name))

    matcher._model_index.cache_clear()
    try:
        with counted(WeightFamily, "hilbert_series") as series, \
                counted(OGrWeights, "canonical_form") as forms:
            cold = queries()
            built = series.call_count, forms.call_count
            warm = queries()
    finally:
        matcher._model_index.cache_clear()
    assert warm == cold and cold[2] == [AmbientModel(w)]
    # the table entry names a hit: no canonical form, cold or warm
    assert built[0] > 0 and built[1] == 0
    assert (series.call_count, forms.call_count) == built


def test_a_printed_candidate_carries_the_numerator_the_scan_matched():
    # the report's JSON forms no series: the index formed each one at its first hit
    matcher._model_index.cache_clear()
    try:
        with mock.patch.object(WeightFamily, "hilbert_series", autospec=True,
                               side_effect=WeightFamily.hilbert_series) as series:
            report = match_pipeline(H_CY3, basket=BASKET_CY3)
            built = series.call_count
            printed = report.to_json()
    finally:
        matcher._model_index.cache_clear()
    assert built > 0 and series.call_count == built
    assert [c["numerator"] for c in printed["candidates"]] == [
        c.model.base.hilbert_series().numerator.to_json() for c in report.candidates]


# -- the index built slice by slice, as far as the queries reach -----------------

def scan_order(family, max_w2, max_u, n_target, formal):
    """Oracle for the models ``_ModelIndex.lookup`` yields, as a multiset: the full-table
    scan, filtered by the number m of (1 - t^k) factors the orders at t = 1 leave, by top
    exponent and by num(2) | n_target(2).  m = 0 is an exact match, of the same top;
    with ``formal``, 1 <= m <= 8 factors raise the top by m or more."""
    top, order = n_target.max_exp(), order_at_one(n_target)
    at2 = (int(n_target(2)) if all(c.denominator == 1 for c in n_target.coeffs.values())
           else None)

    def fits(num):
        m = order - order_at_one(num)
        if m == 0:
            return num.max_exp() == top
        return formal and 0 < m <= 8 and num.max_exp() <= top - m

    return Counter(w for _, w, num, _ in full_table(family, max_w2, max_u)
                   if fits(num) and (at2 is None or at2 % int(num(2)) == 0))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SMALL_MODELS), st.sampled_from((None, 1, 2)),
                          st.booleans()), min_size=1, max_size=4),
       st.sampled_from((None, "wgr25", "wogr510")), st.sampled_from(((3, 1), (4, 2))))
def test_lazy_index_agrees_with_the_full_table(draws, family, bounds):
    # the top exponents rise, fall and repeat: the draws, then the same reversed;
    # the pipeline runs last, on an index some larger target may have extended
    matcher._model_index.cache_clear()
    bounded = dict(family=family, max_w2=bounds[0], max_u=bounds[1])
    for (_, w), k, formal in draws + draws[::-1]:
        series = model_series(w)
        if k:
            series = HilbertSeries(series.numerator * one_minus(k), series.denominator + (1,))
        n_target = series.numerator
        index = matcher._model_index(family, *bounds)
        looked_up = Counter(w for w, _, _ in index.lookup(n_target, formal))
        assert looked_up == scan_order(family, *bounds, n_target, formal)
        # a half-integral coefficient reaches no model
        halves = n_target + LaurentPoly({1: Fraction(1, 2)})
        assert list(index.lookup(halves, formal)) == []
        query = MatchQuery(target=HilbertSeries(n_target), **bounded)
        assert search_key(search(query)) == search_key(by_linear_scan(search, query))
    kwargs = dict(user_generators=[series.denominator], **bounded)
    with augment_bound(1):
        assert (match_pipeline(series, **kwargs).to_json()
                == by_linear_scan(match_pipeline, series, **kwargs).to_json())
    matcher._model_index.cache_clear()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_MODELS), st.booleans(),
       st.integers(0, 9).flatmap(lambda n: st.lists(st.integers(1, 5), min_size=n, max_size=n)),
       st.sampled_from((None, "wgr25", "wogr510")), st.sampled_from(((3, 1), (4, 2))))
@example(SMALL_MODELS[-1], False, [1] * 9, None, (4, 2))
@example(SMALL_MODELS[-1], True, [1, 2, 2, 3, 1, 4, 1, 1], None, (4, 2))
def test_pruning_by_the_order_at_one_loses_no_candidate(model, cone, factors, family, bounds):
    # the target is a model numerator, over its coordinates and a cone, times
    # 0 to 9 factors (1 - t^k): 9 factors are past the 8 a formal match strips
    _, w = model
    series = model_series(w)
    n_target = series.numerator * denominator_poly(factors)
    target = HilbertSeries(n_target, series.denominator + (1,) * cone)
    bounded = dict(family=family, max_w2=bounds[0], max_u=bounds[1])
    matcher._model_index.cache_clear()
    index = matcher._model_index(family, *bounds)
    for formal in (False, True):
        looked_up = Counter(v for v, _, _ in index.lookup(n_target, formal))
        assert looked_up == scan_order(family, *bounds, n_target, formal)
    for query in (MatchQuery(target=HilbertSeries(n_target), **bounded),
                  MatchQuery(target=target, generator_degrees=target.denominator, **bounded)):
        assert search_key(search(query)) == search_key(by_linear_scan(search, query))
    kwargs = dict(user_generators=[target.denominator], **bounded)
    with augment_bound(1):
        assert (match_pipeline(target, **kwargs).to_json()
                == by_linear_scan(match_pipeline, target, **kwargs).to_json())
    matcher._model_index.cache_clear()


def order_by_dense_division(n_target, most):
    """Reference: the order of the zero of n_target at t = 1, found by dividing its
    dense coefficients by (1 - t) until a division is not exact or it passes ``most``."""
    coeffs, r = n_target.dense(0, n_target.max_exp()), 0
    while r <= most and over_one_minus(coeffs, 1):
        coeffs.pop()
        r += 1
    return r


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 12), st.integers(-4, 4).filter(bool), min_size=1, max_size=6),
       st.integers(0, 16), st.lists(st.integers(2, 6), max_size=4), st.booleans())
@example({0: 1}, 16, [2, 3], True)      # order 18: past the most any family can use
def test_the_order_read_off_the_moments_picks_the_slices_the_dense_division_picked(
        terms, ones, factors, formal):
    # each family's slices follow from r alone; orders past the largest useful
    # one (a formal match of SECTION_FACTORS factors to the largest codim) pick none
    n_target = LaurentPoly(terms) * denominator_poly((1,) * ones + tuple(factors))
    index, reached = matcher._ModelIndex(None, 4, 2), []
    index.reach = lambda fam, lo, hi: reached.append((fam, lo, hi)) or {}
    assert list(index.lookup(n_target, formal)) == []
    most = matcher.SECTION_FACTORS + max(family.codim for family in FAMILIES.values())
    r, top, expected = order_by_dense_division(n_target, most), n_target.max_exp(), []
    for fam, family in FAMILIES.items():
        m = r - family.codim
        if m == 0:
            expected.append((fam, top - 1, top))
        elif formal and 0 < m <= matcher.SECTION_FACTORS:
            expected.append((fam, 0, top - m))
    assert reached == expected


def test_a_query_builds_no_model_beyond_its_top_exponent(monkeypatch):
    built = []
    for cls in (GrWeights, OGrWeights):
        def recording(self, *args, _original=cls.__init__):
            _original(self, *args)
            built.append(self.top_exponent())
        monkeypatch.setattr(cls, "__init__", recording)
    matcher._model_index.cache_clear()
    target = HilbertSeries(LaurentPoly({0: 1, 2: -5, 3: 5, 5: -1}))
    hits = search(MatchQuery(target=target, max_w2=12, max_u=6))
    assert [m.base for m in hits] == [GrWeights((1, 1, 1, 1, 1))]
    assert built and max(built) == 5
    matcher._model_index.cache_clear()


@contextlib.contextmanager
def recorded_enumerations():
    """A list of (family, window, models returned) for each call of an enumerator."""
    calls = []

    def counting(name, fam):
        original = getattr(matcher, name)

        def wrapper(*args):
            out = original(*args)
            calls.append((fam, args[-1], len(out)))
            return out
        return wrapper

    with mock.patch.object(matcher, "enumerate_gr_weights",
                           counting("enumerate_gr_weights", "wgr25")), \
            mock.patch.object(matcher, "enumerate_ogr_weights",
                              counting("enumerate_ogr_weights", "wogr510")):
        yield calls


def in_range(family, bounds, lo, hi):
    return sum(lo < w.top_exponent() <= hi for _, w, _, _ in full_table(family, *bounds))


def order_six(top):
    """(1 - t)^5 (1 - t^(top - 5)): a formal scan reaches wGr(2,5) to top - 3
    and wOGr(5,10) to top - 1."""
    return denominator_poly((1,) * 5 + (top - 5,))


def test_a_larger_top_exponent_enumerates_only_the_new_slices():
    matcher._model_index.cache_clear()
    with recorded_enumerations() as calls:
        for top in (12, 24, 12, 24, 8):
            list(matcher._model_index(None, 4, 2).lookup(order_six(top), formal=True))
    assert [c[:2] for c in calls] == [("wgr25", (0, 9)), ("wogr510", (0, 11)),
                                      ("wgr25", (9, 21)), ("wogr510", (11, 23))]
    for fam, window, models in calls:
        assert models == in_range(fam, (4, 2), *window) > 0
    # order 1, and order 6 without formal: no family fits, nothing is enumerated
    with recorded_enumerations() as calls:
        for target, formal in ((LaurentPoly({0: 1, 30: -1}), True), (order_six(30), False)):
            assert list(matcher._model_index(None, 4, 2).lookup(target, formal)) == []
    assert calls == []
    matcher._model_index.cache_clear()


def test_a_target_of_a_familys_codimension_enumerates_its_own_top_alone():
    # a wOGr(5,10) numerator vanishes to order 5 at t = 1: search enumerates
    # its top of wOGr(5,10) alone and no wGr(2,5) model.  A formal scan that
    # later reaches past that top enumerates the prefix around it, and the
    # index holds each model once
    w = OGrWeights((0, 0, 2, 2, 4), 1)
    top = w.top_exponent()
    matcher._model_index.cache_clear()
    with recorded_enumerations() as calls:
        query = MatchQuery(target=w.hilbert_series(), generator_degrees=w.coordinate_weights())
        for _ in range(2):
            assert search(query) == [AmbientModel(w)]
        index = matcher._model_index(None, matcher.DEFAULT_MAX_W2, matcher.DEFAULT_MAX_U)
        list(index.lookup(order_six(top + 10), formal=True))
    matcher._model_index.cache_clear()
    bounds = (matcher.DEFAULT_MAX_W2, matcher.DEFAULT_MAX_U)
    assert [c[:2] for c in calls] == [("wogr510", (top - 1, top)), ("wgr25", (0, top + 7)),
                                      ("wogr510", (0, top + 9))]
    for fam, window, models in calls:
        assert models == in_range(fam, bounds, *window) > 0
    held = [OGrWeights(*fields) for models in index.slices["wogr510"].values()
            for fields, _ in models]
    assert Counter(held) == Counter(v for _, v, _, _ in full_table("wogr510", *bounds)
                                    if v.top_exponent() <= top + 9)


def test_a_sliced_enumeration_is_the_full_table_restricted():
    for lo, hi in ((0, 6), (6, 13), (13, 40), (40, 100)):
        assert gr_models(5, (lo, hi)) == [
            w for w in gr_models(5) if lo < w.top_exponent() <= hi]
        assert ogr_models(5, 3, (lo, hi)) == [
            w for w in ogr_models(5, 3) if lo < w.top_exponent() <= hi]
    # the full Pfaffian table: every sorted tuple of one parity with w0 + w1 > 0
    for max_w2 in range(1, 9):
        assert gr_models(max_w2) == [
            GrWeights(tup) for parity in (0, 1)
            for tup in itertools.combinations_with_replacement(
                range(-max_w2 + (max_w2 + parity) % 2, max_w2 + 1, 2), 5)
            if tup[0] + tup[1] > 0]


def enumerate_gr_objects(max_w2, tau=None):
    """Reference: the Pfaffian enumerator as it was when it built the weights."""
    lo, hi = tau or (-math.inf, math.inf)
    out = []
    for parity in (0, 1):
        vals = range(-max_w2 + ((-max_w2 - parity) % 2), max_w2 + 1, 2)
        for w0 in vals:
            rest = [v for v in vals if v >= w0 and v > -w0]
            for tup in itertools.combinations_with_replacement(rest, 4):
                if lo < w0 + sum(tup) <= hi:
                    out.append(GrWeights((w0,) + tup))
    return out


def enumerate_ogr_objects(max_w2, max_u, tau=None):
    """Reference: the spinor enumerator as it was when it built the weights."""
    lo, hi = tau or (-math.inf, math.inf)
    out = []
    for parity in (0, 1):
        vals = range(parity, max_w2 + 1, 2)
        for tup in itertools.combinations_with_replacement(vals, 5):
            s2 = sum(tup)
            if 2 * (s2 - 2 * tup[0] + 4) > hi or 2 * (s2 + 4 * max_u) <= lo:
                continue
            variants = [tup]
            if all(v > 0 for v in tup):
                variants.append((-tup[0],) + tup[1:])
            for w2 in variants:
                s8 = 2 * sum(w2)
                for u in range(max(1, (lo - s8) // 8 + 1), min(max_u, (hi - s8) // 8) + 1):
                    out.append(OGrWeights(w2, u))
    return out


@pytest.mark.parametrize("bounds", [(8, 4), (12, 6), (16, 8)])
def test_the_enumerated_field_values_are_the_fields_of_the_weights_once_built(bounds):
    # the whole table, prefixes, a range, single tops and an empty window, in
    # the same order, with the same types: each tuple is the Record's own
    # fields, and rebuilds it
    for fam, reference in (("wgr25", lambda tau: enumerate_gr_objects(bounds[0], tau)),
                           ("wogr510", lambda tau: enumerate_ogr_objects(*bounds, tau))):
        tops = sorted({w.top_exponent() for w in reference(None)})
        n = len(tops)
        windows = [None, (0, tops[n // 3]), (0, tops[n // 2]), (tops[n // 3], tops[2 * n // 3]),
                   (0, 0)] + [(t - 1, t) for t in tops[::max(1, n // 6)]]
        for tau in windows:
            fields, objects = matcher._ENUMERATE[fam](*bounds, tau), reference(tau)
            assert fields == [tuple(vars(w).values()) for w in objects], (fam, tau)
            assert all(type(f[0]) is tuple and {type(v) for v in f[0] + f[1:]} == {int}
                       for f in fields), (fam, tau)
            assert [FAMILIES[fam](*f) for f in fields] == objects, (fam, tau)
            assert bool(fields) == (tau != (0, 0)), (fam, tau)


@pytest.mark.parametrize("bounds", [(8, 4), (12, 6)])
def test_banks_of_the_field_values_are_the_top_and_the_sorted_lower_banks(bounds):
    # the index reads banks_of(*fields) and never builds the weights; the
    # weights derive top_exponent() and lower_banks() from the same function,
    # and both agree with the banks restated from the coordinate weights
    for fam, family in FAMILIES.items():
        for fields in matcher._ENUMERATE[fam](*bounds, None):
            w, (top, banks) = family(*fields), family.banks_of(*fields)
            assert w.top_exponent() == top
            assert w.lower_banks() == tuple(tuple(sorted(bank)) for bank in banks)
            d = Fraction(top, 2 if fam == "wgr25" else 4)
            relations = sorted(d + s * Fraction(v, 2) for v in w.w2
                               for s in ((-1,) if fam == "wgr25" else (-1, 1)))
            syzygies = [2 * d - a for a in reversed(w.coordinate_weights())]
            assert w.lower_banks() == ((tuple(relations),) if fam == "wgr25"
                                       else (tuple(relations), tuple(syzygies))), w


def test_a_cold_search_builds_the_weights_of_the_models_its_lookup_hits_alone(monkeypatch):
    # the index holds field values: a weights object is built at a model's first
    # hit alone, and for no other model of the slices reached
    w = OGrWeights((0, 0, 2, 2, 4), 1)
    query = MatchQuery(target=w.hilbert_series(), generator_degrees=w.coordinate_weights())
    built = []
    for cls in (GrWeights, OGrWeights):
        def recording(self, *args, _original=cls.__init__):
            _original(self, *args)
            built.append(self)
        monkeypatch.setattr(cls, "__init__", recording)
    matcher._model_index.cache_clear()
    try:
        assert search(query) == [AmbientModel(w)]
        index = matcher._model_index(None, matcher.DEFAULT_MAX_W2, matcher.DEFAULT_MAX_U)
    finally:
        matcher._model_index.cache_clear()
    hits = [hit for hit, _, _ in index.hits.values()]
    assert 0 < len(hits) < count_models(index.slices)      # 1 of the 9 in its top
    assert Counter(built) == Counter(hits)
    assert set(index.hits) == {(v.family, tuple(vars(v).values())) for v in hits}


# -- search as the quasilinear filter of the pipeline's scan --------------------

def reference_search(query, canonical_degree=None):
    """Oracle: ``search`` as it was before it shared the pipeline's scan, with
    its own numerator, cone and dedup tests, keeping only the models of
    ``canonical_degree`` when it is given."""
    gens = query.generator_degrees
    if query.target.denominator:
        if gens is None:
            gens = infer_and_force(query.target, basket=query.basket)
        n_target = query.target.hilbert_numerator(gens)
    else:
        n_target = query.target.numerator
    results = {}
    index = matcher._model_index(query.family, query.max_w2, query.max_u)
    for w, series, _ in index.lookup(n_target):
        if series.numerator != n_target:
            continue
        cone = ()
        if gens is not None:
            gcount = Counter(gens)
            ccount = Counter(series.denominator)
            extra = gcount - ccount
            if set(extra) - {1} or ccount - gcount:
                continue
            cone = (1,) * extra[1]
        model = AmbientModel(w, cone)
        if canonical_degree is not None and model.canonical_degree() != canonical_degree:
            continue
        if query.basket and not singularity_filter(model, query.basket)[0]:
            continue
        results[table_entry(w) + (cone,)] = model
    return [results[k] for k in sorted(results)]


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


BASKETS = ((), BASKET_CY3, BASKET_CAN3, (QuotientSingularity(2, (1, 1, 1)),),
           (QuotientSingularity(3, (1, 1, 2)),))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_MODELS), st.sampled_from((None, "wgr25", "wogr510")),
       st.sampled_from(("none", "own", "own+1", "own+2", "own-1", "empty")),
       st.sampled_from((None, 1, 2)), st.sampled_from(BASKETS),
       st.sampled_from((None, "own", -5)))
def test_search_equals_its_previous_body(model, family, gens_kind, k, basket, canonical):
    # with k, a degree-k hypersurface in the cone over the model: its own
    # generators carry one extra degree-1 coordinate
    _, w = model
    series = model_series(w)
    if k:
        series = HilbertSeries(series.numerator * one_minus(k), series.denominator + (1,))
    own = series.denominator
    gens = {"none": None, "own": own, "own+1": own + (1,), "own+2": tuple(sorted(own + (2,))),
            "own-1": own[1:], "empty": ()}[gens_kind]
    degree = AmbientModel(w).canonical_degree() if canonical == "own" else canonical
    for target in (series, HilbertSeries(series.numerator)):
        query = MatchQuery(target=target, generator_degrees=gens, family=family,
                           basket=basket, **SMALL)
        got, want = outcome(search, query), outcome(reference_search, query, degree)
        if degree is not None and isinstance(got, list):
            got = [m for m in got if m.canonical_degree() == degree]
        # a numerator that does not clear is refused with the same reason,
        # now followed by the degrees tried and what to do instead
        assert got == want or (got[0] == want[0] == "SeriesError" and got[1].startswith(
            want[1] + " with generator degrees "))


def test_search_refusal_names_the_inferred_degrees():
    # greedy inference stops one degree short of this model's 10 coordinates
    target = GrWeights((0, 2, 2, 2, 4)).hilbert_series()
    assert infer_generators(target) == (1, 1, 1, 2, 2, 2, 2, 3, 3)
    with pytest.raises(SeriesError, match=re.escape(
            "denominator does not clear series with generator degrees {1^3,2^4,3^2}; "
            "give generator_degrees= or use match_pipeline, which tries one more degree")):
        search(MatchQuery(target=target))
    report = match_pipeline(target, max_w2=4, max_u=2)
    assert GrWeights((0, 2, 2, 2, 4)) in [c.model.base for c in report.candidates if c.accepted]


def test_a_query_keeps_its_degrees_and_basket_as_tuples():
    # an empty list of degrees, or a basket given as a list, was kept as a
    # list, so the query could not be hashed
    target = GrWeights((1, 1, 1, 1, 1)).hilbert_series()
    assert MatchQuery(target=target).generator_degrees is None
    for given in ([], [2, 1, 1]):
        query = MatchQuery(target=target, generator_degrees=given)
        assert query.generator_degrees == tuple(sorted(given))
        assert hash(query) == hash(MatchQuery(target=target, generator_degrees=tuple(given)))
    query = MatchQuery(target=target, basket=list(BASKET_CAN3))
    assert query == MatchQuery(target=target, basket=BASKET_CAN3)
    assert hash(query) == hash(MatchQuery(target=target, basket=BASKET_CAN3))


def test_search_refusal_of_given_degrees_names_them_without_the_hint():
    # the hint to give generator_degrees= is for degrees that search inferred
    target = GrWeights((1, 1, 1, 1, 1)).hilbert_series()    # ten coordinates of degree 1
    for given, named in (((), "{}"), ((1,) * 6, "{1^6}")):
        with pytest.raises(SeriesError) as refusal:
            search(MatchQuery(target=target, generator_degrees=given))
        assert str(refusal.value).endswith(f" with generator degrees {named}")


def shuffled(rng):
    """``_ModelIndex.lookup`` yielding its models in an order drawn from ``rng``."""
    lookup = matcher._ModelIndex.lookup

    def wrapper(*args, **kwargs):
        out = list(lookup(*args, **kwargs))
        rng.shuffle(out)
        return iter(out)
    return wrapper


# a cone hypersurface over it is a formal match of both families in one scan
MIRAGE = ("wogr510", OGrWeights((0, 0, 2, 2, 4), 1))


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.just(MIRAGE), st.sampled_from(SMALL_MODELS)),
       st.sampled_from((None, "wgr25", "wogr510")), st.sampled_from((None, 1, 2)),
       st.sampled_from(BASKETS), st.randoms(use_true_random=False))
def test_results_do_not_depend_on_the_lookup_order(model, family, k, basket, rng):
    _, w = model
    series = model_series(w)
    if k:
        series = HilbertSeries(series.numerator * one_minus(k), series.denominator + (1,))
    queries = [MatchQuery(target=series, generator_degrees=gens, family=family, basket=basket,
                          **SMALL) for gens in (None, series.denominator)]
    kwargs = dict(basket=basket, family=family, user_generators=[series.denominator], **SMALL)
    with augment_bound(2):
        expected = ([outcome(search, q) for q in queries],
                    match_pipeline(series, **kwargs).to_json())
        with mock.patch.object(matcher._ModelIndex, "lookup", shuffled(rng)):
            got = ([outcome(search, q) for q in queries],
                   match_pipeline(series, **kwargs).to_json())
    assert got == expected


def test_enumerated_models_have_distinct_canonical_keys():
    # no two table entries share an orbit, so the index names a model by its entry
    # and dedup by entry keeps the same model whichever one a scan meets first: the
    # sorted w2 are the wGr(2,5) orbit representatives, the W(D5) canonical forms
    # those of wOGr(5,10)
    for max_w2, max_u in [(8, 4), (12, 6)]:
        for keys in ([GrWeights(*fields).w2 for fields in enumerate_gr_weights(max_w2)],
                     [OGrWeights(*fields).canonical_form()
                      for fields in enumerate_ogr_weights(max_w2, max_u)]):
            assert len(keys) == len(set(keys)) > 0


# -- a verdict is fixed when its candidate is made ---------------------------------

@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_MODELS), st.sampled_from((None, 1, 2)), st.sampled_from(BASKETS))
def test_each_verdict_is_the_filter_and_status_of_its_candidate(model, k, basket):
    # accepted iff the singularity filter passes and the match is quasilinear;
    # otherwise the reason is the filter's, or the status
    _, w = model
    series = model_series(w)
    if k:
        series = HilbertSeries(series.numerator * one_minus(k), series.denominator + (1,))
    with augment_bound(2):
        report = match_pipeline(series, basket=basket, user_generators=[series.denominator],
                                **SMALL)
    assert report.candidates
    for cand in report.candidates:
        ok, reason = singularity_filter(cand.model, basket)
        assert cand.accepted == (ok and cand.status == "quasilinear")
        if not ok:
            assert cand.reason == reason
        else:
            assert cand.reason == (None if cand.accepted else cand.status)


VERDICT = ("accepted", "reason")


def verdict_assignments(source):
    """``line: code`` for each statement that assigns to an ``accepted`` or
    ``reason`` attribute, or sets one by name with ``setattr``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = node.args[1] if len(node.args) > 1 else None
            found = (ast.unparse(node.func) in ("setattr", "object.__setattr__")
                     and isinstance(name, ast.Constant) and name.value in VERDICT)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = any(isinstance(sub, ast.Attribute) and sub.attr in VERDICT
                        for target in targets for sub in ast.walk(target))
        else:
            continue
        if found:
            hits.append((node.lineno, ast.unparse(node).splitlines()[0]))
    return [f"{line}: {code}" for line, code in sorted(hits)]


def test_the_verdict_scan_sees_each_assignment():
    source = ("c.accepted = False\n"
              "x, c.reason = 1, None\n"
              "c.accepted |= True\n"
              "c.reason: str = 'late'\n"
              "for c.reason in reasons: pass\n"
              "setattr(c, 'accepted', True)\n"
              "object.__setattr__(c, 'reason', None)\n"
              "accepted, reason = True, None\n"
              "c.status = 'quasilinear'\n"
              "setattr(c, 'status', 'quasilinear')\n")
    assert [hit.split(":")[0] for hit in verdict_assignments(source)] == [
        "1", "2", "3", "4", "5", "6", "7"]


def test_no_verdict_is_assigned_after_its_candidate_is_made():
    assert verdict_assignments(Path(matcher.__file__).read_text()) == []
    # the verdict has no default: a candidate built without one is refused
    model = AmbientModel(GrWeights((1, 1, 1, 1, 1)))
    fields = dict(model=model, numerator=model.base.hilbert_series().numerator, sections=(),
                  nonlinear=(), generators=(1,) * 10, provenance="series",
                  status="quasilinear", accepted=True, reason=None)
    assert matcher.MatchCandidate(**fields) == matcher.MatchCandidate(*fields.values())
    for name in ("status",) + VERDICT:
        with pytest.raises(TypeError, match=f"missing \\['{name}'\\]"):
            matcher.MatchCandidate(**{k: v for k, v in fields.items() if k != name})


# -- incremental generator inference against the re-expanding loop it replaced --

def infer_by_reexpanding(series, basket=None, residue_forcing=True):
    """Reference: multiply the series by each (1 - t^k) and expand it again."""
    gens, current, depth = [], series, matcher.DEFAULT_DEPTH
    while True:
        coeffs = current.expand(depth)
        k = next((i for i in range(1, depth + 1) if coeffs[i] != 0), None)
        if k is None or coeffs[k] < 0:
            break
        c = coeffs[k]
        if c.denominator != 1:
            raise ValueError(f"non-integral coefficient {c} at degree {k}")
        gens.extend([k] * int(c))
        for _ in range(int(c)):
            current = HilbertSeries(current.numerator * one_minus(k), current.denominator)
    if basket:
        needed = Counter(sing.r for sing in basket)
        for r, n in sorted(needed.items()):
            have = sum(1 for g in gens if g % r == 0)
            gens.extend([r] * max(0, n - have))
        if residue_forcing:
            for sing in basket:
                for res in sorted({w % sing.r for w in sing.weights} - {0}):
                    if not any(g % sing.r == res for g in gens):
                        gens.append(res)
    return tuple(sorted(gens))


@settings(max_examples=150, deadline=None)
@given(st.one_of(gr_weights(), ogr_weights()),
       st.sampled_from((None, BASKET_CY3, BASKET_CAN3)), st.booleans(),
       st.sampled_from((None, 1, 2, 5)))
def test_incremental_inference_matches_reexpanding_loop(w, basket, residue_forcing, k):
    # with k, a degree-k hypersurface in the cone over the model
    series = model_series(w)
    if k:
        series = HilbertSeries(series.numerator * one_minus(k), series.denominator + (1,))
    kwargs = dict(basket=basket, residue_forcing=residue_forcing)
    assert (outcome(infer_and_force, series, **kwargs)
            == outcome(infer_by_reexpanding, series, **kwargs))


def test_incremental_inference_on_rr_series_and_errors():
    for series in (H_CY3, H_CAN3):
        for basket in (None, BASKET_CY3, BASKET_CAN3):
            assert infer_and_force(series, basket=basket) == infer_by_reexpanding(
                series, basket=basket)
    halves = HilbertSeries(LaurentPoly({0: 1, 2: Fraction(1, 2)}), (1, 2))
    assert outcome(infer_generators, halves) == outcome(
        infer_by_reexpanding, halves) == ("ValueError", "non-integral coefficient 3/2 at degree 2")
    negative = HilbertSeries(LaurentPoly({-1: 1, 0: 1}), (1,))
    with pytest.raises(SeriesError):
        infer_generators(negative)


def test_inference_matches_the_reexpanding_loop_on_every_bounded_model():
    # each model at the default bounds, its 1-cone and one hypersurface section of it
    rng, count = random.Random(45), 0
    for _, w in DEFAULT_MODELS:
        series = w.hilbert_series()
        for target in (series, HilbertSeries(series.numerator, series.denominator + (1,)),
                       HilbertSeries(series.numerator * one_minus(rng.randint(1, 8)),
                                     series.denominator)):
            assert outcome(infer_generators, target) == outcome(infer_by_reexpanding, target)
            count += 1
    assert count == 3 * 1365


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(1, matcher.DEFAULT_DEPTH + 4),
                       st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3)),
                       max_size=8),
       st.lists(st.integers(1, 6), max_size=6))
@example({1: Fraction(1, 2)}, [1])                  # b_1 = 3/2: refused by both
@example({1: -1}, [1, 2, 2])                        # b_1 = 0: degree 1 has no generator
@example({matcher.DEFAULT_DEPTH: 2}, [])            # the last degree read
def test_inference_matches_the_reexpanding_loop_on_series_starting_at_1(terms, denominator):
    series = HilbertSeries(LaurentPoly({0: 1, **terms}), denominator)
    assert outcome(infer_generators, series) == outcome(infer_by_reexpanding, series)


@pytest.mark.parametrize("numerator, constant", [
    ({1: 1}, "0"), ({0: 2}, "2"), ({0: -1, 2: 1}, "-1"), ({0: Fraction(1, 2), 1: 1}, "1/2")])
def test_a_series_whose_expansion_does_not_start_at_1_is_refused(numerator, constant):
    # t / (1 - t) kept the greedy at degree 1 for ever: with no constant term, no
    # factor (1 - t) clears its coefficient there.  infer_by_reexpanding would hang too
    series = HilbertSeries(LaurentPoly(numerator), (1,))
    for query in (lambda: infer_generators(series),
                  lambda: search(MatchQuery(target=series, **SMALL)),
                  lambda: match_pipeline(series, **SMALL)):
        with pytest.raises(SeriesError, match=f"^the expansion starts with {constant}, not 1"):
            query()
    # an expansion that vanishes to the depth read has no generators, as before
    assert infer_generators(HilbertSeries(LaurentPoly({matcher.DEFAULT_DEPTH + 1: 1}), (1,))) == ()


def quasilinear_sections_by_search(gens, coord_weights):
    """The cone count found by trying 0, 1, ... cones up to the number of
    weight-1 generators, each with a full containment check."""
    need = Counter(gens)
    have = Counter(coord_weights)
    for c in range(0, need[1] + 1):
        havec = have.copy()
        havec[1] += c
        if all(havec[d] >= need[d] for d in need):
            sections = sorted((havec - need).elements())
            return c, tuple(sections)
    return None, None


weight_multisets = st.lists(st.integers(1, 6), max_size=12)


@settings(max_examples=500, deadline=None)
@given(weight_multisets, weight_multisets)
def test_closed_form_cone_count_equals_the_search(gens, coords):
    assert (matcher._quasilinear_sections(gens, coords)
            == quasilinear_sections_by_search(gens, coords))

