"""Python-level contracts: integer MPoly coefficients, the weight-family
interface, and the names the package exports, most of which load from their
module on first use."""

import re
from dataclasses import dataclass
from fractions import Fraction

import pytest

import wgk
from wgk import sections, spinor, wogr510
from wgk.polynomials import MPoly
from wgk.series import HilbertSeries, LaurentPoly
from wgk.wgrass25 import WeightFamily

# the public names wgk.wogr510 defined before its paper-only part moved out
WOGR510_NAMES = (
    "EQUATION_NAMES", "FULL", "OGrWeights", "PAIRS", "SECOND_SYZYGY_COLUMNS",
    "SpinorGraph", "VERTEX_NAMES", "VERTICES", "canonical_vertex", "equations",
    "even_rep", "first_syzygies", "membership", "parametrize",
    "point_satisfies_equations", "second_syzygy_degree_check", "spinor_graph",
    "verify_ogr_syzygies", "verify_parametrization", "vertex_name", "wd5_compose",
    "wd5_element_order", "wd5_elements", "wd5_generators", "wd5_identity",
    "wd5_vertex_action", "wd5_weight_action",
)

PACKAGE_NAMES = (
    "AmbientModel", "Chart", "GrNumerology", "GrWeights", "HilbertSeries",
    "LaurentPoly", "MatchQuery", "OGrWeights", "PeriodicTable", "QuotientSingularity",
    "RRData", "SectionSpec", "ambient_series", "binom3", "equations", "first_syzygies",
    "fit_pfaffian_weights", "hilbert_can3", "hilbert_cy3", "hilbert_series",
    "infer_generators", "invariants", "local_term", "match_pipeline", "membership",
    "parametrize", "pfaffian_equations", "plurigenus", "quasilinear_embed", "rr_roundtrip", "search", "section_canonical",
    "section_series", "singularity_analysis", "singularity_filter",
    "spinor_graph", "verify_gr_identities", "verify_ogr_syzygies",
    "verify_parametrization", "wd5_elements",
)


def test_integral_mpoly_coefficients_are_ints():
    assert type(MPoly({(): Fraction(4, 2)}).terms[()]) is int
    assert MPoly({(): Fraction(4, 2)}).terms[()] == 2
    assert MPoly({(): Fraction(1, 2)}).terms[()] == Fraction(1, 2)
    x = MPoly.var("x")
    assert all(type(c) is int for c in ((x - 3) ** 3 * Fraction(2, 1)).terms.values())


def test_fraction_and_int_built_polynomials_are_equal_and_hash_equally():
    monomial = (("x", 1), ("y", 2))
    p, q = MPoly({monomial: Fraction(3, 1), (): 1}), MPoly({monomial: 3, (): 1})
    assert p == q and hash(p) == hash(q)
    half = MPoly({monomial: Fraction(1, 2)})
    assert half * 2 == MPoly({monomial: 1}) and hash(half * 2) == hash(MPoly({monomial: 1}))


def test_a_float_coefficient_is_refused_with_the_same_message():
    message = re.escape("float coefficient 0.5: use an int or a Fraction")
    with pytest.raises(TypeError, match=message):
        MPoly({(): 0.5})
    x = MPoly.var("x")
    for build in (lambda: MPoly.const(0.5), lambda: x + 0.5, lambda: x - 0.5,
                  lambda: 0.5 - x, lambda: x * 0.5, lambda: 0.5 * x):
        with pytest.raises(TypeError, match=message):
            build()
    t, h = LaurentPoly({1: 1}), HilbertSeries(LaurentPoly.one(), (1,))
    for build in (lambda: LaurentPoly({0: 0.5}), lambda: t * 0.5, lambda: 0.5 * t,
                  lambda: t.scale(0.5), lambda: h + 0.5, lambda: 0.5 + h):
        with pytest.raises(TypeError, match=message):
            build()


# -- the weight-family contract ---------------------------------------------------

DERIVED = ("coordinate_weights", "numerator_terms", "hilbert_series", "adjunction",
           "canonical_degree", "is_well_formed")


@dataclass(frozen=True)
class Hypersurface(WeightFamily):
    """X_e in P(a), stating only the primitives of a family."""
    a: tuple
    e: int
    family = "hypersurface"

    @property
    def dim(self):
        return len(self.a) - 2

    def coordinates(self):
        return [(f"y{k}", a) for k, a in enumerate(self.a)]

    def equations(self):
        return []       # a general form of degree e; nothing here reads it

    def resolution_degrees(self):
        return {"relations": (self.e,)}

    def top_exponent(self):
        return self.e

    def charts(self):
        return []

    def canonical_form(self):
        return self


@pytest.mark.parametrize("a, e, canonical", [((1, 1, 2, 3), 6, -1), ((1, 1, 1, 1), 4, 0)])
def test_a_family_stating_only_its_primitives_gets_the_derived_members(a, e, canonical):
    x = Hypersurface(a, e)
    assert x.coordinate_weights() == tuple(sorted(a))
    assert x.numerator_terms() == {0: 1, e: -1}
    series = x.hilbert_series()
    assert (series.numerator, series.denominator) == (LaurentPoly({0: 1, e: -1}), a)
    assert x.adjunction() == e
    assert x.canonical_degree() == e - sum(a) == canonical
    assert x.is_well_formed() == (True, None)


def test_no_family_restates_a_derived_member():
    assert set(DERIVED) <= vars(WeightFamily).keys()
    for cls in sections.FAMILIES.values():
        assert issubclass(cls, WeightFamily)
        assert not set(DERIVED) & vars(cls).keys(), cls.__name__


def test_every_wogr510_name_still_resolves():
    for name in WOGR510_NAMES:
        assert getattr(wogr510, name) is not None, name
    for name in wogr510.SPINOR_NAMES:
        assert getattr(wogr510, name) is getattr(spinor, name)
    from wgk.wogr510 import spinor_graph, wd5_elements
    assert len(wd5_elements()) == 1920 and len(spinor_graph().edges) == 40
    with pytest.raises(AttributeError, match="no_such_name"):
        wogr510.no_such_name


def test_every_package_name_still_resolves():
    assert wgk.__all__ == sorted(PACKAGE_NAMES)
    for name in PACKAGE_NAMES:
        assert getattr(wgk, name) is not None, name
    namespace = {}
    exec("from wgk import *", namespace)
    assert set(PACKAGE_NAMES) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        wgk.no_such_name
