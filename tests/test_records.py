"""The value records are plain classes on ``series.Record``: built twice from
the same arguments, by position or by name, they are equal and hash equally, a
field can be neither set nor deleted, a record never equals the tuple of its
fields, ``repr`` and ``hash`` are those of a frozen dataclass with the same
fields, and a missing, extra or unknown field is a ``TypeError``."""

import dataclasses
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from wgk.matcher import MatchCandidate
from wgk.orbifold_rr import PeriodicTable, RRData
from wgk.sections import AmbientModel, QuotientSingularity, StratumRecord, section_series
from wgk.wgrass25 import Chart, GrWeights
from wgk.wogr510 import OGrWeights


def valid(built):
    cls, args = built
    try:
        cls(*args)
    except ValueError:
        return False
    return True


doubled_weights = st.tuples(st.integers(0, 1), st.lists(st.integers(-4, 6), min_size=5,
                                                        max_size=5)).map(
    lambda pw: tuple(2 * w + pw[0] for w in pw[1]))
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
gr = doubled_weights.map(lambda w2: (GrWeights, (w2,))).filter(valid)
ogr = st.tuples(doubled_weights, st.integers(-2, 4)).map(lambda a: (OGrWeights, a)).filter(valid)
tables = st.integers(1, 5).flatmap(lambda r: st.lists(fractions, min_size=r - 1, max_size=r - 1)
                                   .map(lambda vs: (PeriodicTable, (r, (0, *vs)))))

RECORDS = st.one_of(
    gr, ogr,
    st.tuples(st.one_of(gr, ogr), st.lists(st.integers(1, 4), max_size=3)).map(
        lambda a: (AmbientModel, (a[0][0](*a[0][1]), a[1]))),
    st.tuples(st.integers(1, 12), st.lists(st.integers(-3, 20), max_size=4)).map(
        lambda a: (QuotientSingularity, a)),
    tables,
    st.tuples(st.integers(-2, 1), fractions, fractions, fractions, st.lists(tables, max_size=2)
              ).map(lambda a: (RRData, (*a[:4], [cls(*args) for cls, args in a[4]]))),
)


def fields(record):
    return tuple(getattr(record, name) for name in type(record)._fields)


@lru_cache(maxsize=None)
def frozen_dataclass(cls):
    """The frozen dataclass with the name and fields of ``cls``."""
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)


@settings(max_examples=200, deadline=None)
@given(RECORDS, RECORDS)
def test_a_record_is_an_immutable_value(built, other):
    cls, args = built
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and hash(a) == hash(b)
    assert cls(**dict(zip(cls._fields, args))) == a     # by name as by position
    assert tuple(vars(a)) == cls._fields       # the fields, in order, and nothing else
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a != fields(a) and fields(a) != a
    c = other[0](*other[1])
    assert (a == c) == (cls is type(c) and fields(a) == fields(c))
    # repr and hash are the frozen dataclass's, so sets of records iterate as before
    frozen = frozen_dataclass(cls)(*fields(a))
    assert repr(a) == repr(frozen) and hash(a) == hash(frozen)


def test_the_dataclass_repr_format():
    assert repr(GrWeights((1, 1, 1, 1, 1))) == "GrWeights(w2=(1, 1, 1, 1, 1))"
    assert repr(QuotientSingularity(4, (3, 1, 1))) == "QuotientSingularity(r=4, weights=(1, 1, 3))"
    assert repr(RRData(0, 1, 0, 2)) == ("RRData(k=0, acubed=Fraction(1, 1), chi=Fraction(0, 1), "
                                        "ac2=Fraction(2, 1), points=())")


def test_a_match_candidate_is_immutable():
    model = AmbientModel(GrWeights((1, 1, 1, 1, 1)))
    c = MatchCandidate(model, model.base.hilbert_series().numerator, (), (), (1,) * 10,
                       "series", "quasilinear", True, None)
    for name in ("accepted", "reason"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)


def test_a_record_binds_its_fields_by_position_or_by_name():
    chart = Chart("x12", 2, (1, 1, 1))
    for built in (Chart(label="x12", order=2, local_weights=(1, 1, 1)),
                  Chart("x12", local_weights=(1, 1, 1), order=2)):
        assert built == chart and hash(built) == hash(chart)
        assert tuple(vars(built)) == Chart._fields and repr(built) == repr(chart)
    stratum = StratumRecord(2, "x12", 0, True, 1, None, None)
    assert StratumRecord(2, "x12", 0, True, 1, stop_degree=None, sing_type=None) == stratum


@pytest.mark.parametrize("args, named, message", [
    (("x12", 2), {}, "missing ['local_weights']"),
    (("x12",), {"local_weights": ()}, "missing ['order']"),
    ((), {}, "missing ['label', 'order', 'local_weights']"),
    (("x12", 2, (), 4), {}, "extra or repeated [4]"),
    (("x12", 2, ()), {"order": 2}, "extra or repeated ['order']"),
    (("x12", 2), {"local_weights": (), "colour": 1}, "extra or repeated ['colour']"),
    ((), {"label": "x12", "order": 2, "local_weight": ()},
     "missing ['local_weights'], extra or repeated ['local_weight']"),
])
def test_a_missing_extra_or_unknown_field_is_a_type_error(args, named, message):
    with pytest.raises(TypeError) as info:
        Chart(*args, **named)
    assert str(info.value).startswith("Chart(label, order, local_weights): ")
    assert message in str(info.value)


@pytest.mark.parametrize("build, message", [
    (lambda: section_series(AmbientModel(GrWeights((1, 1, 1, 1, 1))), (2, 0, -1)),
     "section degrees must be positive, found [-1, 0]"),
    (lambda: AmbientModel(GrWeights((1, 1, 1, 1, 1)), (-1, 2)),
     "cone weights must be positive, found [-1]"),
    (lambda: QuotientSingularity(0, (1, 1)), "order must be positive, found 0"),
])
def test_a_refusal_names_the_offending_value(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
