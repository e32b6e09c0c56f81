"""The section census: every recorded section of ``tests/census/census.json``
must be reproduced, record for record.

The census is every quasilinear section of a bounded model with dimension 2
or 3 and K = O(k), k in {-1, 0, 1}:

- models are the weights of ``enumerate_gr_weights(3)``, each with and
  without a weight-1 cone, and of ``enumerate_ogr_weights(3, 1)``;
- cuts are the distinct sorted sub-multisets of the coordinate weights, and a
  cut is kept when ``section_series`` accepts it.

A record holds the model JSON, the cut, the dimension, k and
``SingularityReport.to_json()``.  A section is *clean* when its analysis gives
no diagnostic; a clean 3-fold with k in {0, 1} also records its
``rr_roundtrip`` verdict.  Every value is an int, a str, a bool or a list or
dict of them.  ``tests/census/regen.py`` rewrites the record.
"""

import itertools
import json
import random
from pathlib import Path

from test_series import _canonical_by_restarts
from wgk.matcher import enumerate_gr_weights, enumerate_ogr_weights
from wgk.sections import (DEFAULT_DEPTH, AmbientModel, ambient_series, rr_roundtrip,
                          section_canonical, section_series, singularity_analysis)
from wgk.series import HilbertSeries, SeriesError, denominator_poly
from wgk.wgrass25 import GrWeights
from wgk.wogr510 import OGrWeights

CENSUS = Path(__file__).resolve().parent / "census" / "census.json"
ROUNDTRIP_KINDS = {0: "cy3", 1: "canonical3"}


def census_models():
    gr = [GrWeights(*fields) for fields in enumerate_gr_weights(3)]
    return ([AmbientModel(w, cone) for w in gr for cone in ((), (1,))]
            + [AmbientModel(OGrWeights(*fields)) for fields in enumerate_ogr_weights(3, 1)])


def census_sections(model):
    """``(cut, dimension, k, series)`` of each section of ``model`` in the census."""
    weights = model.coordinate_weights()
    for dimension in (3, 2):
        for cut in sorted(set(itertools.combinations(weights, model.dim - dimension))):
            k = section_canonical(model, cut)
            if k not in (-1, 0, 1):
                continue
            try:
                series = section_series(model, cut)
            except ValueError:
                continue
            yield cut, dimension, k, series


def census_record(model, cut, dimension, k, series):
    report = singularity_analysis(model, cut)
    record = {"model": model.to_json(), "cut": list(cut), "dimension": dimension, "k": k,
              "report": report.to_json()}
    if dimension == 3 and k in ROUNDTRIP_KINDS and not report.diagnostics:
        kind = ROUNDTRIP_KINDS[k]
        record["roundtrip"] = {"kind": kind, "ok": rr_roundtrip(series, report.basket, kind)["ok"]}
    return record


def census():
    return [census_record(model, *section) for model in census_models()
            for section in census_sections(model)]


def dump(records):
    """A JSON list with one sorted-key record a line, so a diff names its sections."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n"


def _no_float(text):
    raise ValueError(f"the census holds a float: {text}")


def recorded():
    return json.loads(CENSUS.read_text(), parse_float=_no_float, parse_constant=_no_float)


def test_every_census_record_is_reproduced():
    want = recorded()
    records = census()
    assert len(records) == len(want)
    for got, rec in zip(records, want):
        assert got == rec, f"{rec['model']} cut {rec['cut']}"
    assert dump(records) == CENSUS.read_text()


def test_every_clean_census_threefold_round_trips():
    trips = [r for r in recorded() if "roundtrip" in r]
    assert trips and all(r["roundtrip"]["ok"] for r in trips)


def test_the_round_trip_reads_k_and_the_dimension_off_every_census_model_series():
    """On each cut of a census model to dimension 0 to 3 that ``section_series``
    accepts, K as ``rr_roundtrip`` reads it (top exponent of the numerator less
    the sum of the denominator) is ``section_canonical``, and
    ``intersection_number(3)`` refuses exactly the sections that are not 3-folds."""
    checked = 0
    for model in census_models():
        weights = model.coordinate_weights()
        for dimension in range(min(model.dim, 3) + 1):
            for cut in sorted(set(itertools.combinations(weights, model.dim - dimension))):
                try:
                    series = section_series(model, cut)
                except ValueError:
                    continue
                k = series.numerator.max_exp() - sum(series.denominator)
                assert k == section_canonical(model, cut), (str(model), cut)
                try:
                    series.intersection_number(3)
                    threefold = True
                except SeriesError:
                    threefold = False
                assert threefold == (dimension == 3), (str(model), cut)
                checked += 1
    assert checked == 2814


def test_section_series_is_the_cancelled_product_on_a_sample_of_census_cuts():
    """``section_series`` multiplies and cancels on dense coefficients.  On a seeded
    sample of the census models' cuts to dimension 0 to 3, its JSON is that of the
    sparse product ``numerator * prod (1 - t^delta)`` cancelled by the restarting
    reference, and it refuses exactly the cuts whose product expands to a negative
    coefficient within ``DEFAULT_DEPTH``."""
    cuts = [(model, cut) for model in census_models()
            for dimension in range(min(model.dim, 3) + 1)
            for cut in sorted(set(itertools.combinations(model.coordinate_weights(),
                                                         model.dim - dimension)))]
    compared, kinds = 0, set()
    for model, cut in random.Random(42).sample(cuts, 500):
        amb = ambient_series(model)
        want = HilbertSeries(*_canonical_by_restarts(
            HilbertSeries(amb.numerator * denominator_poly(cut), amb.denominator)))
        try:
            got = section_series(model, cut)
        except ValueError:
            assert any(c < 0 for c in want.expand(DEFAULT_DEPTH)), (str(model), cut)
            continue
        assert json.dumps(got.to_json()) == json.dumps(want.to_json()), (str(model), cut)
        compared += 1
        kinds.add((model.base.family, bool(model.cone)))
    assert compared >= 300 and len(kinds) == 3     # both families, with and without a cone
