"""Fixture data: the worked examples with their expected invariants.

Every expected value carries a provenance marker: "published" (a value stated
in the literature for this family), "derived" (recomputed here by an
independent route and frozen), or "trivial".  The labels Altinok3(n) are the
Magma database names of the K3 families.
"""

from __future__ import annotations

from fractions import Fraction

from .sections import (DEFAULT_DEPTH, AmbientModel, QuotientSingularity,
                       quasilinear_embed, rr_roundtrip, section_canonical,
                       section_series, singularity_analysis)
from .matcher import singularity_filter
from .series import LaurentPoly, Record

def V(value, provenance):
    if provenance not in ("published", "derived", "trivial"):
        raise ValueError(f"unknown provenance {provenance!r}")
    return {"value": value, "provenance": provenance}


class FixtureRecord(Record):
    _fields = ("name", "model", "cut", "label", "expected")

    def __init__(self, name, model, cut=(), label=None, expected=None):
        self.__dict__.update(name=name, model=model, cut=cut, label=label,
                             expected={} if expected is None else expected)


FIXTURES = (
    FixtureRecord(
        name="straight-plucker",
        model={"family": "wgr25", "w2": [1, 1, 1, 1, 1], "u2": 0},
        expected={
            "ambient_weights": V([1] * 10, "trivial"),
            "ambient_numerator": V({0: 1, 2: -5, 3: 5, 5: -1}, "derived"),
            "ambient_degree": V("5", "derived"),
            "ambient_canonical": V(-5, "derived"),
            "series_prefix": V(["1", "10", "50", "175"], "derived"),
        },
    ),
    FixtureRecord(
        name="straight-spinor",
        model={"family": "wogr510", "w2": [0, 0, 0, 0, 0], "u2": 2},
        expected={
            "ambient_weights": V([1] * 16, "trivial"),
            "ambient_numerator": V({0: 1, 2: -10, 3: 16, 5: -16, 6: 10, 8: -1},
                                   "derived"),
            "ambient_canonical": V(-8, "derived"),
            "series_prefix": V(["1", "16", "126"], "derived"),
        },
    ),
    FixtureRecord(
        name="fano3-genus4",
        label="Altinok3(2)",
        model={"family": "wgr25", "w2": [1, 1, 1, 1, 3], "u2": 0},
        cut=(2, 2, 2),
        expected={
            "ambient_weights": V([1] * 6 + [2] * 4, "published"),
            "ambient_numerator": V({0: 1, 2: -1, 3: -4, 4: 4, 5: 1, 7: -1},
                                   "derived"),
            "ambient_degree": V("13/16", "derived"),
            "section_canonical": V(-1, "published"),
            "h0": V(6, "published"),
            "a_top": V(("13/2", 3), "published"),
            "basket": V([[2, [1, 1, 1], 1]], "published"),
        },
    ),
    FixtureRecord(
        name="canonical-surface-pg6",
        model={"family": "wgr25", "w2": [1, 1, 1, 1, 3], "u2": 0},
        cut=(2, 2, 2, 2),
        expected={
            "section_canonical": V(1, "published"),
            "h0": V(6, "published"),
            "a_top": V(("13", 2), "published"),
            "quasilinear_weights": V([1] * 6, "published"),
        },
    ),
    FixtureRecord(
        name="k3-coned-genus3",
        label="Altinok3(3)",
        model={"family": "wgr25", "w2": [1, 1, 1, 3, 3], "u2": 0, "cone": [1]},
        cut=(2, 2, 2, 2, 2),
        expected={
            "ambient_weights": V([1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3], "published"),
            "section_canonical": V(0, "trivial"),
            "h0": V(4, "published"),
            "a_top": V(("14/3", 2), "published"),
            "basket": V([[3, [1, 2], 1]], "published"),
        },
    ),
    FixtureRecord(
        name="k3-genus2",
        label="Altinok3(5)",
        model={"family": "wgr25", "w2": [1, 1, 1, 3, 3], "u2": 0},
        cut=(2, 2, 2, 3),
        expected={
            "section_canonical": V(0, "trivial"),
            "h0": V(3, "published"),
            "a_top": V(("7/2", 2), "published"),
            "basket": V([[2, [1, 1], 3]], "published"),
        },
    ),
    FixtureRecord(
        name="canonical3-spinor",
        model={"family": "wogr510", "w2": [0, 0, 0, 0, 2], "u2": 2},
        cut=(1, 2, 2, 2, 2, 2, 2),
        expected={
            "ambient_weights": V([1] * 8 + [2] * 8, "published"),
            "ambient_numerator": V({0: 1, 2: -1, 3: -8, 4: 7, 5: 8, 7: -8,
                                    8: -7, 9: 8, 10: 1, 12: -1}, "published"),
            "ambient_canonical": V(-12, "derived"),
            "section_canonical": V(1, "published"),
            "series_prefix": V(["1", "7", "29", "83", "190", "370", "645",
                                "1035", "1562"], "published"),
            "quasilinear_weights": V([1] * 7 + [2] * 2, "published"),
            "basket": V([[2, [1, 1, 1], 2]], "published"),
            "rr_kind": V("canonical3", "published"),
        },
    ),
    FixtureRecord(
        name="cy3-spinor",
        model={"family": "wogr510", "w2": [0, 0, 2, 2, 4], "u2": 2},
        cut=(2, 2, 3, 4, 4, 4, 5),
        expected={
            "ambient_weights": V([1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4,
                                  5, 5], "published"),
            "ambient_canonical": V(-24, "published"),
            "section_canonical": V(0, "published"),
            "series_prefix": V(["1", "2", "5", "11", "20", "34", "54", "81",
                                "117"], "published"),
            "a_top": V(("6/5", 3), "published"),
            "basket": V([[3, [1, 1, 1], 1], [3, [2, 2, 2], 1],
                         [5, [3, 3, 4], 1]], "published"),
            "rr_kind": V("cy3", "published"),
        },
    ),
    FixtureRecord(
        name="mirage-cone",
        model={"family": "wgr25", "w2": [2, 2, 2, 4, 4], "u2": 0, "cone": [1]},
        cut=(6,),
        expected={
            "ambient_weights": V([1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4], "published"),
            "section_numerator": V({0: 1, 5: -2, 6: -4, 8: 3, 9: 2, 11: 2,
                                    12: 3, 14: -4, 15: -2, 20: 1}, "published"),
            "reject_sing": V([5, [3, 3, 4]], "published"),
        },
    ),
)


def _check_fraction(expected, actual):
    return Fraction(expected) == actual


def run_fixture(fix, depth=DEFAULT_DEPTH):
    """Evaluate one fixture; yields (check name, ok) pairs."""
    model = AmbientModel.from_json(fix.model)
    out = []
    section = None
    for key, spec in sorted(fix.expected.items()):
        value = spec["value"]
        name = f"{fix.name}:{key}"
        try:
            if key == "ambient_weights":
                ok = tuple(value) == model.coordinate_weights()
            elif key == "ambient_numerator":
                ok = model.base.hilbert_series().numerator == LaurentPoly(value)
            elif key == "ambient_degree":
                ok = _check_fraction(value, model.base.degree())
            elif key == "ambient_canonical":
                ok = model.base.canonical_degree() == value
            elif key == "section_canonical":
                ok = section_canonical(model, fix.cut) == value
            elif key == "h0":
                section = section or section_series(model, fix.cut, depth)
                ok = section.coefficient(1) == value
            elif key == "a_top":
                frac, dim = value
                section = section or section_series(model, fix.cut, depth)
                ok = _check_fraction(frac, section.intersection_number(dim))
            elif key == "series_prefix":
                section = section or section_series(model, fix.cut, depth)
                got = section.expand(len(value) - 1)
                ok = [str(c) for c in got] == list(value)
            elif key == "section_numerator":
                section = section or section_series(model, fix.cut, depth)
                ok = section.hilbert_numerator(model.coordinate_weights()) == LaurentPoly(value)
            elif key == "quasilinear_weights":
                emb = quasilinear_embed(model, fix.cut)
                ok = emb["quasilinear"] and emb["weights"] == tuple(value)
            elif key == "basket":
                report = singularity_analysis(model, fix.cut)
                got = [[s.r, list(s.weights), n] for s, n in report.basket]
                ok = got == value
            elif key == "rr_kind":
                ok = rr_roundtrip(model, fix.cut, value, depth)["ok"]
            elif key == "reject_sing":
                r, ws = value
                flag, reason = singularity_filter(
                    model, (QuotientSingularity(r, tuple(ws)),))
                ok = (not flag) and f"divisible by {r}" in reason
            else:
                raise KeyError(f"unknown fixture check {key!r}")
        except Exception as exc:           # a crash is a failure with detail
            out.append((name, False, f"error: {exc}"))
            continue
        out.append((name, bool(ok), None))
    return out


def run_all(depth=DEFAULT_DEPTH):
    results = []
    for fix in FIXTURES:
        results.extend(run_fixture(fix, depth))
    return results
