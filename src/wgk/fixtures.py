"""Fixture data: the worked examples with their expected invariants.

Every expected value carries a provenance marker: "published" (a value stated
in the literature for this family), "derived" (recomputed here by an
independent route and frozen), or "trivial".  The labels Altinok3(n) are the
Magma database names of the K3 families.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .sections import (AmbientModel, QuotientSingularity, quasilinear_embed, rr_roundtrip,
                       section_canonical, section_series, singularity_analysis,
                       singularity_filter)
from .series import LaurentPoly, Record

def V(value, provenance):
    if provenance not in ("published", "derived", "trivial"):
        raise ValueError(f"unknown provenance {provenance!r}")
    return {"value": value, "provenance": provenance}


class FixtureRecord(Record):
    _fields = ("name", "model", "cut", "label", "expected")

    def __init__(self, name, model, cut=(), label=None, expected=None):
        super().__init__(name, model, cut, label, {} if expected is None else expected)


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


# key -> check(expected value, section, model, cut, analysis), true when it holds; section()
# is the cut's Hilbert series and analysis() its singularity analysis, each made once
CHECKS = {
    "ambient_weights": lambda v, s, m, *_: tuple(v) == m.coordinate_weights(),
    "ambient_numerator": lambda v, s, m, *_: m.base.hilbert_series().numerator == LaurentPoly(v),
    "ambient_degree": lambda v, s, m, *_: Fraction(v) == m.base.degree(),
    "ambient_canonical": lambda v, s, m, *_: m.base.canonical_degree() == v,
    "section_canonical": lambda v, s, m, cut, *_: section_canonical(m, cut) == v,
    "h0": lambda v, s, *_: s().coefficient(1) == v,
    "a_top": lambda v, s, *_: Fraction(v[0]) == s().intersection_number(v[1]),
    "series_prefix": lambda v, s, *_: [str(c) for c in s().expand(len(v) - 1)] == list(v),
    "section_numerator": lambda v, s, m, *_:
        s().hilbert_numerator(m.coordinate_weights()) == LaurentPoly(v),
    "quasilinear_weights": lambda v, s, m, cut, *_:
        quasilinear_embed(m, cut) == {"weights": tuple(v), "quasilinear": True, "leftovers": ()},
    "basket": lambda v, s, m, cut, a: [[q.r, list(q.weights), n] for q, n in a().basket] == v,
    "rr_kind": lambda v, s, m, cut, a: rr_roundtrip(s(), a().basket, v)["ok"],
    # the filter refuses, for want of a coordinate weight divisible by r
    "reject_sing": lambda v, s, m, *_: f"divisible by {v[0]}" in (
        singularity_filter(m, (QuotientSingularity(*v),))[1] or ""),
}


def run_fixture(fix):
    """One (check name, ok, detail) triple per expected key of ``fix``, in key order;
    detail is "error: ..." (a failed check) when the check raised or there is none."""
    model = AmbientModel.from_json(fix.model)
    section = cache(lambda: section_series(model, fix.cut))
    analysis = cache(lambda: singularity_analysis(model, fix.cut))
    out = []
    for key, spec in sorted(fix.expected.items()):
        name = f"{fix.name}:{key}"
        try:
            if key not in CHECKS:
                raise ValueError(f"unknown fixture check {key!r}")
            ok = CHECKS[key](spec["value"], section, model, fix.cut, analysis)
            out.append((name, bool(ok), None))
        except Exception as exc:           # a crash is a failure with detail
            out.append((name, False, f"error: {exc}"))
    return out


def run_all():
    return [result for fix in FIXTURES for result in run_fixture(fix)]
