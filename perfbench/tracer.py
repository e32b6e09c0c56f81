"""Spans around wgk's public functions, recorded from outside the package.

``install`` wraps the functions and methods in TARGETS.  A module function is
replaced in every wgk namespace that holds it, so names brought in with
``from X import Y`` are traced where their callers look them up.  A span is
``[name, start, end, parent, info]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``info`` is a small value read from the
call's arguments or result.  Spans stay in memory until ``dump``.

``layer_totals`` turns one process's spans into the per-layer metrics named
in layers.json.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _gd_info(args, result):
    from wgk import oracle
    count = getattr(oracle.count_monomials, "__wrapped__", oracle.count_monomials)
    family, weights, degree = args
    coords = (weights.plucker_weights() if family == "wgr25"
              else weights.coordinate_weights())
    return [family, degree, count(coords, degree), result]


def _report_info(args, report):
    return [len(report.generator_sets), len(report.candidates), len(report.rejected())]


TARGETS = (
    # span name, "module:attribute", info read from (args, result)
    ("cli.main", "wgk.cli:main", None),
    ("oracle.graded_dimension", "wgk.oracle:graded_dimension", _gd_info),
    ("oracle.insert", "wgk.oracle:IntegerEchelon.insert", lambda a, r: r),
    ("oracle.contains", "wgk.oracle:IntegerEchelon.contains", None),
    ("oracle.dimension", "wgk.oracle:GradedRing.dimension", None),
    ("oracle.monomials", "wgk.oracle:weighted_monomials", None),
    ("oracle.monomials", "wgk.oracle:count_monomials", None),
    ("sections.singularity_analysis", "wgk.sections:singularity_analysis",
     lambda a, r: len(r.strata)),
    ("sections.rr_roundtrip", "wgk.sections:rr_roundtrip", None),
    ("sections.section_series", "wgk.sections:section_series", None),
    ("fixtures.run_all", "wgk.fixtures:run_all", None),
    ("fixtures.run_fixture", "wgk.fixtures:run_fixture", lambda a, r: a[0].name),
    ("matcher.query", "wgk.matcher:match_pipeline", _report_info),
    ("matcher.query", "wgk.matcher:search", None),
    ("matcher.enumerate", "wgk.matcher:enumerate_gr_weights", lambda a, r: len(r)),
    ("matcher.enumerate", "wgk.matcher:enumerate_ogr_weights", lambda a, r: len(r)),
    ("matcher.infer_generators", "wgk.matcher:infer_generators", None),
    ("wgrass25.hilbert_series", "wgk.wgrass25:GrWeights.hilbert_series", None),
    ("wogr510.hilbert_series", "wgk.wogr510:OGrWeights.hilbert_series", None),
    ("wgrass25.verify_gr_identities", "wgk.wgrass25:verify_gr_identities", None),
    ("wogr510.verify_ogr_syzygies", "wgk.wogr510:verify_ogr_syzygies", None),
    ("series.divexact", "wgk.series:LaurentPoly.divexact", None),
    ("series.canonical", "wgk.series:HilbertSeries.canonical", None),
    ("series.expand", "wgk.series:HilbertSeries.expand", None),
    ("series.hilbert_numerator", "wgk.series:HilbertSeries.hilbert_numerator", None),
    ("orbifold_rr.hilbert", "wgk.orbifold_rr:hilbert_can3", None),
    ("orbifold_rr.hilbert", "wgk.orbifold_rr:hilbert_cy3", None),
)

# spans that make up the model table under one matcher query
TABLE_BUILD = ("matcher.enumerate", "wgrass25.hilbert_series", "wogr510.hilbert_series")


class Recorder:
    def __init__(self):
        self.spans = []
        self._open = -1
        self._undo = []

    def _wrap(self, name, fn, info):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, self._open, None]
            self._open = len(spans)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._open = span[3]
            if info is not None:
                span[4] = info(args, result)
            return result
        return traced

    def install(self):
        """Wrap every target; wgk.cli must be importable."""
        importlib.import_module("wgk.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "wgk" or n.startswith("wgk.")]
        for name, target, info in TARGETS:
            modname, attr = target.split(":")
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owners = [getattr(owner, cls_name)]
            else:
                owners = [m for m in modules
                          if vars(m).get(attr) is getattr(owner, attr)]
            original = getattr(owners[0], attr)
            traced = self._wrap(name, original, info)
            for obj in owners:
                self._undo.append((obj, attr, original))
                setattr(obj, attr, traced)

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def layer_totals(spans):
    """Per-layer sums over one process's spans (see layers.json for names)."""
    n = len(spans)
    covered = [0.0] * n
    for name, start, end, parent, info in spans:
        if parent >= 0:
            covered[parent] += end - start
    tot = defaultdict(float)
    gd_of = [-1] * n            # enclosing oracle.graded_dimension span
    fixture_of = [-1] * n       # enclosing fixtures.run_fixture span
    query_of = [-1] * n         # enclosing matcher query span
    build = defaultdict(float)  # query span -> table build seconds
    built = set()
    for i, (name, start, end, parent, info) in enumerate(spans):
        if parent >= 0:
            gd_of[i], fixture_of[i] = gd_of[parent], fixture_of[parent]
            query_of[i] = query_of[parent]
        dur = end - start
        tot[name + ".calls"] += 1
        tot[name + ".self_s"] += dur - covered[i]
        if parent < 0 or spans[parent][0] != name:
            tot[name + ".s"] += dur
        if name == "oracle.graded_dimension":
            gd_of[i] = i
            family, degree, monomials, dim = info
            key = f"oracle.{family}.d{degree}"
            tot[key + ".s"] += dur
            tot[key + ".monomials"] += monomials
            tot[key + ".rank"] += monomials - dim
        elif name == "oracle.insert":
            tot["oracle.insert.useful"] += bool(info)
            if gd_of[i] >= 0:
                family, degree = spans[gd_of[i]][4][:2]
                tot[f"oracle.{family}.d{degree}.rows"] += 1
        elif name == "fixtures.run_fixture":
            fixture_of[i] = i
        elif name == "sections.singularity_analysis":
            tot["sections.strata"] += info
            if fixture_of[i] >= 0:
                tot[f"sections.singularity_analysis.{spans[fixture_of[i]][4]}.s"] += dur
        elif name == "matcher.query":
            query_of[i] = i
            if info is not None:
                tot["matcher.generator_sets"] += info[0]
                tot["matcher.candidates"] += info[1]
                tot["matcher.rejected"] += info[2]
        if (name in TABLE_BUILD and query_of[i] >= 0
                and spans[parent][0] not in TABLE_BUILD):
            build[query_of[i]] += dur
            if name == "matcher.enumerate":
                built.add(query_of[i])
                tot["matcher.table_models"] += info
    tot["matcher.table_build_s"] = sum(build.values())
    tot["matcher.table_builds"] = len(built)
    tot["matcher.lookup_s"] = tot["matcher.query.s"] - tot["matcher.table_build_s"]
    tot["orbifold_rr.hilbert_s"] = tot["orbifold_rr.hilbert.s"]
    tot["cli.self_s"] = tot["cli.main.self_s"]
    return tot


def per_layer(totals, cycles, names):
    """Metrics per workload cycle, restricted to ``names``."""
    out = {name: totals.get(name, 0.0) / cycles for name in names}
    inserts = totals.get("oracle.insert.calls", 0)
    out["oracle.insert.useful_ratio"] = (
        totals.get("oracle.insert.useful", 0) / inserts if inserts else 0.0)
    return out
