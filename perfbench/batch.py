"""Serve the match-batch query stream in one fresh interpreter.

usage: python3 perfbench/batch.py SEED CYCLES RESULT_FILE [SPANS_FILE]

For each model of ``gen.queries(SEED)`` the client sends one
``matcher.search`` round trip (the model's own series, its coordinate weights
as generators) and one ``matcher.match_pipeline`` on the same series.  The
list is served CYCLES times; with SPANS_FILE every cycle is traced.  Inputs are
built before serving starts; outputs are checked after each cycle, with the
spans removed, so neither shows in the timings or the trace.

RESULT_FILE receives the per-query speed-corrected and raw wall times (see
speed.py), the probe times and one line per failed query.
"""

import json
import sys
import time
from functools import reduce

import gen
import speed
import tracer


def _canonical(model):
    base = model.base
    if model.family == "wogr510":
        base = base.canonical_form()
        return model.family, base.w2, base.u, model.cone
    return model.family, base.w2, model.cone


def _check_search(inp, results):
    model, series, gens = inp
    target = series.hilbert_numerator(gens)
    if _canonical(model) not in [_canonical(r) for r in results]:
        return f"search misses {model}"
    bad = [str(r) for r in results if r.base.hilbert_series().numerator != target]
    return f"search hits with another numerator: {bad}" if bad else None


def _check_pipeline(inp, report):
    from wgk.series import one_minus
    model, series, _ = inp
    for cand in report.candidates:
        expected = reduce(lambda p, k: p * one_minus(k), cand.nonlinear,
                          cand.model.base.hilbert_series().numerator)
        if series.hilbert_numerator(cand.generators) != expected:
            return f"pipeline candidate {cand.describe()} for {model}: numerator differs"
    return None


def main():
    seed, cycles, result_file = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
    spans_file = sys.argv[4] if len(sys.argv) > 4 else None
    from wgk import matcher
    from wgk.sections import AmbientModel

    inputs = []
    for data in gen.queries(seed):
        model = AmbientModel.from_json(data)
        inputs.append((model, model.base.hilbert_series(), model.coordinate_weights()))
    ops = []
    for inp in inputs:
        ops.append(("search", inp, lambda i: matcher.search(
            matcher.MatchQuery(target=i[1], generator_degrees=i[2])), _check_search))
        ops.append(("pipeline", inp, lambda i: matcher.match_pipeline(i[1]), _check_pipeline))

    rec = tracer.Recorder() if spans_file else None
    times, raw, failures = [], [], []
    clock = speed.Clock()
    for _ in range(cycles):
        if rec:
            rec.install()
        outputs = []
        for kind, inp, call, check in ops:
            t0 = time.perf_counter()
            try:
                out = call(inp)
            except Exception as exc:        # a raising query is a failed op
                out = exc
            wall = time.perf_counter() - t0
            times.append(clock.corrected(wall))
            raw.append(wall)
            outputs.append(out)
        if rec:
            rec.uninstall()
        for (kind, inp, call, check), out in zip(ops, outputs):
            problem = (f"{kind} raised {out!r}" if isinstance(out, Exception)
                       else check(inp, out))
            if problem:
                failures.append(problem)
    if rec:
        rec.dump(spans_file)
    with open(result_file, "w") as handle:
        json.dump({"times": times, "raw": raw, "failures": failures,
                   "probes": clock.probes}, handle)


if __name__ == "__main__":
    main()
