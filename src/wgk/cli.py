"""Command-line front end: model inspection, verification, Riemann-Roch,
section analysis, matching and the brute-force oracle.

Weights are accepted as fractions with denominator at most 2 (1/2,3/2,...) or
as doubled integers with --doubled, and printed as fractions.  Each
``cmd_*`` returns ``(exit code, record, text lines)`` and writes nothing to
stdout; ``main`` prints the record as JSON (adding ``schema``) or the lines,
and maps errors to exit codes: 0 success, 1 verification failure, 2
malformed input, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction

from . import lazy_module
from .orbifold_rr import (PeriodicTable, RRData, hilbert_can3, hilbert_cy3, local_term,
                          plurigenus, positive)
from .sections import (DEFAULT_DEPTH, DEFAULT_MAX_U, DEFAULT_MAX_W2, FAMILIES, AmbientModel,
                       QuotientSingularity, fmt_multiset, integral, json_list, json_object,
                       quasilinear_embed, rational, rr_roundtrip, section_canonical,
                       section_series, singularity_analysis)
from .series import InternalError, OracleBudgetError
from .wgrass25 import GrWeights, doubled as half_doubled, verify_gr_identities
from .wogr510 import OGrWeights, verify_ogr_syzygies

# compiled only by a command that reads them: fixtures by verify, the oracle by
# verify, oracle and a section's singularity analysis, the matcher by match
fixture_mod = lazy_module("wgk.fixtures")
matcher_mod = lazy_module("wgk.matcher")
oracle = lazy_module("wgk.oracle")

SCHEMA = "wgk/1"
SHORT_NAMES = {"wgr": GrWeights, "wogr": OGrWeights}    # the family argument of info and oracle


class InputError(ValueError):
    """Malformed input: exit 2."""


def _at_least(name, value, low):
    """``value``; InputError names ``name`` when it is below ``low``."""
    if value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    return value


def fmt_wps(weights):
    return f"P({fmt_multiset(weights)[1:-1]})"


def parse_weights(text, doubled=False):
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            vals.append(int(tok) if doubled else half_doubled(tok))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"cannot parse weight {tok!r}")
    return tuple(vals)


def build_weights(args):
    w2 = parse_weights(args.w, args.doubled)
    try:
        u2 = half_doubled(args.u)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse overall weight {args.u!r}") from None
    return SHORT_NAMES[args.family].of(w2, u2)


def frac_str(x):
    return str(Fraction(x))


# -- subcommands -------------------------------------------------------------------

def cmd_info(args):
    weights = build_weights(args)
    wf, witness = weights.is_well_formed()
    fields, degree_lines = weights.info_fields()
    data = {
        "family": weights.family,
        "weights": weights.to_json(),
        "ambient": fmt_wps(w for _, w in weights.coordinates()),
        "adjunction": weights.top_exponent(),
        "canonical": weights.canonical_degree(),
        "numerator": str(weights.hilbert_series().numerator),
        "well_formed": wf,
        **fields,
    }
    if witness:
        data["well_formed_witness"] = witness
    data["charts"] = [{"label": ch.label, "order": ch.order,
                       "local_weights": list(ch.local_weights)}
                      for ch in weights.charts()]
    lines = [f"{weights}  in  {data['ambient']}",
             *degree_lines,
             f"K = O({data['canonical']})",
             f"numerator: {data['numerator']}",
             f"well formed: {wf}" + (f" ({witness})" if witness else "")]
    lines += [f"  chart {ch['label']}: order {ch['order']}, "
              f"local weights {tuple(ch['local_weights'])}" for ch in data["charts"]]
    return 0, data, lines


def cmd_verify(args):
    checks = []
    for identities in (verify_gr_identities(), verify_ogr_syzygies()):
        checks.extend(("identity " + n, ok) for n, ok in identities["checks"])

    for label, weights, top in (("plucker", GrWeights.of((1, 1, 1, 1, 1)), 6 if args.full else 4),
                                ("spinor", OGrWeights((0, 0, 0, 0, 0), 1), 2)):
        closed = weights.hilbert_series().expand(top)
        checks.extend((f"oracle {label} degree {m}",
                       oracle.graded_dimension(weights.family, weights, m) == closed[m])
                      for m in range(top + 1))

    for name, ok, detail in fixture_mod.run_all():
        checks.append((f"fixture {name}" + (f" ({detail})" if detail else ""), ok))

    failures = [n for n, ok in checks if not ok]
    data = {"checks": [{"name": n, "ok": ok} for n, ok in checks], "ok": not failures}
    lines = [("PASS " if ok else "FAIL ") + n for n, ok in checks if not ok or args.verbose]
    lines.append(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
    return (1 if failures else 0), data, lines


def _quotient_order(name, r):
    """``r``; InputError names the point ``name`` when ``r`` is below 2."""
    if r < 2:
        raise InputError(f"{name} has order {r}; a quotient point needs r >= 2")
    return r


def _parse_point(text):
    head, _, tail = text.partition(":")
    try:
        r = int(head)
    except ValueError:
        raise InputError(f"--point {text!r} is not of the form r:c0,...,c(r-1)") from None
    _quotient_order(f"--point {text!r}", r)
    values = ([rational("--point", tok) for tok in tail.split(",")] if tail
              else [Fraction(0)] * r)
    try:
        return PeriodicTable(r, tuple(values))
    except ValueError as exc:
        raise InputError(f"--point {text!r}: {exc}") from None


def cmd_rr(args):
    depth = _at_least("--expand", args.expand, 0)
    if args.kind == "can3":
        pg, k3 = _at_least("--pg", args.pg, 0), positive("--k3", rational("--k3", args.k3))
        rr = RRData.canonical3(pg, k3, _at_least("--half", args.half, 0))
        series = hilbert_can3(rr)
    else:
        rr = RRData.cy3(positive("--a3", rational("--a3", args.a3)), rational("--ac2", args.ac2),
                        tuple(map(_parse_point, args.point or ())))
        series = hilbert_cy3(rr)
    values = [plurigenus(rr, n) for n in range(depth + 1)]
    if series.expand(depth) != values:
        raise InternalError("closed form disagrees with the plurigenus formula")
    bad = [v for v in values if v.denominator != 1 or v < 0]
    if bad and not args.json:
        print("warning: non-integral or negative values "
              + ", ".join(map(frac_str, bad)), file=sys.stderr)
    data = {"series": series.to_json(),
            "plurigenera": [frac_str(v) for v in values],
            "integral": not bad}
    return 0, data, [" ".join(data["plurigenera"])]


def read_json(path):
    """A JSON file read exactly: decimals as fractions, NaN and Infinity refused,
    and a syntax or UTF-8 decoding error named with the file; a syntax error in
    wgk's own words, as CPython's decoder words and places it by version."""
    def refuse(name):
        raise InputError(f"{name} is not a number in {path}")
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_float=Fraction, parse_constant=refuse)
        except json.JSONDecodeError:
            raise InputError(f"{path} is not valid JSON") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from None


def _parse_cut(text):
    try:
        return tuple(int(t) for t in text.split(",")) if text else ()
    except ValueError:
        raise InputError(f"--cut {text!r} is not a list of integer degrees") from None


def cmd_section(args):
    _at_least("--terms", args.terms, 0)
    model = AmbientModel.from_json(read_json(args.model))
    cut = _parse_cut(args.cut)
    series = section_series(model, cut)
    dim = model.dim - len(cut)
    data = {"model": model.to_json(), "cut": list(cut), "dimension": dim,
            "canonical": section_canonical(model, cut),
            "series": series.to_json(),
            "embedding": {k: (list(v) if isinstance(v, tuple) else v)
                          for k, v in quasilinear_embed(model, cut).items()}}
    lines = [f"{model} ∩ {'(' + ')('.join(map(str, cut)) + ')' if cut else '(nothing)'}",
             f"dimension {dim}, K = O({data['canonical']})",
             f"series: {series}",
             f"expansion: {' '.join(frac_str(c) for c in series.expand(args.terms))}"]
    if args.invariants:
        data["invariants"] = {"A_top": frac_str(series.intersection_number(dim)),
                              "h0_A": frac_str(series.coefficient(1))}
        lines.append(f"A^{dim} = {data['invariants']['A_top']}, "
                     f"h^0 = {data['invariants']['h0_A']}")
    if args.basket or args.roundtrip:
        report = singularity_analysis(model, cut)
    if args.basket:
        data.update(report.to_json())
        lines += [f"singularity {point} x {count}" for point, count in report.basket]
        lines += [f"note: {diag}" for diag in report.diagnostics]
    if args.roundtrip:
        result = rr_roundtrip(series, report.basket, args.roundtrip)
        mismatch = result["first_mismatch"] and list(map(frac_str, result["first_mismatch"]))
        data["roundtrip"] = {"ok": result["ok"], "first_mismatch": mismatch}
        if not result["ok"]:
            return 3, data, [f"round trip FAILED at ({', '.join(mismatch or ())})"]
        lines.append("round trip: ok")
    return 0, data, lines


def _rr_point(index, entry):
    """``(point, table)`` of ``points[index]`` in cy3 data, either one None: the point
    from ``weights``, the table from ``c`` or else from ``local_term``, which ``c`` must equal."""
    name = f"points[{index}]"
    fields = json_object(name, entry, ("r",), {"weights": None, "c": None})
    r = _quotient_order(name, integral("r", fields["r"]))
    try:     # an absent weights or c is not read; an explicit null is refused
        table = (PeriodicTable(r, json_list("c", fields["c"], rational))
                 if "c" in entry else None)
        if "weights" not in entry:
            return None, table
        weights = json_list("weights", fields["weights"], integral)
        if len(weights) != 3:
            raise ValueError(f"a 3-fold point needs 3 weights, got {len(weights)}")
        point, term = QuotientSingularity(r, weights), local_term(r, weights)
    except ValueError as exc:
        raise InputError(f"{name}: {exc}") from None
    if table is not None and table != term:
        raise InputError(f"{name} {point}: c is ({', '.join(map(frac_str, table.values))}), "
                         f"but its local term is ({', '.join(map(frac_str, term.values))})")
    return point, term


def cmd_match(args):
    _at_least("--max-w2", args.max_w2, 1)
    _at_least("--max-u", args.max_u, 1)
    data = read_json(args.rr)
    if not isinstance(data, dict):
        raise InputError(f"rr data must be a JSON object, not {type(data).__name__}")
    kind = data.get("kind")
    if kind == "can3":
        fields = json_object("rr data", data, ("kind", "pg", "K3"), {"half_points": 0})
        half = integral("half_points", fields["half_points"])
        rr = RRData.canonical3(integral("pg", fields["pg"]), rational("K3", fields["K3"]), half)
        series = hilbert_can3(rr)
        basket = (QuotientSingularity(2, (1, 1, 1)),) * half
    elif kind == "cy3":
        fields = json_object("rr data", data, ("kind", "A3", "Ac2"), {"points": []})
        points = json_list("points", fields["points"], lambda _, entry: entry)
        points = [_rr_point(i, p) for i, p in enumerate(points)]
        rr = RRData.cy3(rational("A3", fields["A3"]), rational("Ac2", fields["Ac2"]),
                        tuple(table for _, table in points if table is not None))
        series = hilbert_cy3(rr)
        basket = tuple(point for point, _ in points if point is not None)
    else:
        raise InputError("rr data file must set kind to can3 or cy3")
    report = matcher_mod.match_pipeline(
        series, basket=basket, family=args.family, max_w2=args.max_w2,
        max_u=args.max_u, residue_forcing=not args.no_residue_forcing)
    lines = []
    for cand in report.candidates:
        verdict = "accepted" if cand.accepted else "rejected"
        lines.append(f"{verdict}: {cand.describe()}")
        lines.append(f"    status: {cand.status}; generators "
                     f"{fmt_multiset(cand.generators)} ({cand.provenance})")
        if cand.reason:
            lines.append(f"    reason: {cand.reason}")
    lines += [f"note: {note}" for note in report.diagnostics]
    if not report.candidates:
        lines.append("no candidates within bounds")
    return 0, {"report": report.to_json()}, lines


def cmd_oracle(args):
    _at_least("--degree", args.degree, 0)
    weights = build_weights(args)
    value = oracle.graded_dimension(weights.family, weights, args.degree)
    closed = weights.hilbert_series().expand(args.degree)[args.degree]
    agree = closed == value
    data = {"family": weights.family, "degree": args.degree,
            "oracle": value, "closed_form": frac_str(closed), "agree": agree}
    line = f"oracle dimension {value}, closed form {closed}, {'agree' if agree else 'DISAGREE'}"
    return (0 if agree else 3), data, [line]


# -- argument parsing -----------------------------------------------------------

def _add_weight_args(p):
    p.add_argument("family", choices=SHORT_NAMES)
    p.add_argument("--w", required=True,
                   help="five weights, comma separated (fractions /2 allowed)")
    p.add_argument("--u", default="0", help="overall weight (integer)")
    p.add_argument("--doubled", action="store_true",
                   help="weights are given as doubled integers")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wgk",
        description="weighted Grassmannian toolkit (exact arithmetic)")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true",
                        help="one JSON object with a schema field, not text")

    p = sub.add_parser("info", parents=[output], help="inspect a weighted ambient model")
    _add_weight_args(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("verify", parents=[output],
                       help="run identity, oracle and fixture checks")
    p.add_argument("--full", action="store_true", help="deeper oracle checks")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rr", help="orbifold Riemann-Roch series")
    rrsub = p.add_subparsers(dest="kind", required=True)
    pc = rrsub.add_parser("can3", parents=[output])
    pc.add_argument("--pg", type=int, required=True)
    pc.add_argument("--k3", required=True)
    pc.add_argument("--half", type=int, default=0,
                    help="number of 1/2(1,1,1) points")
    pc.add_argument("--expand", type=int, default=DEFAULT_DEPTH)
    pc.set_defaults(func=cmd_rr, kind="can3")
    py = rrsub.add_parser("cy3", parents=[output])
    py.add_argument("--a3", required=True)
    py.add_argument("--ac2", required=True)
    py.add_argument("--point", action="append",
                    help="periodic table r:c0,c1,...,c(r-1); repeatable")
    py.add_argument("--expand", type=int, default=DEFAULT_DEPTH)
    py.set_defaults(func=cmd_rr, kind="cy3")

    p = sub.add_parser("section", parents=[output], help="analyse a quasilinear section")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--cut", default="", help="section degrees, comma separated")
    p.add_argument("--invariants", action="store_true")
    p.add_argument("--basket", action="store_true")
    p.add_argument("--roundtrip", choices=("canonical3", "cy3"))
    p.add_argument("--terms", type=int, default=8)
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("match", parents=[output], help="search ambient models for RR data")
    p.add_argument("--rr", required=True, help="RR data JSON file")
    p.add_argument("--family", choices=sorted(FAMILIES))
    p.add_argument("--max-w2", type=int, default=DEFAULT_MAX_W2)
    p.add_argument("--max-u", type=int, default=DEFAULT_MAX_U)
    p.add_argument("--no-residue-forcing", action="store_true")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("oracle", parents=[output], help="brute-force graded dimension check")
    _add_weight_args(p)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_oracle)
    return parser


def _refuse(prefix, exc, code):
    print(f"{prefix}: {exc}", file=sys.stderr)
    return code


def main(argv=None):
    """Run one subcommand and print its record or its lines; return the exit code."""
    args = build_parser().parse_args(argv)
    try:
        code, record, lines = args.func(args)
    except OracleBudgetError as exc:
        return _refuse("degree bound exceeded", exc, 2)
    except (ValueError, OSError) as exc:
        return _refuse("error", exc, 2)
    except InternalError as exc:
        return _refuse("internal error", exc, 3)
    if args.json:
        print(json.dumps({**record, "schema": SCHEMA}, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


def entry():
    """The console script: ``main()``, then exit with its code.  ``gc.freeze()``
    first spares the interpreter's final collection from walking and freeing
    the process's reference cycles, which the operating system reclaims anyway
    (~7 ms per command, 2-core VM, Python 3.11.7); atexit handlers and the
    flush of stdout and stderr still run.  ``main`` does not freeze: tests and
    the benchmark call it in processes that go on running.  A closed stdout exits
    141 (128 + SIGPIPE), pointed at os.devnull so the exit flush cannot fail."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
