"""Command-line front end: model inspection, verification, Riemann-Roch,
section analysis, matching and the brute-force oracle.

Weights are accepted as fractions with denominator at most 2 (1/2,3/2,...) or
as doubled integers with --doubled, and printed as fractions.  Exit codes:
0 success, 1 verification failure, 2 malformed input, 3 internal
inconsistency.  WGK_DEPTH overrides the default expansion depth of 40.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import fixtures as fixture_mod
from . import matcher as matcher_mod
from .oracle import OracleBudgetError, graded_dimension
from .orbifold_rr import CY3Data, Canonical3Data, PeriodicTable, hilbert_can3, hilbert_cy3, plurigenus_can3, plurigenus_cy3
from .sections import (DEFAULT_DEPTH, AmbientModel, QuotientSingularity, integral,
                       invariants, quasilinear_embed, rr_roundtrip,
                       section_canonical, section_series, singularity_analysis)
from .series import SeriesError
from .wgrass25 import GrWeights, doubled as half_doubled, verify_gr_identities
from .wogr510 import OGrWeights, verify_ogr_syzygies

SCHEMA = "wgk/1"


class InputError(ValueError):
    pass


def default_depth():
    text = os.environ.get("WGK_DEPTH", str(DEFAULT_DEPTH))
    try:
        return max(1, int(text))
    except ValueError:
        raise InputError(f"WGK_DEPTH must be an integer, got {text!r}") from None


def fmt_wps(weights):
    return f"P({matcher_mod.fmt_multiset(weights)[1:-1]})"


def parse_weights(text, doubled=False):
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            vals.append(int(tok) if doubled else half_doubled(tok))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"cannot parse weight {tok!r}")
    return tuple(vals)


def build_weights(args):
    w2 = parse_weights(args.w, args.doubled)
    family = {"wgr": GrWeights, "wogr": OGrWeights}[args.family]
    try:
        return family.of(w2, half_doubled(args.u))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc))


def frac_str(x):
    return str(Fraction(x))


def parse_fraction(text):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {text!r}") from None


# -- subcommands -------------------------------------------------------------------

def cmd_info(args):
    weights = build_weights(args)
    series = weights.hilbert_series()
    wf, witness = weights.is_well_formed()
    data = {
        "schema": SCHEMA,
        "family": weights.family,
        "weights": weights.to_json(),
        "ambient": fmt_wps(w for _, w in weights.coordinates()),
        "adjunction": weights.adjunction(),
        "canonical": weights.canonical_degree(),
        "numerator": str(series.numerator),
        "well_formed": wf,
    }
    if weights.family == "wgr25":
        num = weights.numerology()
        data.update(pfaffian_degrees=list(num.pfaffian_degrees),
                    syzygy_degrees=list(num.syzygy_degrees),
                    degree=frac_str(weights.degree()))
        lines = [f"Pfaffian degrees: {data['pfaffian_degrees']}, "
                 f"syzygy degrees: {data['syzygy_degrees']}",
                 f"degree = {data['degree']}"]
    else:
        deg = {k: list(v) for k, v in weights.resolution_degrees().items()}
        data["resolution_degrees"] = deg
        lines = [f"relation degrees: {deg['relations']}",
                 f"first syzygy degrees: {deg['first_syzygies']}"]
    if witness:
        data["well_formed_witness"] = witness
    data["charts"] = [{"label": ch.label, "order": ch.order,
                       "local_weights": list(ch.local_weights)}
                      for ch in weights.charts()]
    if args.json:
        print(json.dumps(data, sort_keys=True))
        return 0
    print(f"{weights}  in  {data['ambient']}")
    print("\n".join(lines))
    print(f"K = O({data['canonical']})")
    print(f"numerator: {data['numerator']}")
    print(f"well formed: {data['well_formed']}"
          + (f" ({witness})" if witness else ""))
    for ch in data["charts"]:
        print(f"  chart {ch['label']}: order {ch['order']}, "
              f"local weights {tuple(ch['local_weights'])}")
    return 0


def cmd_verify(args):
    checks = []
    gr = verify_gr_identities()
    checks.extend(("identity " + n, ok) for n, ok in gr["checks"])
    ogr = verify_ogr_syzygies()
    checks.extend(("identity " + n, ok) for n, ok in ogr["checks"])

    gw = GrWeights.of((1, 1, 1, 1, 1))
    ow = OGrWeights((0, 0, 0, 0, 0), 1)
    depth = 4 if not args.full else 6
    closed = gw.hilbert_series().expand(depth)
    for m in range(depth + 1):
        checks.append((f"oracle plucker degree {m}",
                       graded_dimension("wgr25", gw, m) == closed[m]))
    closed = ow.hilbert_series().expand(2)
    for m in range(3):
        checks.append((f"oracle spinor degree {m}",
                       graded_dimension("wogr510", ow, m) == closed[m]))

    for name, ok, detail in fixture_mod.run_all(default_depth()):
        checks.append((f"fixture {name}" + (f" ({detail})" if detail else ""), ok))

    failures = [n for n, ok in checks if not ok]
    if args.json:
        print(json.dumps({"schema": SCHEMA,
                          "checks": [{"name": n, "ok": ok} for n, ok in checks],
                          "ok": not failures}, sort_keys=True))
    else:
        for n, ok in checks:
            if not ok or args.verbose:
                print(("PASS " if ok else "FAIL ") + n)
        print(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
    return 0 if not failures else 1


def _parse_point(text):
    head, _, tail = text.partition(":")
    r = int(head)
    values = [parse_fraction(tok) for tok in tail.split(",")] if tail else [Fraction(0)] * r
    return PeriodicTable(r, tuple(values))


def cmd_rr(args):
    depth = args.expand if args.expand is not None else default_depth()
    if args.kind == "can3":
        data = Canonical3Data(pg=args.pg, kcubed=parse_fraction(args.k3),
                              half_points=args.half)
        series = hilbert_can3(data)
        values = [plurigenus_can3(data, n) for n in range(depth + 1)]
    else:
        points = tuple(_parse_point(p) for p in args.point or ())
        data = CY3Data(acubed=parse_fraction(args.a3), ac2=parse_fraction(args.ac2),
                       points=points)
        series = hilbert_cy3(data)
        values = [plurigenus_cy3(data, n) for n in range(depth + 1)]
    expansion = series.expand(depth)
    if expansion != values:
        print("internal inconsistency: closed form disagrees with the "
              "plurigenus formula", file=sys.stderr)
        return 3
    bad = [v for v in values if v.denominator != 1 or v < 0]
    if args.json:
        print(json.dumps({"schema": SCHEMA, "series": series.to_json(),
                          "plurigenera": [frac_str(v) for v in values],
                          "integral": not bad}, sort_keys=True))
    else:
        print(" ".join(frac_str(v) for v in values))
        if bad:
            print("warning: non-integral or negative values "
                  + ", ".join(map(frac_str, bad)), file=sys.stderr)
    return 0


def read_json(path):
    """A JSON file read exactly: decimals as fractions, NaN and Infinity refused."""
    def refuse(name):
        raise InputError(f"{name} is not a number in {path}")
    with open(path) as handle:
        return json.load(handle, parse_float=Fraction, parse_constant=refuse)


def cmd_section(args):
    depth = default_depth()
    model = AmbientModel.from_json(read_json(args.model))
    cut = tuple(int(t) for t in args.cut.split(",")) if args.cut else ()
    series = section_series(model, cut, depth)
    dim = model.dim - len(cut)
    data = {"schema": SCHEMA, "model": model.to_json(), "cut": list(cut),
            "dimension": dim,
            "canonical": section_canonical(model, cut),
            "series": series.to_json(),
            "embedding": {k: (list(v) if isinstance(v, tuple) else v)
                          for k, v in quasilinear_embed(model, cut).items()}}
    if args.invariants:
        inv = invariants(series, dim)
        data["invariants"] = {"A_top": frac_str(inv["A_top"]),
                              "h0_A": frac_str(inv["h0_A"])}
    if args.basket:
        report = singularity_analysis(model, cut)
        data["basket"] = report.to_json()["basket"]
        data["diagnostics"] = report.diagnostics
    if args.roundtrip:
        result = rr_roundtrip(model, cut, args.roundtrip, depth)
        mismatch = result["first_mismatch"] and list(map(frac_str, result["first_mismatch"]))
        data["roundtrip"] = {"ok": result["ok"], "first_mismatch": mismatch}
        if not result["ok"]:
            print(json.dumps(data, sort_keys=True) if args.json else
                  f"round trip FAILED at ({', '.join(mismatch or ())})")
            return 3
    if args.json:
        print(json.dumps(data, sort_keys=True))
        return 0
    print(f"{model} ∩ {'(' + ')('.join(map(str, cut)) + ')' if cut else '(nothing)'}")
    print(f"dimension {dim}, K = O({data['canonical']})")
    print(f"series: {series}")
    print(f"expansion: {' '.join(frac_str(c) for c in series.expand(args.terms))}")
    if args.invariants:
        print(f"A^{dim} = {data['invariants']['A_top']}, "
              f"h^0 = {data['invariants']['h0_A']}")
    if args.basket:
        for entry in data["basket"]:
            print(f"singularity 1/{entry['r']}({','.join(map(str, entry['weights']))})"
                  f" x {entry['count']}")
        for diag in data["diagnostics"]:
            print(f"note: {diag}")
    if args.roundtrip:
        print(f"round trip: {'ok' if data['roundtrip']['ok'] else 'FAILED'}")
    return 0


def cmd_match(args):
    depth = default_depth()
    data = read_json(args.rr)
    if not isinstance(data, dict):
        raise InputError(f"rr data must be a JSON object, not {type(data).__name__}")
    kind = data.get("kind")
    try:
        if kind == "can3":
            rr = Canonical3Data(pg=integral("pg", data["pg"]), kcubed=parse_fraction(data["K3"]),
                                half_points=integral("half_points", data.get("half_points", 0)))
            basket = (QuotientSingularity(2, (1, 1, 1)),) * rr.half_points
        elif kind == "cy3":
            points = data.get("points", ())
            tables = tuple(PeriodicTable(integral("r", p["r"]),
                                         tuple(parse_fraction(c) for c in p["c"]))
                           for p in points if "c" in p)
            rr = CY3Data(acubed=parse_fraction(data["A3"]), ac2=parse_fraction(data["Ac2"]),
                         points=tables)
            basket = tuple(QuotientSingularity(integral("r", p["r"]),
                                               tuple(integral("weights", w) for w in p["weights"]))
                           for p in points if "weights" in p)
        else:
            raise InputError("rr data file must set kind to can3 or cy3")
    except KeyError as exc:
        raise InputError(f"rr data lacks the key {exc}") from None
    except TypeError as exc:
        raise InputError(f"rr data has a value of the wrong type: {exc}") from None
    series = hilbert_can3(rr) if kind == "can3" else hilbert_cy3(rr)
    report = matcher_mod.match_pipeline(
        series, basket=basket, family=args.family, max_w2=args.max_w2,
        max_u=args.max_u, depth=depth,
        residue_forcing=not args.no_residue_forcing)
    if args.json:
        print(json.dumps({"schema": SCHEMA, "report": report.to_json()},
                         sort_keys=True))
        return 0
    for cand in report.candidates:
        verdict = "accepted" if cand.accepted else "rejected"
        print(f"{verdict}: {cand.describe()}")
        print(f"    status: {cand.status}; generators "
              f"{matcher_mod.fmt_multiset(cand.generators)} ({cand.provenance})")
        if cand.reason:
            print(f"    reason: {cand.reason}")
    for note in report.diagnostics:
        print(f"note: {note}")
    if not report.candidates:
        print("no candidates within bounds")
    return 0


def cmd_oracle(args):
    weights = build_weights(args)
    try:
        value = graded_dimension(weights.family, weights, args.degree)
    except OracleBudgetError as exc:
        print(f"degree bound exceeded: {exc}", file=sys.stderr)
        return 2
    closed = weights.hilbert_series().expand(args.degree)[args.degree]
    data = {"schema": SCHEMA, "family": weights.family, "degree": args.degree,
            "oracle": value, "closed_form": frac_str(closed),
            "agree": closed == value}
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(f"oracle dimension {value}, closed form {closed}, "
              f"{'agree' if data['agree'] else 'DISAGREE'}")
    return 0 if data["agree"] else 3


# -- argument parsing -----------------------------------------------------------

def _add_weight_args(p):
    p.add_argument("family", choices=("wgr", "wogr"))
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

    p = sub.add_parser("info", help="inspect a weighted ambient model")
    _add_weight_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("verify", help="run identity, oracle and fixture checks")
    p.add_argument("--full", action="store_true", help="deeper oracle checks")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rr", help="orbifold Riemann-Roch series")
    rrsub = p.add_subparsers(dest="kind", required=True)
    pc = rrsub.add_parser("can3")
    pc.add_argument("--pg", type=int, required=True)
    pc.add_argument("--k3", required=True)
    pc.add_argument("--half", type=int, default=0,
                    help="number of 1/2(1,1,1) points")
    pc.add_argument("--expand", type=int, default=None)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_rr, kind="can3")
    py = rrsub.add_parser("cy3")
    py.add_argument("--a3", required=True)
    py.add_argument("--ac2", required=True)
    py.add_argument("--point", action="append",
                    help="periodic table r:c0,c1,...,c(r-1); repeatable")
    py.add_argument("--expand", type=int, default=None)
    py.add_argument("--json", action="store_true")
    py.set_defaults(func=cmd_rr, kind="cy3")

    p = sub.add_parser("section", help="analyse a quasilinear section")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--cut", default="", help="section degrees, comma separated")
    p.add_argument("--invariants", action="store_true")
    p.add_argument("--basket", action="store_true")
    p.add_argument("--roundtrip", choices=("canonical3", "cy3"))
    p.add_argument("--terms", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("match", help="search ambient models for RR data")
    p.add_argument("--rr", required=True, help="RR data JSON file")
    p.add_argument("--family", choices=("wgr25", "wogr510"))
    p.add_argument("--max-w2", type=int, default=matcher_mod.DEFAULT_MAX_W2)
    p.add_argument("--max-u", type=int, default=matcher_mod.DEFAULT_MAX_U)
    p.add_argument("--no-residue-forcing", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("oracle", help="brute-force graded dimension check")
    _add_weight_args(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, SeriesError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
