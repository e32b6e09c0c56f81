"""Ambient models, quasilinear sections and singularity baskets.

An ambient model is one of the two weighted families, optionally extended by
cone variables (free generators involved in no relation).  Sections are
modelled through series only, under a regular-sequence assumption: cutting by
a general form of degree e multiplies the Hilbert series by (1 - t^e); a
non-negativity scan over the expansion is the regularity proxy.

The singularity analysis locates torus-fixed strata (coordinates of weight
divisible by r), splits them into components (c and c' meet when c*c' is
not in the span of the stratum's quadrics), counts the section points on
each component by the exact rule  N = r * degree * prod(active section
degrees), and reads the transverse quotient type off an orbifold chart of the
component.  A stratum and each component are coordinate sections: the split
and the component's ``GradedRing`` read the family's equations with every
other coordinate set to 0.  The whole procedure is exact rational
arithmetic; the stratum Hilbert series is proven from the oracle's echelon
pivots, which give a Groebner staircase of the stratum ideal
(``GradedRing.hilbert_series``).  The matcher's necessary-condition
``singularity_filter`` lives here too, for the fixtures to share without it.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from math import gcd, prod

from . import lazy_module
from . import orbifold_rr as rr
from .series import (HilbertSeries, OracleBudgetError, Record, SeriesError, coefficient,
                     differences, exact_div, positive_degrees)
from .wgrass25 import Chart, GrWeights, WeightFamily
from .wogr510 import OGrWeights

oracle = lazy_module("wgk.oracle")      # compiled by the first singularity analysis

DEFAULT_DEPTH = 40
# the matcher's default search bounds, here so that the CLI's parser needs no matcher
DEFAULT_MAX_W2 = 8
DEFAULT_MAX_U = 4


def integral(key, value):
    """An integer field of JSON input as an int; ValueError names the key
    when the value is not integral (1.7, "1/2", true)."""
    try:
        number = Fraction(value)
        if number.denominator == 1 and not isinstance(value, bool):
            return int(number)
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise ValueError(f"{key} must be an integer, not {value}")


def rational(key, value):
    """A rational field of input as a Fraction; ValueError names the key when the
    value is a boolean, a float or not a number, and quotes a zero denominator."""
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, not a boolean")
    try:
        return Fraction(coefficient(value))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, not {value!r}") from None


def json_list(key, value, read):
    """``read(key, item)`` of each item of ``value`` as a tuple; ValueError names
    the key unless ``value`` is a JSON list (a string would be read by character)."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON list, not {type(value).__name__}")
    return tuple(read(key, item) for item in value)


def json_object(name, data, required, defaults):
    """``data`` with each absent key of ``defaults`` set to its default; ValueError
    unless ``data`` is a JSON object holding every key of ``required`` and no key
    outside ``required`` and ``defaults``."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, not {type(data).__name__}")
    unknown = sorted(set(data) - set(required) - set(defaults))
    if unknown:
        raise ValueError(f"{name} has an unknown key {unknown[0]!r}")
    for key in required:
        if key not in data:
            raise ValueError(f"{name} lacks the key {key!r}")
    return {**defaults, **data}


class QuotientSingularity(Record):
    """Cyclic quotient type 1/r(a_1,...,a_k), weights reduced mod r and sorted.

    A common factor of r and all weights is divided out (the action is then
    not effective); a weight sharing a factor g with r puts the point on a curve
    of 1/g points, so it is not isolated and is flagged by the analysis.
    """
    _fields = ("r", "weights")

    def __init__(self, r, weights):
        r = operator.index(r)
        if r < 1:
            raise ValueError(f"order must be positive, found {r}")
        ws = [operator.index(w) % r for w in weights]
        g = gcd(r, *ws)
        super().__init__(r // g, tuple(sorted(w // g for w in ws)))

    def is_isolated(self):
        return all(gcd(w, self.r) == 1 for w in self.weights)

    def key(self):
        return (self.r, self.weights)

    def __str__(self):
        return f"1/{self.r}({','.join(map(str, self.weights))})"

    def to_json(self):
        return {"r": self.r, "weights": list(self.weights)}


def fmt_multiset(weights):
    parts = []
    for w, k in sorted(Counter(weights).items()):
        parts.append(f"{w}^{k}" if k > 1 else f"{w}")
    return "{" + ",".join(parts) + "}"


def singularity_filter(model, required):
    """Necessary condition: every required 1/r needs a coordinate weight
    divisible by r (otherwise no chart of order a multiple of r exists)."""
    weights = model.coordinate_weights()
    for sing in required:
        if not any(w % sing.r == 0 for w in weights):
            return False, (f"no coordinate weight divisible by {sing.r} "
                           f"in {fmt_multiset(weights)}")
    return True, None


FAMILIES = {cls.family: cls for cls in (GrWeights, OGrWeights)}


class AmbientModel(Record):
    """A weighted family plus optional cone variables of given weights.

    The base weights answer the family questions, extended by the cone."""
    _fields = ("base", "cone")

    def __init__(self, base, cone=()):
        if not isinstance(base, tuple(FAMILIES.values())):
            raise TypeError("base must be GrWeights or OGrWeights")
        super().__init__(base, positive_degrees(cone, "cone weights"))

    @property
    def family(self):
        return self.base.family

    @property
    def dim(self):
        return self.base.dim + len(self.cone)

    def coordinates(self):
        return self.base.coordinates() + [(f"c{k}", w)
                                          for k, w in enumerate(self.cone, start=1)]

    coordinate_weights = WeightFamily.coordinate_weights

    def canonical_degree(self):
        return self.base.canonical_degree() - sum(self.cone)

    def charts(self):
        """The base charts, each extended by the cone weights; a cone
        coordinate has no chart of its own."""
        return [Chart(ch.label, ch.order, ch.local_weights + self.cone)
                for ch in self.base.charts()]

    def to_json(self):
        data = {"family": self.family, **self.base.to_json()}
        if self.cone:
            data["cone"] = list(self.cone)
        return data

    @classmethod
    def from_json(cls, data):
        """Inverse of ``to_json``; ValueError names a missing or unknown key or a wrong type."""
        fields = json_object("model", data, ("family", "w2"), {"u2": 0, "cone": []})
        family = FAMILIES.get(str(fields["family"]))
        if family is None:
            raise ValueError(f"unknown family {fields['family']!r}")
        w2 = json_list("w2", fields["w2"], integral)
        u2 = integral("u2", fields["u2"])
        return cls(family.of(w2, u2), json_list("cone", fields["cone"], integral))

    def __str__(self):
        s = str(self.base)
        if self.cone:
            s = f"cone{list(self.cone)} over {s}"
        return s


# -- series-level section calculus ---------------------------------------------

def ambient_series(model):
    """Base Hilbert series with the denominator extended by the cone weights."""
    base = model.base.hilbert_series()
    return HilbertSeries(base.numerator, base.denominator + model.cone)


def section_series(model, cut):
    """Ambient series times prod (1 - t^delta) over the section degrees.

    The ambient ring is a graded domain of Krull dimension ``model.dim + 1``,
    so its series has a pole of that order at t = 1 and each section lowers it
    by one: more than ``model.dim`` sections are refused.  The expansion is
    scanned to ``DEFAULT_DEPTH`` for negative coefficients, which would mean
    the degrees cannot come from a regular sequence.
    """
    degrees = positive_degrees(cut, "section degrees")
    if len(degrees) > model.dim:
        raise ValueError("too many sections: pole order would drop below 1")
    amb = ambient_series(model)
    series = HilbertSeries(amb.hilbert_numerator(amb.denominator + degrees),
                           amb.denominator).canonical()
    if any(c < 0 for c in series.expand(DEFAULT_DEPTH)):
        raise ValueError("section spec not plausibly regular "
                         f"(negative coefficient within degree {DEFAULT_DEPTH})")
    return series


def section_canonical(model, cut):
    """Canonical degree of the section: ambient canonical plus section degrees."""
    return model.canonical_degree() + sum(positive_degrees(cut, "section degrees"))


def quasilinear_embed(model, cut):
    """Eliminate one ambient generator per matching section degree.

    Returns the remaining generator weights, whether every degree matched, and
    the unmatched leftovers.
    """
    kept, left = differences(model.coordinate_weights(), positive_degrees(cut, "section degrees"))
    return {"weights": tuple(kept), "quasilinear": not left, "leftovers": tuple(left)}


# -- singularity analysis --------------------------------------------------------

class StratumRecord(Record):
    """One stratum's component, its point count and type: ``sing_type`` is a
    QuotientSingularity, ``stop_degree`` the last oracle slice proving its
    series."""
    _fields = ("r", "component", "dimension", "active", "count", "sing_type", "stop_degree")


class SingularityReport(Record):
    """``basket`` as [(QuotientSingularity, count)], diagnostics and StratumRecords."""
    _fields = ("basket", "diagnostics", "strata")

    def to_json(self):
        return {
            "basket": [{**s.to_json(), "count": n} for s, n in self.basket],
            "diagnostics": list(self.diagnostics),
        }


def _component_split(names, equations):
    """Components of a stratum: the connected pieces of the relation "c*c' is
    not in the ideal" on its coordinates, read in order.  Every term of every
    equation is a product of two distinct coordinates, so the ideal is
    generated in standard degree 2, its degree-2 part is the span of the
    equations, and no c^2 lies in it: c*c' is in the ideal exactly when it is
    in that span, with the equations' monomials as columns.  ``equations``
    may name other coordinates: only their terms inside ``names`` count; their
    coefficients are +-1, so each such row is primitive, as ``insert`` needs."""
    inside = set(names)
    span = oracle.IntegerEchelon()
    for eq in equations:
        span.insert({m: c for m, c in eq.coeffs.items() if all(v in inside for v, _ in m)})

    def related(i, j):
        return not span.contains({tuple(sorted(((names[i], 1), (names[j], 1)))): 1})

    components = []
    for i in range(len(names)):
        linked = [comp for comp in components if any(related(i, j) for j in comp)]
        components = [comp for comp in components if comp not in linked]
        components.append(sorted(j for comp in linked for j in comp) + [i])
    return [tuple(names[j] for j in comp) for comp in sorted(components)]


def _transverse_type(chart, r, degrees, diagnostics, context):
    """Quotient type transverse to the stratum, read off one chart on residues
    mod r: the nonzero residues of the local weights, less one residue delta
    mod r for each section degree delta not divisible by r."""
    transverse = [w % r for w in chart.local_weights if w % r]
    for delta in degrees:
        if delta % r == 0:
            continue          # consumes a stratum direction
        if delta % r not in transverse:
            diagnostics.append(
                f"{context}: chart {chart.label} non-quasismooth: degree "
                f"{delta} section cannot eliminate a local variable")
            return None
        transverse.remove(delta % r)
    return QuotientSingularity(r, transverse)


def singularity_analysis(model, cut):
    """Basket of quotient singularities of a general section, with diagnostics.

    Combines stratum location/counting with chart-level type computation; see
    the module docstring for the procedure.
    """
    degrees = positive_degrees(cut, "section degrees")
    section_dim = model.dim - len(degrees)
    if section_dim < 1:
        raise ValueError("section must have positive dimension")
    coords = model.coordinates()
    charts = {ch.label: ch for ch in model.charts()}
    equations = model.base.equations()
    diagnostics = []
    records = []

    r_candidates = sorted({r for _, w in coords for r in range(2, w + 1)
                           if w % r == 0})
    for r in r_candidates:
        stratum_coords = [(n, w) for n, w in coords if w % r == 0]
        for comp in _component_split([n for n, _ in stratum_coords], equations):
            comp_context = f"1/{r} stratum [{' '.join(comp)}]"
            if any(n not in charts for n in comp):
                diagnostics.append(f"{comp_context}: contains a cone vertex; "
                                   "chart analysis unsupported")
                continue
            comp_charts = [charts[n] for n in comp]
            dims = {sum(1 for w in ch.local_weights if w % r == 0)
                    for ch in comp_charts}
            if len(dims) != 1:
                diagnostics.append(f"{comp_context}: chart dimensions disagree "
                                   f"({sorted(dims)})")
                continue
            dim_comp = dims.pop()

            comp_ring = oracle.GradedRing([(n, w) for n, w in stratum_coords if n in comp],
                                   equations)
            try:
                active = tuple(d for d in degrees if comp_ring.dimension(d) > 0)
                m = len(active)
                vanishing = sorted(set(d for d in degrees
                                       if d % r == 0 and d not in active))
                if vanishing:
                    diagnostics.append(
                        f"{comp_context}: sections of degree {vanishing} restrict "
                        "to zero; they vanish along the component")
                if m > dim_comp:
                    continue      # generic intersection with the component is empty
                if m < dim_comp:
                    diagnostics.append(
                        f"{comp_context}: non-isolated singular locus (residual "
                        f"dimension {dim_comp - m})")
                    continue
                series, stop = comp_ring.hilbert_series()
                inter = series.intersection_number(dim_comp)
            except OracleBudgetError as exc:
                diagnostics.append(f"{comp_context}: not counted ({exc})")
                continue
            except SeriesError as exc:
                diagnostics.append(f"{comp_context}: {exc}")
                continue
            count = Fraction(r) * inter * prod(active, start=Fraction(1))

            types = set()
            for ch in comp_charts:
                ty = _transverse_type(ch, r, degrees, diagnostics, comp_context)
                if ty is not None:
                    types.add(ty)
            if len(types) != 1:
                diagnostics.append(f"{comp_context}: transverse type is "
                                   f"ambiguous ({sorted(str(t) for t in types)})")
                continue
            sing = types.pop()
            records.append(StratumRecord(r, comp, dim_comp, active, count, sing, stop))

    # Points with stabilizer mu_{r'} on a nested finer stratum enter the
    # level-r count with orbifold weight r/r'; correcting finest levels first
    # leaves each record with its exact-stabilizer count.
    exact = {}
    for rec in sorted(records, key=lambda rec: -rec.r):
        exact[rec] = rec.count
        for other in records:
            if (other.r > rec.r and other.r % rec.r == 0
                    and set(other.component) <= set(rec.component)):
                exact[rec] -= Fraction(rec.r, other.r) * exact[other]
                diagnostics.append(
                    f"1/{rec.r} stratum [{' '.join(rec.component)}]: removed "
                    f"the weight of {exact[other]} nested 1/{other.r} point(s)")
    records = [StratumRecord(rec.r, rec.component, rec.dimension, rec.active, exact[rec],
                             rec.sing_type, rec.stop_degree) for rec in records]

    basket = {}
    for rec in records:
        if rec.count == 0:
            continue
        if rec.count != int(rec.count) or rec.count < 0:
            diagnostics.append(
                f"1/{rec.r} stratum [{' '.join(rec.component)}]: non-integral "
                f"point count {rec.count}")
            continue
        sing = rec.sing_type
        if not sing.is_isolated():
            diagnostics.append(f"singular type {sing} is not isolated")
        if len(sing.weights) != section_dim:
            diagnostics.append(
                f"type {sing} has {len(sing.weights)} weights on a "
                f"{section_dim}-dimensional section")
        basket[sing] = basket.get(sing, 0) + int(rec.count)

    basket_list = sorted(basket.items(), key=lambda kv: kv[0].key())
    return SingularityReport(basket=basket_list, diagnostics=diagnostics,
                             strata=records)


# -- round trip against orbifold Riemann-Roch ------------------------------------

def rr_roundtrip(series, basket, kind):
    """Fit Riemann-Roch data to a 3-fold section's series and the basket
    [(point, count)] of its analysis, and reassemble the series.

    K = O(k) must be the kind's: k = 1 for ``canonical3`` (assumed regular,
    chi = 1 - p_g), k = 0 for ``cy3`` (chi = 0).  The pole order, A^3, p_g and
    k are read off the series, each point (refused unless isolated) adds its
    ``local_term``, and A.c2 is fitted from P(k + 1).  Exact rational-function
    equality is required; a mismatch reports the first differing coefficient.

    k is the numerator's top exponent less the denominator's sum: cancelling
    (1 - t^a) lowers both by a, and before any cancels the numerator is the
    ambient one (top term -t^top) times prod (1 - t^delta) over the section
    degrees, over the coordinate weights w, so k = top + sum delta - sum w,
    which is ``section_canonical``.
    """
    k = {"canonical3": 1, "cy3": 0}.get(kind)
    if k is None:
        raise ValueError("kind must be 'canonical3' or 'cy3'")
    try:
        acubed = series.intersection_number(3)
    except SeriesError:
        raise ValueError("round trip needs a 3-dimensional section") from None
    canonical = series.numerator.max_exp() - sum(series.denominator)
    if canonical != k:
        raise ValueError(f"a {kind} round trip needs K = O({k}); "
                         f"this section has K = O({canonical})")
    non_isolated = ", ".join(str(s) for s, _ in basket if not s.is_isolated())
    if non_isolated:
        raise ValueError(f"a {kind} round trip needs isolated points; "
                         f"the basket holds {non_isolated}")
    chi = 1 - series.coefficient(1) if k == 1 else 0
    tables = tuple(rr.local_term(*s.key()) for s, n in basket for _ in range(n))
    trial = rr.RRData(k, acubed, chi, 0, tables)
    ac2 = exact_div(12 * (series.coefficient(k + 1) - rr.plurigenus(trial, k + 1)), k + 1)
    data = rr.RRData(k, acubed, chi, ac2, tables)
    # hilbert_series under the two names perfbench's tracer wraps, so a traced verify times it
    rebuilt = (rr.hilbert_can3 if k == 1 else rr.hilbert_cy3)(data)

    ok = rebuilt == series
    terms = 4 * DEFAULT_DEPTH
    pairs = () if ok else zip(series.expand(terms), rebuilt.expand(terms))
    first_mismatch = next(((n, x, y) for n, (x, y) in enumerate(pairs) if x != y), None)
    return {"ok": ok, "data": data, "first_mismatch": first_mismatch}
