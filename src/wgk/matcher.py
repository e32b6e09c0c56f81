"""Search engine from target Hilbert data to weighted ambient models.

Generator degrees are inferred greedily from the series (then forced to be
compatible with a required singularity basket), the target numerator is
formed exactly, and the weight data within bounds is looked up in a cached
index sliced by numerator top exponent, which each query fetches once and
hands to the scan.  The index keeps each model's num(2) for a divisibility
pre-filter, read off the lower resolution banks once per (family, w2) and
shifted for each further overall weight u, and it keeps the closed-form series
and canonical key of each model a lookup hits.  A model matches when its
closed-form numerator equals the target numerator exactly, either directly
(quasilinear candidate) or after stripping extra (1 - t^k) factors (a
nonlinear section of a cone, reported as a formal match).  A
necessary-condition singularity filter rejects models that cannot carry a
required 1/r point because no coordinate weight is divisible by r.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from functools import lru_cache

from .sections import DEFAULT_DEPTH, FAMILIES, AmbientModel
from .series import InternalError, LaurentPoly, Record, SeriesError, one_minus
from .wgrass25 import GrWeights
from .wogr510 import OGrWeights

DEFAULT_MAX_W2 = 8
DEFAULT_MAX_U = 4
AUGMENT_BOUND = 8     # the largest extra generator degree match_pipeline tries


def fmt_multiset(weights):
    parts = []
    for w, k in sorted(Counter(weights).items()):
        parts.append(f"{w}^{k}" if k > 1 else f"{w}")
    return "{" + ",".join(parts) + "}"


class MatchQuery(Record):
    """Target Hilbert data plus search bounds and requirements.

    When ``target`` has an empty denominator it is taken to be the numerator
    itself; otherwise the numerator is formed against the generator degrees.
    Generator degrees, when given, constrain the ambient coordinate weights
    (up to coning by unmatched degree-1 generators).
    """
    _fields = ("target", "generator_degrees", "family", "max_w2", "max_u", "basket")

    def __init__(self, target, generator_degrees=None, family=None, max_w2=DEFAULT_MAX_W2,
                 max_u=DEFAULT_MAX_U, basket=()):
        max_w2, max_u = _check_bounds(family, max_w2, max_u)
        super().__init__(target, generator_degrees, family, max_w2, max_u, basket)


def _check_bounds(family, max_w2, max_u):
    """The bounds and family check of both ``search`` and ``match_pipeline``; the
    bounds are read through ``operator.index``, which refuses a float or inf."""
    max_w2, max_u = operator.index(max_w2), operator.index(max_u)
    if max_w2 < 1 or max_u < 1:
        raise ValueError("search bounds must be positive and finite")
    if family is not None and family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return max_w2, max_u


def infer_generators(series, depth=DEFAULT_DEPTH):
    """Greedy generator inference from the expansion.

    Repeatedly multiplies by (1 - t^k)^{c_k} at the smallest degree with a
    positive coefficient, stopping at the first negative one (or at depth).
    The series is expanded once; each factor updates the truncated
    coefficients in place, high to low, since coefficient n of a product
    depends only on coefficients up to n.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    gens = []
    coeffs = series.expand(depth)
    while True:
        k = next((i for i in range(1, depth + 1) if coeffs[i] != 0), None)
        if k is None or coeffs[k] < 0:
            break
        c = coeffs[k]
        if c.denominator != 1:
            raise ValueError(f"non-integral coefficient {c} at degree {k}")
        gens.extend([k] * int(c))
        for _ in range(int(c)):
            for n in range(depth, k - 1, -1):
                coeffs[n] -= coeffs[n - k]
    return tuple(gens)


def _force_divisibility(gens, basket):
    """``gens`` with a degree r added until each 1/r point of ``basket`` has
    its own generator of degree divisible by r."""
    gens = list(gens)
    for r, n in sorted(Counter(sing.r for sing in basket).items()):
        gens.extend([r] * max(0, n - sum(1 for g in gens if g % r == 0)))
    return tuple(sorted(gens))


def _force_residues(gens, basket):
    """``gens`` with each nonzero residue mod r of the weights of a 1/r point
    of ``basket`` added that no generator has."""
    gens = list(gens)
    for sing in basket:
        for res in sorted({w % sing.r for w in sing.weights} - {0}):
            if not any(g % sing.r == res for g in gens):
                gens.append(res)
    return tuple(sorted(gens))


def singularity_filter(model, required):
    """Necessary condition: every required 1/r needs a coordinate weight
    divisible by r (otherwise no chart of order a multiple of r exists)."""
    weights = model.coordinate_weights()
    for sing in required:
        if not any(w % sing.r == 0 for w in weights):
            return False, (f"no coordinate weight divisible by {sing.r} "
                           f"in {fmt_multiset(weights)}")
    return True, None


def enumerate_gr_weights(max_w2, tau=None):
    """Canonically sorted normalized weight data for the Pfaffian family, in
    table order; with ``tau = (lo, hi)`` only those with lo < top exponent <= hi."""
    lo, hi = tau or (-math.inf, math.inf)
    out = []
    for parity in (0, 1):
        vals = range(-max_w2 + ((-max_w2 - parity) % 2), max_w2 + 1, 2)
        for w0 in vals:     # sorted, so w0 + w1 > 0 puts every w_i > -w0
            rest = [v for v in vals if v >= w0 and v > -w0]
            for tup in itertools.combinations_with_replacement(rest, 4):
                if lo < w0 + sum(tup) <= hi:
                    out.append(GrWeights((w0,) + tup))
    return out


def enumerate_ogr_weights(max_w2, max_u, tau=None):
    """Orbit representatives of spinor-family weight data within bounds, in
    table order; with ``tau = (lo, hi)`` only those with lo < top exponent <= hi."""
    lo, hi = tau or (-math.inf, math.inf)
    out = []
    for parity in (0, 1):
        vals = range(parity, max_w2 + 1, 2)
        for tup in itertools.combinations_with_replacement(vals, 5):
            s2 = sum(tup)
            if 2 * (s2 - 2 * tup[0] + 4) > hi or 2 * (s2 + 4 * max_u) <= lo:
                continue    # no variant and u of this tuple reaches (lo, hi]
            variants = [tup]
            if all(v > 0 for v in tup):
                variants.append((-tup[0],) + tup[1:])
            # each w2 sorts with w2[0] + w2[1] >= 0 (a negated first entry -a sits
            # next to b >= a) and its four smallest summing to >= 0, so u >= 1
            # makes every coordinate weight positive: each OGrWeights constructs
            for w2 in variants:
                s8 = 2 * sum(w2)    # the top exponent s8 + 8u must lie in (lo, hi]
                for u in range(max(1, (lo - s8) // 8 + 1), min(max_u, (hi - s8) // 8) + 1):
                    out.append(OGrWeights(w2, u))
    return out


def _bank_sums(weights, top):
    """(sum 2^e, sum 2^(top - e)) over each lower bank of ``weights``, once its
    degrees e are checked to lie in (0, top): see ``_numerator_at2``."""
    sums = []
    for bank in weights.lower_banks():
        if bank[0] <= 0 or bank[-1] >= top:
            raise InternalError(f"{weights}: numerator is not 1 + ... - t^{top}")
        sums.append((sum([1 << e for e in bank]), sum([1 << (top - e) for e in bank])))
    return sums


def _numerator_at2(weights, top, sums=None, k=0):
    """num(2) = 1 - sum 2^e over the relations + ... - 2^top from the lower banks
    alone: bank c - i is bank i with e -> top - e and, c being odd, the other
    sign, so lower bank i adds ±(sum 2^e - sum 2^(top - e)).  Nothing cancels 1
    or -t^top if the lower degrees lie in (0, top), as their duals then do.
    Positive coordinate weights a ensure it: wGr has d - w_i = a_jk + a_lm and
    d + w_i = a_ij + a_ik + a_lm; wOGr has d - w_i = a_x + a_xi and d + w_i =
    a_xij + a_xj, so 2d is a sum of four weights a, 2d - a > 0 the rest of such
    a quadruple, 2d + a > 0 and 3d ± w_i > 0.

    ``sums`` may be the ``_bank_sums`` of the model with the same w2 and u - k,
    k >= 0 (k = 0 where u is absorbed); lower_banks() is then not called.
    Raising u by k raises the degrees of lower bank i by ``bank_slopes[i] *
    k`` and their duals by ``(top_slope - bank_slopes[i]) * k``, so each sum
    is shifted once.  The separation checked at u - k holds at u, as neither
    a bank's least degree nor top minus its largest degree falls."""
    num, sign = 1 - (1 << top), -1
    for i, (up, down) in enumerate(sums or _bank_sums(weights, top)):
        if k:
            slope = weights.bank_slopes[i]
            up, down = up << slope * k, down << (weights.top_slope - slope) * k
        num += sign * (up - down)
        sign = -sign
    return num    # never 0: an integer root of num would divide its constant term 1


# the module functions are looked up on each call, so that they can be wrapped
_ENUMERATE = {"wgr25": lambda max_w2, max_u, tau: enumerate_gr_weights(max_w2, tau),
              "wogr510": lambda max_w2, max_u, tau: enumerate_ogr_weights(max_w2, max_u, tau)}


def _target_at2(n_target):
    """n_target(2) as an int, by shifts and adds, when n_target is a nonzero
    polynomial with integer coefficients, else None: no model reaches it."""
    coeffs = n_target.coeffs
    if coeffs and min(coeffs) >= 0 and all(c.denominator == 1 for c in coeffs.values()):
        return sum(int(c) << e for e, c in coeffs.items())


class _ModelIndex:
    """Bounded models as (weights, num(2)) pairs keyed by numerator top
    exponent, built up to ``covered`` (every top exponent is positive: the
    coordinate weights are positive and sum to a multiple of it), with the
    bank sums of each (family, w2) whose u varies and the series and key of
    each model hit."""

    def __init__(self, family, max_w2, max_u):
        self.families, self.bounds = [family] if family else list(FAMILIES), (max_w2, max_u)
        self.covered, self.slices, self.sums, self.hits = 0, {}, {}, {}

    def reach(self, top):
        """The slices, after enumerating the models of those in (covered, top].
        A (family, w2) whose u varies forms its bank sums once, at its least
        top exponent t0: windows ascend in top exponent and yield a w2's u in
        ascending order, so each later model shifts them by k = (t - t0) /
        top_slope >= 0.  A model below t0 would re-form them, so grouping
        never decides a value.  A w2 whose u is absorbed is one model: its
        sums are not kept."""
        if top > self.covered:
            for fam in self.families:
                for w in _ENUMERATE[fam](*self.bounds, (self.covered, top)):
                    t, sums, k = w.top_exponent(), None, 0
                    if w.bank_slopes:
                        t0, sums = self.sums.get((fam, w.w2), (t + 1, None))
                        if t < t0:
                            t0, sums = self.sums[fam, w.w2] = t, _bank_sums(w, t)
                        k = (t - t0) // w.top_slope
                    self.slices.setdefault(t, []).append((w, _numerator_at2(w, t, sums, k)))
            self.covered = top
        return self.slices

    def lookup(self, n_target, formal=False):
        """(weights, Hilbert series, canonical key) for each bounded model whose
        numerator num can equal n_target or, with ``formal``, divide it, in no
        particular order.

        A match means n_target = num * q with q = 1 or prod (1 - t^k), k >= 1.
        Both are integer polynomials, so any other target reaches no model; the
        top exponent of num is at most that of n_target (equal when q = 1), and
        num(2) divides n_target(2).  The index holds num(2) from when the slice
        was enumerated, and forms a model's series and key at its first hit.
        """
        at2 = _target_at2(n_target)
        if at2 is None:
            return
        top = n_target.max_exp()
        slices = self.reach(top)
        tops = [t for t in slices if t == top or formal and t < top]
        for w, num2 in itertools.chain.from_iterable(slices[t] for t in tops):
            if at2 % num2 == 0:
                hit = self.hits.get(w)
                if hit is None:
                    hit = self.hits[w] = w, w.hilbert_series(), _canonical_key(w)
                yield hit


_model_index = lru_cache(maxsize=8)(_ModelIndex)    # one per family and bounds


def _strip_section_factors(quotient):
    """Write a polynomial as prod (1 - t^k), at most 8 factors, or return None."""
    factors, q = [], quotient
    while q != LaurentPoly.one():
        if q.is_zero() or q.min_exp() != 0 or q[0] != 1:
            return None
        factors.append(min(e for e in q.coeffs if e > 0))    # q is not 1, so one exists
        q = q.divexact(one_minus(factors[-1]))
        if q is None or len(factors) > 8:
            return None
    return tuple(sorted(factors))


def _canonical_key(w):
    c = w.canonical_form()
    return (w.family, *(getattr(c, name) for name in c._fields))


def _quasilinear_sections(gens, coord_weights):
    """Cone count and section degrees making coordinates = generators + sections.

    Each cone adds one coordinate of weight 1, so the fewest cones are those
    the generators of weight 1 lack; the other weights must be there already.
    """
    need, have = Counter(gens), Counter(coord_weights)
    cone = max(0, need[1] - have[1])
    have[1] += cone
    if not need <= have:
        return None, None
    return cone, tuple(sorted((have - need).elements()))


class MatchCandidate(Record):
    """A model with the ``numerator`` of its base, its quasilinear ``sections``
    (or None), the ``nonlinear`` degrees multiplying that numerator and the
    ``generators`` that produced it; ``accepted`` and ``reason`` (None when
    accepted) are fixed when it is made."""
    _fields = ("model", "numerator", "sections", "nonlinear", "generators", "provenance",
               "status", "accepted", "reason")

    def describe(self):
        s = str(self.model)
        cuts = list(self.nonlinear) + (list(self.sections) if self.sections else [])
        if cuts:
            s += " ∩ " + "".join(f"({d})" for d in sorted(cuts))
        return s

    def to_json(self):
        return {
            **vars(self),       # provenance, status, accepted and reason as they are
            "model": self.model.to_json(),
            "numerator": self.numerator.to_json(),
            "sections": list(self.sections) if self.sections is not None else None,
            "nonlinear": list(self.nonlinear),
            "generators": list(self.generators),
        }


class MatchReport(Record):
    """Ranked candidates, the (provenance, generators, note) sets tried, and notes."""
    _fields = ("candidates", "generator_sets", "diagnostics")

    def rejected(self):
        return [c for c in self.candidates if not c.accepted]

    def to_json(self):
        return {
            "candidates": [c.to_json() for c in self.candidates],
            "generator_sets": [
                {"provenance": p, "generators": list(g), "note": n}
                for p, g, n in self.generator_sets],
            "diagnostics": list(self.diagnostics),
        }


def _collect(candidates, index, n_target, gens, provenance, basket, formal=False):
    """Add the models of ``index`` whose numerator equals n_target to ``candidates``,
    keyed by canonical weights, cone and sections, with their quasilinear
    sections against ``gens`` (the model's own coordinates when None); with
    ``formal``, also those whose numerator divides n_target by a product of
    (1 - t^k), as nonlinear sections of a cone, keeping the fewest factors.

    A candidate is accepted when it passes the singularity filter for
    ``basket`` and is quasilinear; otherwise its reason is the filter's, or
    its status."""
    def candidate(model, num, sections, nonlinear, status):
        ok, reason = singularity_filter(model, basket)
        accepted = ok and status == "quasilinear"
        if ok and not accepted:
            reason = status
        return MatchCandidate(model, num, sections, nonlinear, gens, provenance, status,
                              accepted, reason)

    for w, model_series, key in index.lookup(n_target, formal):
        num = model_series.numerator
        if num == n_target:
            coords = model_series.denominator
            cone, sections = _quasilinear_sections(coords if gens is None else gens, coords)
            model = AmbientModel(w, (1,) * cone if cone else ())
            key += (model.cone, (), sections)
            if key not in candidates:
                status = ("quasilinear" if sections is not None
                          else "numerator match (no quasilinear embedding)")
                candidates[key] = candidate(model, num, sections, (), status)
            continue
        quotient = n_target.divexact(num) if formal else None
        factors = quotient and _strip_section_factors(quotient)
        if not factors:
            continue
        key += ("formal",)
        old = candidates.get(key)
        if old is None or (len(factors), factors) < (len(old.nonlinear), old.nonlinear):
            candidates[key] = candidate(
                AmbientModel(w, (1,)), num, None, factors,
                "formal numerator match (nonlinear section of a cone)")


def search(query):
    """All ambient models within bounds matching the query exactly: the
    accepted candidates of one scan with no section left over.

    Deduplicated by permutation (respectively signed-permutation) symmetry and
    returned in a canonical deterministic order.
    """
    gens = query.generator_degrees
    if query.target.denominator:
        if gens is None:
            gens = _force_residues(_force_divisibility(
                infer_generators(query.target), query.basket), query.basket)
        try:
            n_target = query.target.hilbert_numerator(gens)
        except SeriesError as exc:
            raise SeriesError(f"{exc} with generator degrees {fmt_multiset(gens)}; "
                              "give generator_degrees= or use match_pipeline, "
                              "which tries one more degree") from None
    else:
        n_target = query.target.numerator
    candidates = {}
    _collect(candidates, _model_index(query.family, query.max_w2, query.max_u), n_target,
             gens, "search", query.basket)
    return [candidates[k].model for k in sorted(k for k, c in candidates.items()
                                                if c.sections == () and c.accepted)]


def match_pipeline(series, basket=(), family=None, max_w2=DEFAULT_MAX_W2,
                   max_u=DEFAULT_MAX_U, user_generators=(), residue_forcing=True):
    """Full recognition pipeline with accepted/rejected verdicts.

    Candidate generator multisets are the greedy one, its singularity-forced
    variants, and any user-supplied ones.  If no candidate is accepted, one
    extra generator-and-relation degree k is tried for k up to AUGMENT_BOUND.
    """
    max_w2, max_u = _check_bounds(family, max_w2, max_u)
    basket = tuple(basket)
    greedy = infer_generators(series)
    forced = _force_divisibility(greedy, basket)
    inferred = [("greedy", greedy), ("divisibility-forced", forced)]
    if residue_forcing:
        inferred.append(("residue-forced", _force_residues(forced, basket)))
    gen_sets = [(p, g) for i, (p, g) in enumerate(inferred)
                if g not in [h for _, h in inferred[:i]]]
    gen_sets += [(f"user[{k}]", tuple(sorted(gens))) for k, gens in enumerate(user_generators)]

    index, candidates, tried, diagnostics = _model_index(family, max_w2, max_u), {}, [], []
    for k in range(AUGMENT_BOUND + 1):    # round 0 tries the sets as inferred
        for provenance, gens in gen_sets:
            if k:
                provenance, gens = f"{provenance} + degree {k}", tuple(sorted(gens + (k,)))
            try:
                n_target = series.hilbert_numerator(gens)
            except SeriesError:
                tried.append((provenance, gens, "numerator does not clear"))
                continue
            tried.append((provenance, gens, "ok"))
            _collect(candidates, index, n_target, gens, provenance, basket, formal=True)
        if any(c.accepted for c in candidates.values()):
            if k:
                diagnostics.append(f"added one generator and relation in degree {k}")
            break

    ranked = sorted(candidates.values(),
                    key=lambda c: (not c.accepted, c.status != "quasilinear",
                                   c.model.family, str(c.model)))
    return MatchReport(candidates=ranked, generator_sets=tried,
                       diagnostics=diagnostics)
