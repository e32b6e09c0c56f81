"""Search engine from target Hilbert data to weighted ambient models.

Generator degrees are read off the series' Euler exponents (then forced to be
compatible with a required singularity basket), the target numerator is
formed exactly, and the weight data within bounds is looked up in a cached
index sliced per family by numerator top exponent, which each query fetches
once and hands to the scan.  The order of the target's zero at t = 1, less a
family's codimension, is the number of (1 - t^k) factors a match needs: it
picks the slices of that family to scan and enumerate, or none.  The index
keeps each model as its field values with its num(2), read off the lower
resolution banks for a divisibility pre-filter, and builds the weights and the
closed-form series of a model at its first hit; its table entry, one per orbit
of its family's symmetry, names it.  A model matches when its closed-form
numerator equals the target numerator exactly, either directly (quasilinear
candidate) or after stripping extra (1 - t^k) factors (a nonlinear section of
a cone, reported as a formal match).  A necessary-condition singularity filter
rejects models that cannot carry a required 1/r point because no coordinate
weight is divisible by r.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from functools import lru_cache

from .sections import (DEFAULT_DEPTH, DEFAULT_MAX_U, DEFAULT_MAX_W2, FAMILIES, AmbientModel,
                       fmt_multiset, singularity_filter)
from .series import (HilbertSeries, InternalError, LaurentPoly, Record, SeriesError, one_minus,
                     over_one_minus, positive_degrees, times_one_minus)

AUGMENT_BOUND = 8     # the largest extra generator degree match_pipeline tries
SECTION_FACTORS = 8   # the most (1 - t^k) factors a formal match strips


class MatchQuery(Record):
    """Target Hilbert data plus search bounds and requirements.

    When ``target`` has an empty denominator it is taken to be the numerator
    itself; otherwise the numerator is formed against the generator degrees.
    Generator degrees, when given, are positive integers and constrain the
    ambient coordinate weights (up to coning by unmatched degree-1 generators).
    """
    _fields = ("target", "generator_degrees", "family", "max_w2", "max_u", "basket")

    def __init__(self, target, generator_degrees=None, family=None, max_w2=DEFAULT_MAX_W2,
                 max_u=DEFAULT_MAX_U, basket=()):
        max_w2, max_u = _check_bounds(family, max_w2, max_u)
        if generator_degrees is not None:
            generator_degrees = positive_degrees(generator_degrees)
        super().__init__(target, generator_degrees, family, max_w2, max_u, tuple(basket))


def _check_bounds(family, max_w2, max_u):
    """The bounds and family check of both ``search`` and ``match_pipeline``; the
    bounds are read through ``operator.index``, which refuses a float or inf."""
    max_w2, max_u = operator.index(max_w2), operator.index(max_u)
    if max_w2 < 1 or max_u < 1:
        raise ValueError("search bounds must be positive and finite")
    if family is not None and family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return max_w2, max_u


def infer_generators(series):
    """Greedy generator inference: b_k generators of each degree k up to the first
    negative b_k (or DEFAULT_DEPTH), where H = prod (1 - t^k)^(-b_k).  A series
    whose expansion vanishes to DEFAULT_DEPTH has none; any other must start at 1.

    The greedy multiplies H by (1 - t^k)^c at the least k with a nonzero
    coefficient c, and stops at a negative c.  H * prod_{j<k} (1 - t^j)^(b_j) is
    1 + b_k t^k + ..., so c = b_k.  Exponents add under products, and those of
    1 / prod (1 - t^a) count the a, so b_k is the count d_k of k in the denominator
    plus e_k, read off the numerator alone in |e_k| = |b_k - d_k| <= b_k + d_k
    passes, which expanding H and multiplying took.  Coefficient n reads only
    those up to n, so the truncation is exact.
    """
    coeffs, gens = HilbertSeries(series.numerator).expand(DEFAULT_DEPTH), []
    if coeffs[0] != 1:
        if any(coeffs):
            raise SeriesError(f"the expansion starts with {coeffs[0]}, not 1: no generators")
        return ()
    for k in range(1, DEFAULT_DEPTH + 1):
        b = (e := coeffs[k]) + series.denominator.count(k)
        if b < 0:
            break
        if b.denominator != 1:
            raise ValueError(f"non-integral coefficient {b} at degree {k}")
        gens += [k] * int(b)
        for _ in range(abs(int(e))):
            (times_one_minus if e > 0 else over_one_minus)(coeffs, k)
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


def enumerate_gr_weights(max_w2, tau=None):
    """Canonically sorted normalized weight data for the Pfaffian family, as the
    field values (w2,) of ``GrWeights`` in table order; with ``tau = (lo, hi)``
    only those with lo < top exponent <= hi."""
    lo, hi = tau or (-math.inf, math.inf)
    out = []
    for parity in (0, 1):
        vals = range(-max_w2 + ((-max_w2 - parity) % 2), max_w2 + 1, 2)
        for w0 in vals:     # sorted, so w0 + w1 > 0 puts every w_i > -w0
            rest = [v for v in vals if v >= w0 and v > -w0]
            for tup in itertools.combinations_with_replacement(rest, 4):
                if lo < w0 + sum(tup) <= hi:
                    out.append(((w0,) + tup,))
    return out


def enumerate_ogr_weights(max_w2, max_u, tau=None):
    """Orbit representatives of spinor-family weight data within bounds, as the
    field values (w2, u) of ``OGrWeights`` in table order; with ``tau = (lo, hi)``
    only those with lo < top exponent <= hi.  No two share a W(D5) orbit (signed
    permutations, evenly many sign changes): |w| is kept, and a negated variant
    (tup[0] > 0, so no zero) keeps an odd number of negative entries, so it meets
    no entry without one; within either kind |w| fixes w2, and a flip keeping w2
    flips zeros or a pair ±a, which keeps u2 = 2u + the sum of the flipped w2."""
    lo, hi = tau or (-math.inf, math.inf)
    out = []
    for parity in (0, 1):
        vals = range(parity, max_w2 + 1, 2)
        for tup in itertools.combinations_with_replacement(vals, 5):
            # the top exponent is s8 + 8u: s8 = 2 sum(w2) is s for the tuple and
            # s - 4 tup[0] for it with its first entry negated, when that is positive
            s = 2 * sum(tup)
            if s - 4 * tup[0] + 8 > hi or s + 8 * max_u <= lo:
                continue    # no variant and u of this tuple reaches (lo, hi]
            variants = [(tup, s)]
            if tup[0] > 0:
                variants.append(((-tup[0],) + tup[1:], s - 4 * tup[0]))
            # each w2 sorts with w2[0] + w2[1] >= 0 (a negated first entry -a sits
            # next to b >= a) and its four smallest summing to >= 0, so u >= 1
            # makes every coordinate weight positive: each OGrWeights constructs
            for w2, s8 in variants:
                for u in range(max(1, (lo - s8) // 8 + 1), min(max_u, (hi - s8) // 8) + 1):
                    out.append((w2, u))
    return out


def _numerator_at2(top, banks, powers):
    """num(2) = 1 - sum 2^e over the relations + ... - 2^top from the lower banks
    alone, where ``powers`` maps each e in (0, top) to 2^e - 2^(top - e): bank
    c - i is bank i with e -> top - e and, c being odd, the other sign, so lower
    bank i adds ±(sum 2^e - sum 2^(top - e)).  A degree outside (0, top) is a
    KeyError.  Nothing cancels 1 or -t^top if the lower degrees lie in (0, top),
    as their duals then do.  Positive coordinate weights a ensure it: wGr has
    d - w_i = a_jk + a_lm and d + w_i = a_ij + a_ik + a_lm; wOGr has d - w_i =
    a_x + a_xi and d + w_i = a_xij + a_xj, so 2d is a sum of four weights a,
    2d - a > 0 the rest of such a quadruple, 2d + a > 0 and 3d ± w_i > 0."""
    num, sign = 1 - (1 << top), -1
    for bank in banks:
        num += sign * sum(map(powers.__getitem__, bank))
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
    """Bounded models as (field values, num(2)) pairs, per family keyed by
    numerator top exponent (every top exponent is positive: the coordinate
    weights are positive and sum to a multiple of it), with the weights and
    series of each model hit, keyed by family and field values.  A family's
    slices are built for every top exponent up to ``covered[family]`` and for
    each top above it that is a key of ``slices[family]``."""

    def __init__(self, family, max_w2, max_u):
        self.families, self.bounds = [family] if family else list(FAMILIES), (max_w2, max_u)
        self.covered, self.slices = dict.fromkeys(self.families, 0), {f: {} for f in self.families}
        self.hits = {}

    def reach(self, fam, lo, hi):
        """``fam``'s slices, after enumerating its models with lo < top <= hi
        not built yet; the window is a prefix (lo = 0) or one top (lo = hi - 1).
        A prefix skips the tops built alone before it.  A model's top and lower
        banks come from its field values (``banks_of``), and its num(2) from one
        table of 2^e - 2^(top - e) per top the window meets, which has no entry
        for a degree outside (0, top): such a model is an internal error."""
        slices, covered = self.slices[fam], self.covered[fam]
        if hi <= covered or lo == hi - 1 and hi in slices:
            return slices
        alone, banks_of, tables = {t for t in slices if t > covered}, FAMILIES[fam].banks_of, {}
        for fields in _ENUMERATE[fam](*self.bounds, (max(lo, covered), hi)):
            top, banks = banks_of(*fields)
            if top in alone:
                continue
            powers = tables.get(top)
            if powers is None:
                powers = tables[top] = {e: (1 << e) - (1 << top - e) for e in range(1, top)}
            try:
                num2 = _numerator_at2(top, banks, powers)
            except KeyError:
                w = FAMILIES[fam](*fields)
                raise InternalError(f"{w}: numerator is not 1 + ... - t^{top}") from None
            slices.setdefault(top, []).append((fields, num2))
        if lo <= covered:
            self.covered[fam] = hi
        else:
            slices.setdefault(hi, [])
        return slices

    def lookup(self, n_target, formal=False):
        """(weights, Hilbert series, (family, *field values)) for each bounded model whose
        numerator num can equal n_target or, with ``formal``, divide it, in no
        particular order.

        A match means n_target = num * q with q = 1 or, with ``formal``, q a
        product of 1 to SECTION_FACTORS factors (1 - t^k), k >= 1
        (``_strip_section_factors`` accepts no more).  Both are integer
        polynomials, so any other target reaches no model, and num(2) divides
        n_target(2).  num vanishes at t = 1 to order exactly its family's
        ``codim`` (Hilbert-Serre: the pole order of the series is the Krull
        dimension of the cone), and each (1 - t^k) to order exactly 1.  So if
        n_target vanishes there to order r, q has m = r - codim factors.  m = 0
        leaves q = 1, since a product of (1 - t^k) with no zero at 1 is 1: only
        the slice of T, the top exponent of n_target, can hold num.  With
        ``formal``, 1 <= m <= SECTION_FACTORS leaves the slices up to T - m, as
        each factor raises the top by at least 1.  Any other m leaves no model,
        and the family is not enumerated.  r is the least j <= most with sum c_e
        e^j != 0 over the terms c_e t^e: the order is the least j with a nonzero
        n_target^(j)(1) = sum c_e e(e-1)...(e-j+1), and powers and falling
        factorials of e span the same polynomials, triangularly.  The index
        holds each model's field values and num(2) from when the slice was
        enumerated, and builds its weights and series at its first hit.
        """
        at2 = _target_at2(n_target)
        if at2 is None:
            return
        top, r = n_target.max_exp(), 0
        most = SECTION_FACTORS + max(FAMILIES[fam].codim for fam in self.families)
        exps, moments = list(n_target.coeffs), list(n_target.coeffs.values())
        while r <= most and not sum(moments):
            moments = [c * e for c, e in zip(moments, exps)]
            r += 1
        for fam in self.families:
            m = r - FAMILIES[fam].codim
            if m == 0:
                models = self.reach(fam, top - 1, top).get(top, ())
            elif formal and 0 < m <= SECTION_FACTORS:
                models = itertools.chain.from_iterable(
                    s for t, s in self.reach(fam, 0, top - m).items() if t <= top - m)
            else:
                continue
            for fields, num2 in models:
                if at2 % num2 == 0:
                    hit = self.hits.get((fam, fields))
                    if hit is None:
                        w = FAMILIES[fam](*fields)
                        hit = self.hits[fam, fields] = w, w.hilbert_series(), (fam, *fields)
                    yield hit


_model_index = lru_cache(maxsize=8)(_ModelIndex)    # one per family and bounds


def _strip_section_factors(quotient):
    """Write a polynomial as prod (1 - t^k), at most SECTION_FACTORS factors, or return None."""
    factors, q = [], quotient
    while q != LaurentPoly.one():
        if q.is_zero() or q.min_exp() != 0 or q[0] != 1:
            return None
        factors.append(min(e for e in q.coeffs if e > 0))    # q is not 1, so one exists
        q = q.divexact(one_minus(factors[-1]))
        if q is None or len(factors) > SECTION_FACTORS:
            return None
    return tuple(sorted(factors))


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
    keyed by table entry, cone and sections, with their quasilinear
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
    accepted candidates of one scan with no section left over, one per orbit
    of its family's symmetry as its table entry, sorted by family, then the
    field values of the returned weights, then the cone."""
    gens, hint = query.generator_degrees, ""
    if query.target.denominator:
        if gens is None:
            gens = _force_residues(_force_divisibility(
                infer_generators(query.target), query.basket), query.basket)
            hint = "; give generator_degrees= or use match_pipeline, which tries one more degree"
        try:
            n_target = query.target.hilbert_numerator(gens)
        except SeriesError as exc:
            raise SeriesError(f"{exc} with generator degrees {fmt_multiset(gens)}{hint}") from None
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
    gen_sets += [(f"user[{k}]", positive_degrees(gens)) for k, gens in enumerate(user_generators)]

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
