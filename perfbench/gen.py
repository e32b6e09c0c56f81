"""Seeded query stream for the match-batch workload.

The stream is a pure function of the seed and never imports wgk, so a change
to wgk's own enumeration order cannot change what the benchmark asks.  Models
are written in the ``AmbientModel`` JSON form (doubled weights ``w2`` and
doubled overall weight ``u2``).

Which models are asked is fixed: a sample of MODELS_PER_FAMILY members of
each family's in-bounds domain, drawn with the constant SUBSET_SEED.
Per-model query cost varies about tenfold (0.2 s to 3.5 s at default
bounds), so a subset drawn from the run's seed would make runs with
different seeds measure different amounts of work.  The seed decides the
order of the models and the raw weight tuple each one is written as: the
Pluecker weights shifted by a random overall weight and permuted, the spinor
weights sign-flipped on a random even subset (with the overall weight
adjusted so the model is unchanged) and permuted.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

MAX_W2 = 8              # wgk.matcher.DEFAULT_MAX_W2
MAX_U = 4               # wgk.matcher.DEFAULT_MAX_U
MODELS_PER_FAMILY = 6
SUBSET_SEED = 20020611
EVEN_SUBSETS = [s for k in (0, 2, 4) for s in itertools.combinations(range(5), k)]


def gr_domain():
    """Normalised doubled Pluecker weights within bounds: one parity, the
    two smallest summing to a positive number."""
    out = []
    for parity in (0, 1):
        lo = -MAX_W2 + ((-MAX_W2 - parity) % 2)
        for tup in itertools.combinations_with_replacement(range(lo, MAX_W2 + 1, 2), 5):
            if tup[0] + tup[1] > 0:
                out.append((tup, 0))
    return out


def spinor_weights(w2, u):
    """The sixteen coordinate weights u + (sum of w over an even subset)."""
    return [(2 * u + sum(w2[i] for i in s)) // 2 for s in EVEN_SUBSETS]


def ogr_domain():
    """Spinor weight data within bounds with every coordinate weight >= 1."""
    out = []
    for parity in (0, 1):
        for tup in itertools.combinations_with_replacement(range(parity, MAX_W2 + 1, 2), 5):
            variants = [tup]
            if all(v > 0 for v in tup):
                variants.append((-tup[0],) + tup[1:])
            for w2 in variants:
                for u in range(1, MAX_U + 1):
                    if min(spinor_weights(w2, u)) >= 1:
                        out.append((w2, 2 * u))
    return out


def _subset(domain):
    return random.Random(SUBSET_SEED).sample(domain, MODELS_PER_FAMILY)


def _raw_gr(rng, w2):
    shift = rng.randint(-2, 2)
    raw = [v - shift for v in w2]
    rng.shuffle(raw)
    return {"family": "wgr25", "w2": raw, "u2": 2 * shift}


def _raw_ogr(rng, w2, u2):
    flips = rng.choice(EVEN_SUBSETS)
    raw = [-v if i in flips else v for i, v in enumerate(w2)]
    rng.shuffle(raw)
    return {"family": "wogr510", "w2": raw, "u2": u2 + sum(w2[i] for i in flips)}


def queries(seed):
    """The model list for one seed; each model yields a search and a pipeline query."""
    rng = random.Random(seed)
    models = [_raw_gr(rng, w2) for w2, _ in _subset(gr_domain())]
    models += [_raw_ogr(rng, w2, u2) for w2, u2 in _subset(ogr_domain())]
    rng.shuffle(models)
    return models


def digest(models):
    return hashlib.sha256(json.dumps(models, sort_keys=True).encode()).hexdigest()[:16]
