"""Exact-arithmetic toolkit for weighted Grassmannian ambient spaces.

Models the two codimension-3 and codimension-5 Gorenstein families cut out by
Pfaffians (in the 10 Pluecker coordinates) and by the ten spinor quadrics (in
the 16 spinor coordinates): weights, equations and syzygies, Hilbert series,
degrees, canonical classes, orbifold charts, quasilinear sections, orbifold
Riemann-Roch plurigenus series, and a search engine matching target Hilbert
data to ambient models.  Each name below loads its module on first use.
"""

import sys
from importlib import import_module, util

_EXPORTS = {
    "matcher": ("MatchQuery", "infer_generators", "match_pipeline", "search"),
    "orbifold_rr": ("PeriodicTable", "RRData", "hilbert_can3", "hilbert_cy3",
                    "hilbert_series", "local_term", "plurigenus"),
    "sections": ("AmbientModel", "QuotientSingularity", "ambient_series", "quasilinear_embed",
                 "rr_roundtrip", "section_canonical", "section_series", "singularity_analysis",
                 "singularity_filter"),
    "series": ("HilbertSeries", "LaurentPoly"),
    "wgrass25": ("Chart", "GrWeights", "fit_pfaffian_weights",
                 "pfaffian_equations", "verify_gr_identities"),
    "wogr510": ("OGrWeights", "equations", "first_syzygies", "verify_ogr_syzygies"),
    "spinor": ("membership", "parametrize", "spinor_graph", "verify_parametrization",
               "wd5_elements"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _OWNER:
        return getattr(import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def lazy_module(name):
    """The module ``name``, bound in ``sys.modules`` and on its package at once
    but compiled and run only at its first attribute access: a command that
    never reads it never pays for it.  Callers read it as ``module.attr`` in a
    function body: an attribute read, like ``from module import name``, loads it."""
    module = sys.modules.get(name)
    if module is None:
        spec = util.find_spec(name)
        spec.loader = util.LazyLoader(spec.loader)
        module = sys.modules[name] = util.module_from_spec(spec)
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        setattr(sys.modules[package], child, module)
    return module
