"""Exact-arithmetic toolkit for weighted Grassmannian ambient spaces.

Models the two codimension-3 and codimension-5 Gorenstein families cut out by
Pfaffians (in the 10 Pluecker coordinates) and by the ten spinor quadrics (in
the 16 spinor coordinates): weights, equations and syzygies, Hilbert series,
degrees, canonical classes, orbifold charts, quasilinear sections, orbifold
Riemann-Roch plurigenus series, and a search engine matching target Hilbert
data to ambient models.  Each name below loads its module on first use.
"""

from importlib import import_module

_EXPORTS = {
    "matcher": ("MatchQuery", "infer_generators", "match_pipeline", "search",
                "singularity_filter"),
    "orbifold_rr": ("PeriodicTable", "RRData", "hilbert_can3", "hilbert_cy3",
                    "hilbert_series", "local_term", "plurigenus"),
    "sections": ("AmbientModel", "QuotientSingularity", "ambient_series", "quasilinear_embed",
                 "rr_roundtrip", "section_canonical", "section_series", "singularity_analysis"),
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
