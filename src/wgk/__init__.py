"""Exact-arithmetic toolkit for weighted Grassmannian ambient spaces.

Models the two codimension-3 and codimension-5 Gorenstein families cut out by
Pfaffians (in the 10 Pluecker coordinates) and by the ten spinor quadrics (in
the 16 spinor coordinates): weights, equations and syzygies, Hilbert series,
degrees, canonical classes, orbifold charts, quasilinear sections, orbifold
Riemann-Roch plurigenus series, and a search engine matching target Hilbert
data to ambient models.
"""

from .matcher import MatchQuery, infer_generators, match_pipeline, search, singularity_filter
from .orbifold_rr import (CY3Data, Canonical3Data, PeriodicTable, hilbert_can3,
                          hilbert_cy3, plurigenus_can3, plurigenus_cy3)
from .sections import (AmbientModel, QuotientSingularity, SectionSpec,
                       ambient_series, invariants,
                       quasilinear_embed, rr_roundtrip, section_canonical,
                       section_series, singularity_analysis)
from .series import HilbertSeries, LaurentPoly, binom3
from .wgrass25 import (Chart, GrNumerology, GrWeights, fit_pfaffian_weights,
                       pfaffian_equations, verify_gr_identities)
from .wogr510 import (OGrWeights, equations,
                      first_syzygies, membership, parametrize, spinor_graph,
                      verify_ogr_syzygies, verify_parametrization,
                      wd5_elements)

__all__ = [
    "AmbientModel", "CY3Data", "Canonical3Data", "Chart", "GrNumerology",
    "GrWeights", "HilbertSeries", "LaurentPoly", "MatchQuery", "OGrWeights",
    "PeriodicTable", "QuotientSingularity", "SectionSpec",
    "ambient_series",
    "binom3", "equations", "first_syzygies",
    "fit_pfaffian_weights", "hilbert_can3",
    "hilbert_cy3", "infer_generators", "invariants", "match_pipeline", "membership",
    "parametrize", "pfaffian_equations", "plurigenus_can3", "plurigenus_cy3",
    "quasilinear_embed", "rr_roundtrip", "search", "section_canonical",
    "section_series", "singularity_analysis", "singularity_filter",
    "spinor_graph", "verify_gr_identities", "verify_ogr_syzygies",
    "verify_parametrization", "wd5_elements",
]

__version__ = "0.1.0"
