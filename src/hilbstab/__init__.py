"""Exact-arithmetic admissibility certificates for Mukai vectors on a
Picard-rank-1 K3 surface and for the induced bundles on its Hilbert
schemes of points."""

from .conditions import (
    AdmissibilityReport,
    InconsistentCertificate,
    admissibility_report,
    check_fineness,
    check_inequality,
    check_local_freeness,
    check_nonempty,
    extension_euler_direct,
    extension_euler_formula,
    vanishing_certificate,
)
from .certificate import Certificate, build_certificate
from .hilb import (
    DestabilizerCase,
    HilbNSClass,
    NegativeRank,
    ProductClass,
    destabilizer_case,
    image_c1,
    image_rank,
    product_c1,
    product_selfintersection,
    slope_on_product,
    taut_c1,
    taut_rank,
)
from .lattice import (
    HypothesisNotMet,
    K3Surface,
    MukaiVector,
    dual_vector,
    euler_char,
    euler_pair,
    ideal_sheaf_vector,
    mukai_pairing,
    mukai_square,
    slope_on_X,
    twisted_chi,
)
from .pfunctor import (
    GradedDims,
    NegativeExt,
    TangentMatch,
    ext_dims_on_hilb,
    ext_dims_on_X,
    graded_tensor,
    moduli_dim,
    projective_space_cohomology,
    tangent_match,
)
from .search import (
    InvalidQuery,
    SearchQuery,
    enumerate_hits,
    iter_hits,
    search_bounds,
)

__version__ = "0.1.0"

# The exports are the classes, exceptions and functions imported above; the
# submodules bound as attributes by those imports are not among them.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith(f"{__name__}.")
)
