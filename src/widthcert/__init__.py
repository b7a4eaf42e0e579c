"""widthcert: exact-arithmetic certification that a hollow tetrahedron of
lattice width 2 + sqrt2 is a strict local width maximizer, with an explicit
certified neighborhood, plus certified global bounds on any maximizer."""

from .exactnum import (
    AlgExpr,
    QSqrt2,
    RatInterval,
    SQRT2,
    UndecidedComparison,
    alg,
    cbrt,
    certify_less,
    interval_eval,
    sqrt,
)
from .mvpoly import (
    MvPoly,
    UniPoly,
    cauchy_companion,
    companion_root_enclosure,
)
from .exactlinalg import (
    PolyMatrix,
    QMatrix,
    adjugate_poly,
    det_field,
    det_poly,
    inverse_field,
    is_negative_definite,
    kernel_basis,
    restrict_quadratic_form,
)
from .widthlab import (
    AffineLattice,
    Functional,
    Polytope,
    WidthResult,
    dual_lattice,
    facet_hyperplanes,
    hollow_check,
    lattice_width,
    width_in_direction,
)
from .deltacert import (
    CertificateReport,
    DeltaModel,
    build_delta_model,
    certify,
    local_maximality_certificate,
)
from .globalbounds import BoundReport, all_reports, replay_inequality_chain

__version__ = "0.1.0"

__all__ = [
    "AffineLattice",
    "AlgExpr",
    "BoundReport",
    "CertificateReport",
    "DeltaModel",
    "Functional",
    "MvPoly",
    "PolyMatrix",
    "Polytope",
    "QMatrix",
    "QSqrt2",
    "RatInterval",
    "SQRT2",
    "UndecidedComparison",
    "UniPoly",
    "WidthResult",
    "adjugate_poly",
    "alg",
    "all_reports",
    "build_delta_model",
    "cauchy_companion",
    "cbrt",
    "certify",
    "certify_less",
    "companion_root_enclosure",
    "det_field",
    "det_poly",
    "dual_lattice",
    "facet_hyperplanes",
    "hollow_check",
    "interval_eval",
    "inverse_field",
    "is_negative_definite",
    "kernel_basis",
    "lattice_width",
    "local_maximality_certificate",
    "replay_inequality_chain",
    "restrict_quadratic_form",
    "sqrt",
    "width_in_direction",
]
