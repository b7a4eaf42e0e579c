"""widthcert: exact-arithmetic certification that a hollow tetrahedron of
lattice width 2 + sqrt2 is a strict local width maximizer, with an explicit
certified neighborhood, plus certified global bounds on any maximizer.

Start-up rule.  Every CLI call is a fresh process that imports the package,
often without a bytecode cache, so the import is part of each call's cost:

* records are `typing.NamedTuple` classes, or `__slots__` classes such as
  `QSqrt2`; none uses the standard library's record decorator, whose module
  pulls in `inspect` and which compiles each record's methods with `exec`;
* numpy loads with `fastdet`, on the first determinant;
* `json` loads only for `--format json` output.

Measured on one CPU of a 2-core Xeon VM with Python 3.11.7 (median of 7
fresh processes, 5 alternations): `import widthcert.cli` without a bytecode
cache takes about 75 ms, and decorated records with an up-front json import
would add about 35 ms to it.
"""

import os

# One OpenBLAS thread: the determinant's small float64 products gain nothing
# from a second, which stalls while another process keeps its core busy.
# OpenBLAS reads this when numpy loads, so it holds only if widthcert is
# imported before numpy; a value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
