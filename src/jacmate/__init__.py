"""Certify that a plane polynomial has no real Jacobian mate.

The core test is combinatorial and exact: a right outer edge of the
Newton polygon running from (0, 1) to a point (a, b) with b > 1 and no
interior lattice points rules out any polynomial q for which the map
(p, q) has an everywhere positive Jacobian determinant.  Around that
sit numeric instruments: branch tracing at infinity, tongue-region
verification, and a falsifier that hunts Jacobian zeros for concrete
candidate mates.
"""

from .poly import (
    ALL_TRANSFORMS,
    BivariatePolynomial,
    IDENTITY,
    NEGATE_X,
    NEGATE_XY,
    NEGATE_Y,
    ParseError,
    SWAP,
    Transform,
    apply_transform,
    compose_transforms,
    jacobian,
    parse_polynomial,
)
from .polygon import (
    CriterionCertificate,
    NewtonPolygon,
    OuterEdge,
    corollary_certificate,
    face_polynomial,
    lattice_point_count,
    newton_polygon,
    outer_edges,
    right_outer_edges,
)
from .branches import (
    BranchAsymptote,
    BranchTrace,
    TraceConfig,
    branch_candidates,
    fitted_exponent,
    lowest_positive_branch,
    trace_branch,
)
from .tongue import (
    GridSpec,
    LevelSetReport,
    RestrictionProfile,
    TongueCertificate,
    TongueRegion,
    build_tongue,
    check_level_sets,
    check_no_critical_points,
    restriction_profile,
    tongue_certificate,
)
from .falsifier import (
    MinRecord,
    SearchConfig,
    TrialReport,
    ZeroWitness,
    find_jacobian_zero,
    random_trials,
)
from .certificate import (
    CERTIFICATE_SCHEMA,
    CertificateDocument,
    build_certificate,
    emit_certificate_json,
)
from .render import render_polygon_svg, render_tongue_svg

__version__ = "0.1.0"

__all__ = [
    "ALL_TRANSFORMS",
    "BivariatePolynomial",
    "BranchAsymptote",
    "BranchTrace",
    "CERTIFICATE_SCHEMA",
    "CertificateDocument",
    "CriterionCertificate",
    "GridSpec",
    "IDENTITY",
    "LevelSetReport",
    "MinRecord",
    "NEGATE_X",
    "NEGATE_XY",
    "NEGATE_Y",
    "NewtonPolygon",
    "OuterEdge",
    "ParseError",
    "RestrictionProfile",
    "SWAP",
    "SearchConfig",
    "TongueCertificate",
    "TongueRegion",
    "TraceConfig",
    "Transform",
    "TrialReport",
    "ZeroWitness",
    "apply_transform",
    "branch_candidates",
    "build_certificate",
    "build_tongue",
    "check_level_sets",
    "check_no_critical_points",
    "compose_transforms",
    "corollary_certificate",
    "emit_certificate_json",
    "face_polynomial",
    "find_jacobian_zero",
    "fitted_exponent",
    "jacobian",
    "lattice_point_count",
    "lowest_positive_branch",
    "newton_polygon",
    "outer_edges",
    "parse_polynomial",
    "random_trials",
    "render_polygon_svg",
    "render_tongue_svg",
    "restriction_profile",
    "right_outer_edges",
    "tongue_certificate",
    "trace_branch",
    "__version__",
]
