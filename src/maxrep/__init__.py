"""Maximal surface-group representations into Sp(2n, R).

Length-matrix coordinates for representations of the three-holed sphere
group, Maslov indices of boundary triples, gluing with twist parameters,
connected-component signatures, deformation retractions onto standard
representatives, and limit-set sampling.
"""

from .errors import (
    CannotGlue,
    DefectiveSplit,
    GraphInvalid,
    IllConditioned,
    MathematicalRefusal,
    MaxRepError,
    NearSingular,
    NoCanonicalFixedPoint,
    NotCompatible,
    NotContracting,
    NotFixed,
    NotInvertible,
    NotMaximal,
    NotSHyperbolic,
    NotSymplectic,
    NotTransverse,
    NotValid,
    NumericalBreakdown,
    ResonantSpectrum,
    Singular,
)
from .matcore import (
    DEFAULT_TOL,
    CircleClass,
    Tolerance,
    circle_class,
    factor_signature,
    norm_inf,
    similarity_witness,
    spectral_radius,
    stein_solve,
)
from .symplectic import (
    INFINITY,
    BoundaryPoint,
    SpMat,
    cycle_symplectic,
    diag_symplectic,
    finite_point,
    identity_point,
    make_symplectic,
    moebius_act,
    sp_identity,
    sp_inverse,
    swap_symplectic,
    translation_symplectic,
    transversality_margin,
    transverse,
    zero_point,
)
from .maslov import (
    Triple,
    indefinite_identity,
    is_maximal,
    maslov,
    normalize_maximal_triple,
    normalize_pair,
)
from .normalform import (
    DifferentialClass,
    DifferentialMap,
    FixedPointReport,
    IsometryClass,
    IsometryReport,
    StandardBoundary,
    attracting_point,
    canonical_fixed_point,
    canonical_point_of_element,
    classify_isometry,
    differential_at,
    fixed_point_contracting_side,
    fixed_point_expanding_side,
    fixed_point_residual,
    standard_element,
)
from .pants import (
    EquivalenceResult,
    GeneralPantsParams,
    PantsParams,
    PantsRep,
    ParamClass,
    build_general,
    build_maximal,
    classify_params,
    fingerprint,
    fingerprint_distance,
    pants_product,
    params_equivalent,
    recover_params,
    toledo,
    toledo_signature_shortcut,
)
from .gluing import (
    GlueCheck,
    GlueStatus,
    GluingGraph,
    GraphBoundary,
    GraphEdge,
    PantsNode,
    SurfaceRep,
    build_from_graph,
    can_glue,
    close_handle,
    close_pair,
    component_signature,
    glue_reps,
    pants_surface_rep,
    standard_lower,
    standard_upper,
    twist_element,
)
from .deform import (
    DeformationPath,
    deform_to_standard,
    enumerate_standard_graphs,
    standard_length,
    standard_sign_graph,
    standard_twist,
)
from .limits import LimitSample, limit_set_sample, reduced_words

__version__ = "0.1.0"
