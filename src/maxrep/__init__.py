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
    Tolerance,
    norm_inf,
    similarity_witness,
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
    transverse,
    zero_point,
)
from .maslov import (
    Triple,
    indefinite_identity,
    maslov,
    normalize_maximal_triple,
    normalize_pair,
)
from .normalform import (
    DifferentialMap,
    StandardBoundary,
    attracting_point,
    canonical_point_of_element,
    differential_at,
    fixed_point_expanding_side,
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
    component_signature,
    glue_graphs,
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
from .limits import LimitSample, limit_set_sample

__version__ = "0.1.0"
