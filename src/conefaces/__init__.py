"""Exact-arithmetic dimensions of exposed faces of the nonnegative and
sums-of-squares cones, via degree components of vanishing ideals of
projective point configurations."""

from .rational import Rat, rat, rat_str
from .exact_linalg import (
    Matrix,
    Subspace,
    nullspace,
    rank,
    span,
)
from .polynomials import (
    Form,
    ProjectivePoint,
    evaluate,
    gradient_eval,
    hessian_eval,
    linear_form,
    monomial_basis,
    multiply,
    space_dim,
)
from .ideal_components import (
    FaceReport,
    PointConfiguration,
    alpha,
    face_report,
    ordinary_square_dim,
    symbolic_square_dim,
    vanishing_component,
    vanishing_dim,
)
from .independence import (
    IndependenceReport,
    condition2_holds,
    hilbert_function,
    independence_verdict,
    is_d_independent,
    is_general_linear_position,
)
from .constructions import (
    EXAMPLE_SIX_POINTS,
    SEVEN_POINTS_PERTURBED,
    SEVEN_POINTS_UNPERTURBED,
    GenericityError,
    SevenPointScheme,
    SixPointScheme,
    seven_point_scheme,
    six_point_scheme,
    snd_basis,
    snd_points,
)
from .certificates import (
    Certificate,
    build_certificate,
    check_double_vanishing,
    numeric_min_on_sphere,
    roundness_at,
)
from .gap_analysis import (
    GapProfile,
    ah_count,
    gap_profile,
    max_gap,
    min_k_positive,
    naive_gap,
    ternary_prediction,
)
from .sampling import random_configuration

__all__ = [name for name in dir() if not name.startswith("_")]
