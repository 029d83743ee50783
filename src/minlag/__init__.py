"""Numerical tools for minimal Lagrangian surface immersions in CH^2.

Solves the structure equation Delta u + 2 - 2 e^u - 16 t^2 ||q||^2 e^{-2u} = 0
on discrete conformal surfaces, traces the stable solution branch to its fold,
computes mountain-pass second solutions, reconstructs SU(2,1) frames, and
verifies the Weil-Petersson potential identities of the induced-area
functional.
"""

from .surface import (
    DiscreteSurface,
    LaplaceOperator,
    MeshError,
    build_flat_torus,
    build_genus2_octagon,
    integrate,
    laplacian,
)
from .cubic import CubicDifferential, constant_cubic, norm_field, synthetic_cubic, wp_pairing
from .pde import (
    EigenFailure,
    LinearizedOperator,
    NonConvergence,
    SingularJacobian,
    SolutionPoint,
    legendre_pair,
    linearize,
    newton_solve,
    residual,
    smallest_eigenvalue,
)
from .continuation import (
    NoFoldDetected,
    SolutionCurve,
    StallBeforeFold,
    ZeroCubic,
    detect_fold,
    nonexistence_bound,
    trace_curve,
)
from .mpass import (
    CutoffPair,
    DegenerateNorm,
    PathCollapse,
    VerificationFailure,
    build_cutoffs,
    find_mountain_pass,
    functional_gradient,
    functional_value,
    v_norm,
)
from .frame import (
    FrameSheet,
    StepTooLarge,
    flatness_defect,
    integrate_frame,
    maurer_cartan,
    s_from_u,
    second_fundamental_form,
    su21_defect,
)
from .wp import area_record, d_operator, udotdot

__version__ = "0.1.0"
