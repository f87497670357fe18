"""Carleman-weighted convexification solver for ill-posed Cauchy problems.

Reconstructs solutions of quasilinear elliptic, parabolic, and hyperbolic
PDEs from Cauchy data on part of the boundary by minimizing an exponentially
weighted Tikhonov functional that is strictly convex on a prescribed ball
once the weight strength is large enough. Ships a machine-checkable
convexity certificate and a globally convergent Sobolev-gradient descent.
"""

from .catalog import CASES
from .errors import (
    ConfigError,
    ConstraintViolationError,
    ConvexCauchyError,
    GeometryError,
    SolverError,
    WeightOverflowError,
)
from .functional import (
    CauchyData,
    FunctionalParams,
    beta_window,
    bregman_gap,
    carleman_ratio,
    data_extension,
    evaluate,
    gradient,
)
from .grid import (
    DomainMask,
    Field,
    Grid,
    Label,
    LevelSpec,
    build_grid,
    classify_nodes,
    level_value,
    level_values,
)
from .harness import add_noise, build_setup, emit_report, load_problem
from .operators import LinearizedOperator, LowerOrderTerm, OperatorStencil, QuasilinearOperator
from .optimizer import (
    CertificateReport,
    OptimizerConfig,
    RunReport,
    convergence_ratio,
    convexity_certificate,
    direct_solve,
    run,
)
from .sobolev import SobolevSpace, sobolev_order
from .weights import WeightSpec, shifted_weight_sq, weight_extrema

__version__ = "0.1.0"
