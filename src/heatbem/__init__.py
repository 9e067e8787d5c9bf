"""Space-time boundary element method for the 1D heat equation.

Galerkin discretization of the first-kind single layer equation with
piecewise constant basis functions on the lateral boundary {a, b} x (0, T),
an opposite-order (hypersingular) operator preconditioner, GMRES, and the
convergence/conditioning study drivers.
"""

from .analysis import StudyRecord, condition_number, ellipticity_margin, eoc, l2_error
from .galerkin import (
    DiscreteFlux,
    OperatorMatrices,
    Problem,
    assemble_all,
    assemble_D,
    assemble_K,
    assemble_mass,
    assemble_rhs,
    assemble_V,
    evaluate_interior,
    mass_weighted_norm,
    second_bie_residual,
)
from .kernels import (
    QuadratureError,
    adaptive_quadrature,
    erfc,
    heat_kernel,
    kernel_dt,
    kernel_dx,
    primitive_I0,
    primitive_I1,
    primitive_J0,
    primitive_J1,
)
from .krylov import NumericalError, Preconditioner, SolveReport, direct_solve, gmres
from .mesh import (
    BoundaryMesh,
    Side,
    quasi_uniformity_constant,
    refine_adaptive,
    refine_uniform,
    uniform_mesh,
)
from .reference import (
    SineSeries,
    example1_initial_datum,
    example1_series,
    example2_initial_datum,
    example2_series,
    expand,
)
from .studies import (
    ConfigError,
    ExperimentConfig,
    run_adaptive_study,
    run_single_solve,
    run_uniform_study,
    two_level_indicator,
)

__version__ = "0.1.0"
