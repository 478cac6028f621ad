"""Solver and verification suite for congestion mean-field games on the torus.

The package couples a backward value-function equation with a forward density
transport equation, solves the pair by homotopy continuation from an explicit
endpoint with exact-Jacobian Newton corrections, cross-validates the inner
linear solves with one direct solve of their Fourier-Galerkin projection, and
re-checks every accepted solution against the a priori bounds the theory
guarantees.
"""

from .continuation import (
    ContinuationState,
    HorizonError,
    NewtonFailure,
    SolverConfig,
    newton_correct,
    solve_path,
    trivial_solution,
)
from .estimates import EstimateReport, run_all_checks
from .galerkin import (
    FourierBasis,
    assemble_galerkin_system,
    shooting_spectrum,
    solve_linearized_galerkin,
)
from .grids import PeriodicGrid, SpaceTimeField, TimeGrid, integrate
from .hamiltonians import (
    HamiltonianModel,
    LagrangianModel,
    duality_table,
    legendre_transform,
)
from .linearized import (
    Perturbation,
    apply_L,
    solve_linearized,
)
from .montecarlo import SDEConfig, l1_distance, simulate_density
from .system import (
    LambdaData,
    MFGProblem,
    Potential,
    ResidualBundle,
    SolutionPair,
    residual_full,
)

__version__ = "0.1.0"
