"""Floquet multipliers of periodic delay equations by piecewise collocation.

The package approximates the monodromy operator of linear time-periodic
delay equations (differential, renewal, and coupled) on collocation grids
built from the adapted mesh of a computed periodic solution, and extracts
the Floquet multipliers from the resulting matrix. A piecewise-collocation
solver for the periodic solutions themselves is included, along with the
benchmark problems used by the test and acceptance suites.
"""

from .mesh import (
    CHEBYSHEV,
    UNIFORM,
    CollocationGrid,
    GridSide,
    Mesh,
    NodeFamily,
    build_forward_grid,
    build_grid,
    build_history_grid,
    chebyshev_family,
    mesh_ratio,
    read_mesh,
    reference_nodes,
    refine_mesh,
    write_mesh,
)
from .interp import (
    BaryTable,
    NodalFunction,
    bary_table,
    breakpoint_weights,
    integral_weights,
    restrict,
)
from .model import (
    Builtin,
    DiscreteTerm,
    DistributedTerm,
    ExactSolution,
    LinearPeriodicEquation,
    NonlinearProblem,
    PiecewiseSolution,
    builtin,
    coupled_view_of_plant,
    data_path,
    integrate_orbit_guess,
    linearize,
    plant_v0,
    read_solution,
    sample_solution,
    write_solution,
)
from .bvp import (
    BvpProblem,
    BvpResult,
    ConvergenceError,
    SingularJacobianError,
    residual,
    solve_periodic,
)
from .monodromy import (
    CoarseDiscretizationError,
    MissingBreakpointsError,
    MonodromyDiscretization,
    MultiplierSet,
    assemble,
    eigenfunction,
    multipliers,
)

__version__ = "0.1.0"
