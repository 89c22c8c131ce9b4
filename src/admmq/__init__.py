"""Minimization of smooth functions over Cartesian-product discrete sets.

The package bundles the ADMM-type solver family (exact, inexact, masked,
soft-projection) with projected-gradient baselines, a rho-stationarity
checker, brute-force oracles, and a seeded benchmark harness for random
quadratic-lattice instances.
"""

from .analysis import (
    StationarityReport,
    brute_force_minimize,
    check_decrease_condition,
    check_iadmm_condition,
    enumerate_stationary_points,
    is_rho_stationary,
)
from .experiments import (
    GeneratedInstance,
    InstanceSpec,
    ProtocolSpec,
    SweepResult,
    generate_instance,
    pairwise_histogram,
    run_protocol,
)
from .objectives import (
    LogisticObjective,
    QuadraticObjective,
    SmoothObjective,
    synthetic_logistic,
)
from .sets import (
    Binary,
    DiscreteProductSet,
    ExplicitGrid,
    ScaledLattice,
    binary_set,
    uniform_lattice,
)
from .solvers import (
    METHODS,
    DivergenceError,
    InnerSolverConfig,
    InnerSolverError,
    IterateState,
    RunResult,
    RunTrace,
    SolverConfig,
    SolverError,
    admm_q_step,
    admm_r_step,
    admm_s_step,
    augmented_lagrangian,
    gd_then_project,
    iadmm_q_step,
    initial_state,
    pgd_step,
    run,
)

__version__ = "0.1.0"
