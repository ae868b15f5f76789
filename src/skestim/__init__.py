"""Langevin simulation, small-mass limit coupling, and least-squares drift
estimation from discretely observed positions."""

from .core import (
    ConfigError,
    DivergenceError,
    DriftModel,
    G_EFF,
    IdentifiabilityError,
    MODELS,
    ObservationGrid,
    SystemParams,
    Trajectory,
)
from .estimate import (
    EstimationResult,
    ParameterSpace,
    minimize_closed_form,
    minimize_golden,
    objective,
    objective_curve,
    uniform_objective_gap,
)
from .experiments import (
    SweepConfig,
    SweepRow,
    run_consistency_sweep,
    run_figure1,
    run_gamma_diagnostic,
)
from .simulate import (
    Scheme,
    simulate_overdamped,
    simulate_underdamped,
)

__version__ = "0.1.0"
