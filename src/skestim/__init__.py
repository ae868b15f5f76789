"""Langevin simulation, small-mass limit coupling, and least-squares drift
estimation from discretely observed positions."""

from .core import (
    ConfigError,
    DivergenceError,
    DriftModel,
    G_EFF,
    IdentifiabilityError,
    MODELS,
    NoisePath,
    ObservationGrid,
    SystemParams,
    Trajectory,
    colloidal_model,
    make_noise_path,
    ou_model,
    zero_drift_model,
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
    SweepResult,
    SweepRow,
    run_consistency_sweep,
    run_figure1,
    run_gamma_diagnostic,
)
from .simulate import (
    CoupledRunResult,
    Scheme,
    simulate_coupled,
    simulate_overdamped,
    simulate_underdamped,
)

__version__ = "0.1.0"
