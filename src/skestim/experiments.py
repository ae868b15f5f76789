"""Experiment drivers: the colloidal end-to-end reproduction, the (mu, n)
consistency sweep, and the small-mass convergence diagnostics.

Every cell of a sweep derives its noise stream deterministically from
(base_seed, mu index, n index, replicate), so results are reproducible
independent of execution order.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .core import (DriftModel, MODELS, ObservationGrid, SystemParams,
                   Trajectory, make_noise_path)
from .estimate import (EstimationResult, ParameterSpace, minimize_closed_form,
                       minimize_golden, objective_curve, uniform_objective_gap)
from .simulate import Scheme, simulate_coupled, simulate_underdamped

# Figure defaults for the colloidal reproduction: gamma = 1/6, sigma = 10,
# theta0 = 0.02, mu = 0.001, n = 1e5 observations. The observation spacing is
# not pinned down by the source experiment; dt = 0.01 s with 10 substeps is
# the documented default and is a knob on run_figure1.
FIGURE1_GAMMA = 1.0 / 6.0
FIGURE1_SIGMA = 10.0
FIGURE1_MU = 1e-3
FIGURE1_THETA = 0.02
FIGURE1_N = 100_000
FIGURE1_DT = 0.01
FIGURE1_SUBSTEPS = 10
FIGURE1_SPACE = ParameterSpace(0.0, 0.1)

# _stream_id packs the n index and the replicate into 20 bits each.
_STREAM_FIELD = 2 ** 20


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of a (mu, n) consistency sweep."""

    mu_values: Sequence[float]
    n_values: Sequence[int]
    delta: float                 # horizon constant, T = delta * sqrt(n)
    replicates: int
    base_seed: int
    model_id: str                # key into core.MODELS
    theta_true: float
    space: ParameterSpace
    gamma: float = 1.0
    sigma: float = 1.0
    x0: float = 1.0
    v0: float = 0.0
    substeps: int = 4

    def __post_init__(self):
        if not self.mu_values or any(mu <= 0 for mu in self.mu_values):
            raise ValueError("mu_values must be positive")
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ValueError("n_values must all be >= 2")
        if not 1 <= self.replicates <= _STREAM_FIELD:
            raise ValueError(f"replicates must be in [1, {_STREAM_FIELD}]")
        if len(self.n_values) > _STREAM_FIELD:
            raise ValueError(f"at most {_STREAM_FIELD} n_values are allowed")
        if self.delta <= 0:
            raise ValueError("delta must be > 0")
        if self.model_id not in MODELS:
            raise ValueError(f"unknown model {self.model_id!r}; "
                             f"known: {sorted(MODELS)}")


@dataclass(frozen=True)
class SweepRow:
    mu: float
    n: int
    replicate: int
    theta_hat: float
    abs_error: float
    sup_distance: Optional[float] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepResult:
    rows: List[SweepRow] = field(default_factory=list)


def _stream_id(i_mu: int, i_n: int, replicate: int) -> int:
    return (i_mu << 40) | (i_n << 20) | replicate


def _estimate(traj: Trajectory, model: DriftModel, gamma: float,
              space: ParameterSpace) -> EstimationResult:
    if model.linear_decomposition is not None:
        return minimize_closed_form(traj, model, gamma, space)
    return minimize_golden(traj, model, gamma, space)


def run_figure1(seed: int, n: int = FIGURE1_N, dt: float = FIGURE1_DT,
                substeps: int = FIGURE1_SUBSTEPS,
                curve_points: int = 401):
    """Simulate the colloidal particle underdamped at the reference
    parameters, evaluate the objective over theta in [0, 0.04] and estimate
    theta over FIGURE1_SPACE.

    Returns (trajectory, (theta grid, objective values), EstimationResult).
    """
    model = MODELS["colloidal"]()
    params = SystemParams(mass=FIGURE1_MU, friction=FIGURE1_GAMMA,
                          noise=FIGURE1_SIGMA, x0=0.0, v0=0.0)
    grid = ObservationGrid.uniform(n, dt, substeps)
    noise = make_noise_path(seed, 0, grid)
    traj = simulate_underdamped(model, FIGURE1_THETA, params, grid,
                                Scheme.EXPONENTIAL_VELOCITY, noise)

    thetas = np.linspace(0.0, 0.04, curve_points)
    curve = objective_curve(traj, model, FIGURE1_GAMMA, thetas)

    result = minimize_closed_form(traj, model, FIGURE1_GAMMA, FIGURE1_SPACE)
    return traj, (thetas, curve), result


def run_consistency_sweep(cfg: SweepConfig) -> SweepResult:
    """Estimate theta for every (mu, n, replicate) cell with horizon
    T = delta * sqrt(n) and uniform spacing T/n. Replicate 0 of each cell also
    runs the coupled small-mass diagnostic. Cells that fail with a
    RuntimeError or ValueError become error rows; other exceptions propagate."""
    model = MODELS[cfg.model_id]()
    scheme = Scheme.EXPONENTIAL_VELOCITY
    rows = []
    for i_mu, mu in enumerate(cfg.mu_values):
        params = SystemParams(mass=mu, friction=cfg.gamma, noise=cfg.sigma,
                              x0=cfg.x0, v0=cfg.v0)
        for i_n, n in enumerate(cfg.n_values):
            dt = cfg.delta * math.sqrt(n) / n
            grid = ObservationGrid.uniform(n, dt, cfg.substeps)
            for rep in range(cfg.replicates):
                noise = make_noise_path(cfg.base_seed,
                                        _stream_id(i_mu, i_n, rep), grid)
                try:
                    sup = None
                    if rep == 0:
                        coupled = simulate_coupled(model, cfg.theta_true,
                                                   params, grid, scheme, noise)
                        traj = coupled.underdamped
                        sup = coupled.sup_distance
                    else:
                        traj = simulate_underdamped(model, cfg.theta_true,
                                                    params, grid, scheme, noise)
                    result = _estimate(traj, model, cfg.gamma, cfg.space)
                    rows.append(SweepRow(
                        mu=mu, n=n, replicate=rep,
                        theta_hat=result.theta_hat,
                        abs_error=abs(result.theta_hat - cfg.theta_true),
                        sup_distance=sup))
                except (RuntimeError, ValueError) as exc:  # record, keep sweeping
                    rows.append(SweepRow(mu=mu, n=n, replicate=rep,
                                         theta_hat=float("nan"),
                                         abs_error=float("nan"),
                                         error=f"{type(exc).__name__}: {exc}"))
    rows.sort(key=lambda r: (r.mu, r.n, r.replicate))
    return SweepResult(rows=rows)


def run_gamma_diagnostic(mu_values: Sequence[float], n: int, seed: int,
                         dt: float = 0.1,
                         substeps: int = 20):
    """Per mass value: coupled sup distance and the uniform objective gap for
    the colloidal figure-1 setup, on a shared noise path so the columns are
    comparable across mu.

    Returns a list of (mu, uniform_gap, sup_distance) tuples.
    """
    if not mu_values:
        raise ValueError("mu_values must be non-empty")
    model = MODELS["colloidal"]()
    grid = ObservationGrid.uniform(n, dt, substeps)
    noise = make_noise_path(seed, 0, grid)
    out = []
    for mu in mu_values:
        params = SystemParams(mass=mu, friction=FIGURE1_GAMMA,
                              noise=FIGURE1_SIGMA, x0=0.0, v0=0.0)
        coupled = simulate_coupled(model, FIGURE1_THETA, params, grid,
                                   Scheme.EXPONENTIAL_VELOCITY, noise)
        gap = uniform_objective_gap(coupled.underdamped, coupled.overdamped,
                                    model, FIGURE1_GAMMA, FIGURE1_SPACE)
        out.append((mu, gap, coupled.sup_distance))
    return out
