"""Experiment drivers: the colloidal end-to-end reproduction, the (mu, n)
consistency sweep, and the small-mass convergence diagnostics.

Every cell of a sweep derives its noise stream deterministically from
(base_seed, mu index, n index, replicate), so results are reproducible
independent of execution order.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import MODELS, ObservationGrid, SystemParams, philox_generator
from .estimate import (ParameterSpace, clipped_vertex, minimize_closed_form,
                       objective_curve, path_coefficients, uniform_objective_gap)
from .simulate import (Scheme, simulate_overdamped, simulate_underdamped,
                       simulate_underdamped_batch)

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
GAMMA_DT = 0.1  # the gamma diagnostic's default spacing and substeps
GAMMA_SUBSTEPS = 20

# _stream_id packs the n index and the replicate into 20 bits each.
_STREAM_FIELD = 2 ** 20


def _check_distinct(key: str, values: Sequence) -> None:
    """Reject a repeat in non-empty row keys: it would give two rows one key."""
    value, count = Counter(values).most_common(1)[0]
    if count > 1:
        raise ValueError(f"{key} must not repeat a value, got {value} {count} times")


def _check_masses(mu_values: Sequence[float]) -> None:
    """Reject a mass that is not finite and > 0, or a repeated one, before any run."""
    if not mu_values:
        raise ValueError("mu_values must be non-empty")
    for mu in mu_values:
        if not (mu > 0 and math.isfinite(mu)):
            raise ValueError(f"mu_values must be finite and > 0, got {mu}")
    _check_distinct("mu_values", mu_values)


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of a (mu, n) consistency sweep."""

    mu_values: Sequence[float]
    n_values: Sequence[int]
    model_id: str                # key into core.MODELS
    theta_true: float
    space: ParameterSpace
    delta: float = 1.0           # horizon constant, T = delta * sqrt(n)
    replicates: int = 1
    base_seed: int = 0
    gamma: float = 1.0
    sigma: float = 1.0
    x0: float = 1.0
    v0: float = 0.0
    substeps: int = 4

    def __post_init__(self):
        _check_masses(self.mu_values)
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ValueError("n_values must all be >= 2")
        if not 1 <= self.replicates <= _STREAM_FIELD:
            raise ValueError(f"replicates must be in [1, {_STREAM_FIELD}]")
        if len(self.n_values) > _STREAM_FIELD:
            raise ValueError(f"at most {_STREAM_FIELD} n_values are allowed")
        _check_distinct("n_values", self.n_values)
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")
        if not math.isfinite(self.theta_true):
            raise ValueError(f"theta_true must be finite, got {self.theta_true}")
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
    error_type: Optional[type] = None  # the class of the exception in error


def _stream_id(i_mu: int, i_n: int, replicate: int) -> int:
    return (i_mu << 40) | (i_n << 20) | replicate


def run_figure1(seed: int, n: int = FIGURE1_N, dt: float = FIGURE1_DT,
                substeps: int = FIGURE1_SUBSTEPS):
    """Simulate the colloidal particle underdamped at the reference
    parameters, evaluate the objective over theta in [0, 0.04] and estimate
    theta over FIGURE1_SPACE.

    Returns (trajectory, (theta grid, objective values), EstimationResult).
    """
    model = MODELS["colloidal"]
    params = SystemParams(mass=FIGURE1_MU, friction=FIGURE1_GAMMA,
                          noise=FIGURE1_SIGMA, x0=0.0, v0=0.0)
    grid = ObservationGrid.uniform(n, dt, substeps)
    traj = simulate_underdamped(model, FIGURE1_THETA, params, grid,
                                Scheme.EXPONENTIAL_VELOCITY, philox_generator(seed, 0))

    thetas = np.linspace(0.0, 0.04, 401)
    curve = objective_curve(traj, model, FIGURE1_GAMMA, thetas)
    result = minimize_closed_form(traj, model, FIGURE1_GAMMA, FIGURE1_SPACE)
    return traj, (thetas, curve), result


def _error_row(mu: float, n: int, rep: int, exc: Exception) -> SweepRow:
    return SweepRow(mu=mu, n=n, replicate=rep, theta_hat=float("nan"),
                    abs_error=float("nan"), error=f"{type(exc).__name__}: {exc}",
                    error_type=type(exc))


def _sweep_cell(cfg: SweepConfig, model, params: SystemParams,
                grid: ObservationGrid, i_mu: int, i_n: int) -> List[SweepRow]:
    """Integrate and fit one (mu, n) cell's replicates as one batch, a noise
    chunk at a time: each chunk adds its path coefficients to every row's A
    and B, and its distances to replicate 0's sup distance."""
    mu, n = params.mass, grid.n_intervals
    streams = [_stream_id(i_mu, i_n, rep) for rep in range(cfg.replicates)]
    rngs = [philox_generator(cfg.base_seed, stream) for stream in streams]
    try:  # the coupled diagnostic: the overdamped limit on the same noise
        over = simulate_overdamped(model, cfg.theta_true, params, grid,
                                   philox_generator(cfg.base_seed, streams[0])).positions
    except (RuntimeError, ValueError) as exc:  # raised for row 0 only
        over, over_error = None, exc
    a, b, sup = -0.0, -0.0, 0.0  # -0.0 is the exact identity of +
    try:
        for k0, chunk, errors in simulate_underdamped_batch(
                model, cfg.theta_true, params, grid, rngs):
            dts = np.diff(grid.times[k0:k0 + chunk.shape[1]])
            # rows that diverged are not finite; their sums go unused
            with np.errstate(all="ignore"):
                a_chunk, b_chunk, _ = path_coefficients(chunk, dts, model, cfg.gamma)
                a, b = a + a_chunk, b + b_chunk
                if over is not None:
                    gaps = np.abs(chunk[0] - over[k0:k0 + len(dts) + 1])
                    sup = max(sup, float(np.max(gaps)))
    except (RuntimeError, ValueError) as exc:  # the whole cell fails
        return [_error_row(mu, n, rep, exc) for rep in range(cfg.replicates)]

    rows = []
    for rep, (a_rep, b_rep) in enumerate(zip(a.tolist(), b.tolist())):
        try:
            if errors[rep] is not None:
                raise errors[rep]
            if rep == 0 and over is None:
                raise over_error
            theta_hat, _ = clipped_vertex(a_rep, b_rep, cfg.space)
            rows.append(SweepRow(mu=mu, n=n, replicate=rep, theta_hat=theta_hat,
                                 abs_error=abs(theta_hat - cfg.theta_true),
                                 sup_distance=sup if rep == 0 else None))
        except (RuntimeError, ValueError) as exc:  # record, keep sweeping
            rows.append(_error_row(mu, n, rep, exc))
    return rows


def run_consistency_sweep(cfg: SweepConfig) -> List[SweepRow]:
    """Estimate theta for every (mu, n, replicate) cell with horizon
    T = delta * sqrt(n) and uniform spacing T/n. Replicate 0 of each cell also
    runs the coupled small-mass diagnostic. Cells that fail with a
    RuntimeError or ValueError become error rows; other exceptions propagate."""
    model = MODELS[cfg.model_id]
    rows = []
    for i_mu, mu in enumerate(cfg.mu_values):
        params = SystemParams(mass=mu, friction=cfg.gamma, noise=cfg.sigma,
                              x0=cfg.x0, v0=cfg.v0)
        for i_n, n in enumerate(cfg.n_values):
            dt = cfg.delta * math.sqrt(n) / n
            grid = ObservationGrid.uniform(n, dt, cfg.substeps)
            rows += _sweep_cell(cfg, model, params, grid, i_mu, i_n)
    rows.sort(key=lambda r: (r.mu, r.n, r.replicate))
    return rows


def run_gamma_diagnostic(mu_values: Sequence[float], n: int, seed: int,
                         dt: float = GAMMA_DT,
                         substeps: int = GAMMA_SUBSTEPS):
    """Per mass value: coupled sup distance and the uniform objective gap for
    the colloidal figure-1 setup, every run on the noise of stream (seed, 0)
    so the columns are comparable across mu.

    Returns a list of (mu, uniform_gap, sup_distance) tuples.
    """
    _check_masses(mu_values)
    model = MODELS["colloidal"]
    grid = ObservationGrid.uniform(n, dt, substeps)
    out = []
    for i, mu in enumerate(mu_values):
        params = SystemParams(mass=mu, friction=FIGURE1_GAMMA,
                              noise=FIGURE1_SIGMA, x0=0.0, v0=0.0)
        under = simulate_underdamped(model, FIGURE1_THETA, params, grid,
                                     Scheme.EXPONENTIAL_VELOCITY, philox_generator(seed, 0))
        if i == 0:  # the overdamped limit is the same for every mu
            over = simulate_overdamped(model, FIGURE1_THETA, params, grid,
                                       philox_generator(seed, 0))
        gap = uniform_objective_gap(under, over, model, FIGURE1_GAMMA, FIGURE1_SPACE)
        out.append((mu, gap, float(np.max(np.abs(under.positions - over.positions)))))
    return out
