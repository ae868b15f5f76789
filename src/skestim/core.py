"""Domain types shared by the simulators, the estimator and the experiment drivers.

All types are plain immutable dataclasses; the particle is one-dimensional
and its state is a python float. Model evaluation functions also accept a
numpy array of positions, so the estimator can evaluate a whole trajectory
in one call.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when an integrator produces a non-finite state."""


class IdentifiabilityError(RuntimeError):
    """Raised when the closed-form minimizer is undefined (b1 vanishes along the path)."""


class ConfigError(ValueError):
    """Raised for invalid configuration values; message names the offending key."""


# Debye screening: decay length 18 nm.
DEBYE_LENGTH_NM = 18.0

# Effective gravitational force constant of the colloidal particle,
# in unified (g, nm, s) units.
G_EFF = (4.0 / 3.0) * math.pi * (1.31 / 2.0) ** 2 * 0.51 * 9.8e-3


@dataclass(frozen=True)
class DriftModel:
    """A drift field b(x, theta).

    Parameters
    ----------
    name : str
        Identifier used by the CLI model registry.
    eval : callable
        (x, theta) -> drift, for a float x or an array of positions.
    linear_decomposition : (callable, callable) or None
        Pair (b1, b0) with b(x, theta) = theta * b1(x) + b0(x), when the
        model is linear in theta. Enables the closed-form minimizer.
    """

    name: str
    eval: Callable
    linear_decomposition: Optional[Tuple[Callable, Callable]] = None


def eval_drift(model: DriftModel, x, theta: float):
    """Evaluate b(x, theta), raising if the model returns a non-finite value."""
    b = model.eval(x, theta)
    if not np.all(np.isfinite(b)):
        raise ValueError(
            f"model {model.name!r} returned non-finite drift at x={x!r}, theta={theta!r}"
        )
    return b


def colloidal_model() -> DriftModel:
    """Exponential surface force minus constant effective gravity.

    F(x, theta) = theta * exp(-x / 18) - G_EFF in (g, nm, s) units, with
    x the distance from the wall and theta the surface-charge prefactor.
    """
    inv_debye = 1.0 / DEBYE_LENGTH_NM

    def b1(x):
        return np.exp(-inv_debye * np.asarray(x, dtype=float))

    def b0(x):
        return np.full_like(np.asarray(x, dtype=float), -G_EFF)

    def force(x, theta):
        if isinstance(x, float):
            z = -inv_debye * x
            # saturate instead of raising OverflowError so the integrator's
            # divergence check reports the offending substep
            return theta * (math.exp(z) if z < 709.0 else math.inf) - G_EFF
        return theta * np.exp(-inv_debye * np.asarray(x, dtype=float)) - G_EFF

    return DriftModel(name="colloidal", eval=force,
                      linear_decomposition=(b1, b0))


def ou_model() -> DriftModel:
    """Mean-reverting test model b(x, theta) = -theta * x."""

    def b1(x):
        return -np.asarray(x, dtype=float)

    def b0(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def drift(x, theta):
        if isinstance(x, float):
            return -theta * x
        return -theta * np.asarray(x, dtype=float)

    return DriftModel(name="ou", eval=drift, linear_decomposition=(b1, b0))


def zero_drift_model() -> DriftModel:
    """b(x, theta) = 0; pure noise / free relaxation runs."""

    def drift(x, theta):
        if isinstance(x, float):
            return 0.0
        return np.zeros_like(np.asarray(x, dtype=float))

    return DriftModel(name="zero-drift", eval=drift)


def constant_force_model() -> DriftModel:
    """b(x, theta) = theta, independent of position."""

    def b1(x):
        return np.ones_like(np.asarray(x, dtype=float))

    def b0(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def drift(x, theta):
        if isinstance(x, float):
            return theta
        return np.full_like(np.asarray(x, dtype=float), theta)

    return DriftModel(name="constant-force", eval=drift,
                      linear_decomposition=(b1, b0))


MODELS = {
    "colloidal": colloidal_model,
    "ou": ou_model,
    "zero-drift": zero_drift_model,
    "constant-force": constant_force_model,
}


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the second-order system.

    All values must be finite; mass and friction must be positive and noise
    is a nonnegative constant. v0 is ignored by the overdamped simulator.
    """

    mass: float
    friction: float
    noise: float
    x0: float = 0.0
    v0: float = 0.0

    def __post_init__(self):
        for key in ("mass", "friction", "noise", "x0", "v0"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if not self.mass > 0:
            raise ValueError(f"mass must be > 0, got {self.mass}")
        if not self.friction > 0:
            raise ValueError(f"friction must be > 0, got {self.friction}")
        if not self.noise >= 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")


class ObservationGrid:
    """Observation times 0 = t_0 < t_1 < ... < t_n = T plus a simulation
    refinement: the integrator takes `substeps_per_interval` internal steps
    inside each observation interval.
    """

    def __init__(self, times, substeps_per_interval: int = 1):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("grid needs at least two observation times")
        if times[0] != 0.0:
            raise ValueError(f"grid must start at t=0, got t_0={times[0]}")
        dts = np.diff(times)
        if np.any(dts <= 0):
            k = int(np.argmax(dts <= 0))
            raise ValueError(f"grid times must be strictly increasing (interval {k + 1})")
        if substeps_per_interval < 1:
            raise ValueError("substeps_per_interval must be a positive integer")
        self.times = times
        self.times.setflags(write=False)
        self.substeps_per_interval = int(substeps_per_interval)
        self.dts = dts
        self.dts.setflags(write=False)

    @classmethod
    def uniform(cls, n: int, dt: float, substeps_per_interval: int = 1) -> "ObservationGrid":
        if n < 1:
            raise ValueError("n must be >= 1")
        if dt <= 0:
            raise ValueError("dt must be > 0")
        return cls(dt * np.arange(n + 1), substeps_per_interval)

    @property
    def n_intervals(self) -> int:
        return len(self.times) - 1

    @property
    def total_substeps(self) -> int:
        return self.n_intervals * self.substeps_per_interval

    def substep_widths(self) -> np.ndarray:
        """Width of every internal substep, in grid order."""
        return np.repeat(self.dts / self.substeps_per_interval,
                         self.substeps_per_interval)

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ObservationGrid)
                and self.substeps_per_interval == other.substeps_per_interval
                and np.array_equal(self.times, other.times))


@dataclass(frozen=True)
class Trajectory:
    """Positions (and optionally velocities) sampled on an observation grid."""

    grid: ObservationGrid
    positions: np.ndarray
    velocities: Optional[np.ndarray] = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if len(pos) != len(self.grid):
            raise ValueError(
                f"positions length {len(pos)} does not match grid length {len(self.grid)}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("trajectory contains non-finite positions")
        object.__setattr__(self, "positions", pos)
        if self.velocities is not None:
            vel = np.asarray(self.velocities, dtype=float)
            if len(vel) != len(self.grid):
                raise ValueError("velocities length does not match grid length")
            object.__setattr__(self, "velocities", vel)

    @property
    def times(self) -> np.ndarray:
        return self.grid.times


@dataclass(frozen=True)
class NoisePath:
    """Brownian increments, one per internal substep, each N(0, substep width).

    Regenerating with the same (seed, stream_id, grid) is bit-identical:
    increments come from a counter-based Philox generator keyed on
    (seed, stream_id), so parallel replicates are deterministic regardless
    of scheduling.
    """

    increments: np.ndarray
    seed: int
    stream_id: int


def make_noise_path(seed: int, stream_id: int, grid: ObservationGrid) -> NoisePath:
    """Realize the Brownian increments driving one simulation run."""
    # the Philox key packs both into 128 bits, so wider values would alias
    if not (0 <= seed < 2 ** 64 and 0 <= stream_id < 2 ** 64):
        raise ValueError("seed and stream_id must be integers in [0, 2**64)")
    key = (int(stream_id) << 64) | int(seed)
    rng = np.random.Generator(np.random.Philox(key=key))
    widths = grid.substep_widths()
    increments = rng.standard_normal(len(widths)) * np.sqrt(widths)
    increments.setflags(write=False)
    return NoisePath(increments=increments, seed=int(seed), stream_id=int(stream_id))
