"""Domain types shared by the simulators, the estimator and the experiment drivers.

All types are plain immutable dataclasses; the particle is one-dimensional
and its state is a python float. Each drift model gives its position
dependence twice: on a numpy array of positions, so the estimator can
evaluate a whole trajectory in one call, and on a python float for the
integrators.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
    """A drift field linear in theta: b(x, theta) = theta * b1(x) + b0.

    Parameters
    ----------
    name : str
        Identifier used by the CLI model registry.
    b1 : callable
        Position dependence, on a numpy array of positions (the estimator).
        A position-independent b1 may return a float; callers broadcast it.
    b1_scalar : callable
        The same function on a python float (the integrators).
    b0 : float
        The theta-independent part of the drift.
    """

    name: str
    b1: Callable
    b1_scalar: Callable
    b0: float


def colloidal_model() -> DriftModel:
    """Exponential surface force minus constant effective gravity.

    F(x, theta) = theta * exp(-x / 18) - G_EFF in (g, nm, s) units, with
    x the distance from the wall and theta the surface-charge prefactor.
    """
    inv_debye = 1.0 / DEBYE_LENGTH_NM

    def b1(x):
        return np.exp(-inv_debye * x)

    def b1_scalar(x):
        z = -inv_debye * x
        # saturate instead of raising OverflowError so the integrator's
        # divergence check reports the offending substep
        return math.exp(z) if z < 709.0 else math.inf

    return DriftModel("colloidal", b1, b1_scalar, -G_EFF)


def ou_model() -> DriftModel:
    """Mean-reverting test model b(x, theta) = -theta * x."""

    def b1(x):
        return -x

    return DriftModel("ou", b1, b1, 0.0)


def zero_drift_model() -> DriftModel:
    """b(x, theta) = 0; pure noise / free relaxation runs."""

    def b1(x):
        return 0.0

    return DriftModel("zero-drift", b1, b1, 0.0)


def constant_force_model() -> DriftModel:
    """b(x, theta) = theta, independent of position."""

    def b1(x):
        return 1.0

    return DriftModel("constant-force", b1, b1, 0.0)


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


def check_friction(friction: float, widths: np.ndarray, **numerators: float):
    """Raise ValueError unless friction is finite, friction * smallest step > 0,
    and the largest step, 1 and each named numerator over friction are finite."""
    # a subnormal friction passes SystemParams but can fail these
    quotients = {"step": float(widths.max()), "1": 1.0, **numerators}
    if not (math.isfinite(friction) and friction * float(widths.min()) > 0
            and all(math.isfinite(c / friction) for c in quotients.values())):
        raise ValueError(
            f"friction must be finite, with friction * step > 0 and "
            f"{', '.join(k + ' / friction' for k in quotients)} finite, got {friction}")


class ObservationGrid:
    """Observation times 0 = t_0 < t_1 < ... < t_n = T plus a simulation
    refinement: the integrator takes `substeps_per_interval` internal steps
    inside each observation interval.
    """

    def __init__(self, times, substeps_per_interval: int = 1):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("grid needs at least two observation times")
        finite = np.isfinite(times)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"grid times must be finite, got t_{k}={times[k]}")
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
        if not (dt > 0 and math.isfinite(dt * n)):
            raise ValueError(f"dt must be finite and > 0 with n * dt finite, got {dt}")
        return cls(dt * np.arange(n + 1), substeps_per_interval)

    @property
    def n_intervals(self) -> int:
        return len(self.times) - 1

    @property
    def total_substeps(self) -> int:
        return self.n_intervals * self.substeps_per_interval

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


def philox_generator(seed: int, stream_id: int):
    """The numpy Generator of the (seed, stream_id) noise stream."""
    # no return annotation: numpy loads np.random lazily, on first use
    # the Philox key packs both into 128 bits, so wider values would alias
    if not (0 <= seed < 2 ** 64 and 0 <= stream_id < 2 ** 64):
        raise ValueError("seed and stream_id must be integers in [0, 2**64)")
    return np.random.Generator(np.random.Philox(key=(int(stream_id) << 64) | int(seed)))


def draw_increments(rngs, dts: np.ndarray, substeps: int) -> np.ndarray:
    """The noise of the next len(dts) observation intervals of every
    generator, one row each: substeps increments per interval, each
    N(0, dt / substeps).

    Each row continues its generator's stream, so consecutive draws joined
    end to end equal the one-shot draw of make_noise_path.
    """
    widths = np.repeat(dts / substeps, substeps)
    out = np.empty((len(rngs), len(widths)))
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    out *= np.sqrt(widths)
    return out


def make_noise_path(seed: int, stream_id: int, grid: ObservationGrid) -> np.ndarray:
    """Every Brownian increment of the (seed, stream_id) run on the grid, in
    one draw; the simulators draw the same increments a chunk at a time.

    Regenerating with the same (seed, stream_id, grid) is bit-identical:
    the counter-based Philox generator keyed on (seed, stream_id) makes
    replicates deterministic regardless of scheduling.
    """
    return draw_increments([philox_generator(seed, stream_id)], grid.dts,
                           grid.substeps_per_interval)[0]
