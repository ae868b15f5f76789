"""Domain types shared by the simulators, the estimator and the experiment drivers.

All types are plain immutable dataclasses; the particle is one-dimensional
and its state is a python float. Each drift model gives its position
dependence once, as a profile and a rate, b1(x) == profile(rate * x): the
integrators apply it to python floats and the estimator to a numpy array
of positions, so that it evaluates a whole trajectory in one call.
"""

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when an integrator produces a non-finite state."""


class IdentifiabilityError(RuntimeError):
    """Raised when theta cannot be identified: A is 0, or the objective is flat."""


class ConfigError(ValueError):
    """Raised for invalid configuration values; message names the offending key."""


# Debye screening: decay length 18 nm.
DEBYE_LENGTH_NM = 18.0

# Effective gravitational force constant of the colloidal particle,
# in unified (g, nm, s) units.
G_EFF = (4.0 / 3.0) * math.pi * (1.31 / 2.0) ** 2 * 0.51 * 9.8e-3


# math.exp takes python floats only; np.exp, its array form, rounds some
# inputs differently, so the estimator keeps it and the integrators math.exp
_ARRAY_PROFILE = {math.exp: np.exp}


@dataclass(frozen=True)
class DriftModel:
    """A drift field linear in theta: b(x, theta) = theta * b1(x) + b0,
    with b1(x) == profile(rate * x).

    Parameters
    ----------
    name : str
        Identifier used by the CLI model registry.
    profile : callable
        Position dependence on rate * x: a python float in the integrators,
        where a builtin such as math.exp costs no Python frame, and an array
        in b1, with math.exp as np.exp.
    b0 : float
        The theta-independent part of the drift.
    rate : float
        The factor on x inside the profile.
    """

    name: str
    profile: Callable
    b0: float
    rate: float = 1.0

    def b1(self, x: np.ndarray):
        """b1 on a numpy array of positions (the estimator). A
        position-independent b1 may return a float; callers broadcast it."""
        profile = _ARRAY_PROFILE.get(self.profile, self.profile)
        return profile(self.rate * x)

    def b1_scalar(self, x: float) -> float:
        """b1 on a python float, inf where the profile overflows; the
        integrators fall back on it for a noise chunk in which the profile
        raised OverflowError, and it never raises that itself."""
        try:
            return self.profile(self.rate * x)
        except OverflowError:
            return math.inf


def _zero(x):
    return 0.0


def _one(x):
    return 1.0


MODELS = {model.name: model for model in [
    # F(x, theta) = theta * exp(-x / 18) - G_EFF in (g, nm, s) units, with x
    # the distance from the wall and theta the surface-charge prefactor
    DriftModel("colloidal", math.exp, -G_EFF, -1.0 / DEBYE_LENGTH_NM),
    # mean reversion, b(x, theta) = -theta * x; neg(1.0 * x) is -x bit for
    # bit, -0.0 included
    DriftModel("ou", operator.neg, 0.0),
    # b(x, theta) = 0: pure noise / free relaxation runs
    DriftModel("zero-drift", _zero, 0.0),
    # b(x, theta) = theta, independent of position
    DriftModel("constant-force", _one, 0.0),
]}


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


_StreamKey = None  # the seed sequence type of philox_generator, defined on first use


def _stream_key(seed: int, stream_id: int):
    """A numpy seed sequence whose state is the words [seed, stream_id].
    Its type is defined on the first call, so that importing skestim does
    not load numpy.random (11-14 ms on a 2-vCPU Xeon VM); the words are
    ints, not an array, since each Philox keeps its seed sequence."""
    global _StreamKey
    if _StreamKey is None:
        from numpy.random.bit_generator import ISeedSequence

        class _StreamKey(ISeedSequence):
            __slots__ = ("seed", "stream_id")

            def __init__(self, seed, stream_id):
                self.seed = seed
                self.stream_id = stream_id

            def generate_state(self, n_words, dtype=np.uint32):
                # Philox asks for its key alone; any other request would
                # silently change the noise, so it fails instead
                if n_words != 2 or np.dtype(dtype) != np.uint64:
                    raise ValueError(f"a stream key is 2 uint64 words, not "
                                     f"{n_words} of {np.dtype(dtype)}")
                return np.array([self.seed, self.stream_id], np.uint64)

            def __reduce__(self):  # a pickle names the function, which always exists
                return _stream_key, (self.seed, self.stream_id)

    return _StreamKey(seed, stream_id)


def philox_generator(seed: int, stream_id: int):
    """The numpy Generator of the (seed, stream_id) noise stream: Philox at
    counter 0 with the 128-bit key (stream_id << 64) | seed.

    The key goes in as a seed sequence that returns its two words, not as
    `key=`, for which numpy first builds and drops a SeedSequence from OS
    entropy: two thirds of a generator's set-up, and a sweep builds one
    per replicate. The state, and so every draw, is the same.
    """
    # no return annotation: numpy loads np.random lazily, on first use
    # the Philox key packs both into 128 bits, so wider values would alias
    if not (0 <= seed < 2 ** 64 and 0 <= stream_id < 2 ** 64):
        raise ValueError("seed and stream_id must be integers in [0, 2**64)")
    return np.random.Generator(np.random.Philox(_stream_key(int(seed), int(stream_id))))


def draw_increments(rngs, dts: np.ndarray, substeps: int) -> np.ndarray:
    """The noise of the next len(dts) observation intervals of every
    generator, one row each: substeps increments per interval, each
    N(0, dt / substeps).

    Each row continues its generator's stream, so consecutive draws joined
    end to end equal one draw of all their intervals.
    """
    widths = np.repeat(dts / substeps, substeps)
    out = np.empty((len(rngs), len(widths)))
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    out *= np.sqrt(widths, out=widths)
    return out
