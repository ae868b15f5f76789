"""Integrators for the second-order Langevin system and its overdamped limit.

The underdamped system is

    dx = v dt
    dv = (1/mu) b(x, theta) dt - (gamma/mu) v dt + (sigma/mu) dW

and the overdamped limit is

    dx = (1/gamma) b(x, theta) dt + (sigma/gamma) dW.

Two underdamped schemes are provided. Plain Euler-Maruyama is stiff for small
mass, so the default is an exponential-velocity scheme: over each substep the
force b + sigma*dW/dt is frozen and the linear friction flow is integrated
exactly (integrating factor exp(-gamma*dt/mu)). As mu -> 0 each substep
degenerates to exactly the overdamped Euler-Maruyama step with the same
Brownian increment, so coupled runs converge pathwise.
"""

import itertools
import math
from enum import Enum

import numpy as np

from .core import (DivergenceError, DriftModel, ObservationGrid, SystemParams,
                   Trajectory, check_friction, draw_increments)


class Scheme(Enum):
    EULER_MARUYAMA = "euler-maruyama"
    EXPONENTIAL_VELOCITY = "exponential-velocity"


# doubles of noise drawn at a time, over all generators of a run, rounded
# down to whole observation intervals (at least one); this bounds the noise
# a run holds
_DRAW_DOUBLES = 65536


def _check_inputs(theta: float, params: SystemParams, grid: ObservationGrid,
                  exponential: bool = False, **mass: float):
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    check_friction(params.friction, grid.dts / grid.substeps_per_interval,
                   sigma=params.noise, **mass)
    # the exponential-velocity step divides sigma by gamma times the substep
    h = float(grid.dts.min()) / grid.substeps_per_interval
    if exponential and not math.isfinite(params.noise / (params.friction * h)):
        raise ValueError(
            f"substep {h:g} is too small for the exponential-velocity scheme: "
            "sigma / (gamma * substep) overflows; widen dt or take fewer substeps")


def _noise_chunks(grid: ObservationGrid, rngs):
    """(k0, widths, increments) for consecutive runs of whole intervals from
    k0 on: a memoryview of their substep widths, which yields python floats,
    and the increments one row per generator, as draw_increments gives them."""
    s = grid.substeps_per_interval
    n = grid.n_intervals
    per_draw = max(1, _DRAW_DOUBLES // (len(rngs) * s))
    for k0 in range(0, n, per_draw):
        dts = grid.dts[k0:k0 + per_draw]
        yield k0, (dts / s).data, draw_increments(rngs, dts, s)


def _exponential_coefficients(h: float, mu: float, gamma: float, sigma: float):
    """Per-substep coefficients (a, 1 - a, relax, tail, inv_sg, inv_g) of the
    exponential-velocity scheme for substep width h."""
    a = math.exp(-gamma * h / mu)
    one_a = 1.0 - a
    relax = (mu / gamma) * one_a  # integral of the decay over one substep
    return a, one_a, relax, h - relax, sigma / (gamma * h), 1.0 / gamma


def _underdamped_divergence(idx: int, t: float, x: float, v: float) -> DivergenceError:
    return DivergenceError(
        f"underdamped run diverged at substep {idx} (t ~ {t:g}): x={x!r}, v={v!r}")


def simulate_underdamped(model: DriftModel, theta: float, params: SystemParams,
                         grid: ObservationGrid, scheme: Scheme, rng) -> Trajectory:
    """Integrate the underdamped system on the noise the generator rng draws
    next; returns positions and velocities at the observation times
    (internal substeps are discarded)."""
    euler = scheme is Scheme.EULER_MARUYAMA
    _check_inputs(theta, params, grid, exponential=not euler, mu=params.mass)
    mu, gamma, sigma = params.mass, params.friction, params.noise
    x = float(params.x0)
    v = float(params.v0)
    b1, b0 = model.b1_scalar, model.b0
    s = grid.substeps_per_interval

    positions = [x]
    velocities = [v]
    coefficients = {}  # per distinct substep width; a uniform grid has few
    guard = mu / (2.0 * gamma)
    cs = sigma / mu
    for k0, widths, block in _noise_chunks(grid, [rng]):
        inc = block[0].data
        for k, h in enumerate(widths, k0):
            steps = inc[(k - k0) * s:(k - k0 + 1) * s]
            if euler:
                if not h < guard:
                    raise ValueError(
                        f"Euler-Maruyama stability guard violated: substep {h:g} "
                        f">= mu/(2*gamma) = {guard:g}")
                cb = h / mu
                cg = gamma * h / mu
                for dw in steps:
                    b = theta * b1(x) + b0
                    x, v = x + v * h, v + b * cb - v * cg + cs * dw
            else:
                c = coefficients.get(h)
                if c is None:
                    c = coefficients[h] = _exponential_coefficients(h, mu, gamma, sigma)
                a, one_a, relax, tail, inv_sg, inv_g = c
                for dw in steps:
                    f = (theta * b1(x) + b0) * inv_g + inv_sg * dw
                    x = x + relax * v + tail * f
                    v = a * v + one_a * f
            if not (math.isfinite(x) and math.isfinite(v)):
                raise _underdamped_divergence((k + 1) * s, grid.times[k + 1], x, v)
            positions.append(x)
            velocities.append(v)

    return Trajectory(grid=grid, positions=np.array(positions),
                      velocities=np.array(velocities))


def simulate_overdamped(model: DriftModel, theta: float, params: SystemParams,
                        grid: ObservationGrid, rng) -> Trajectory:
    """Euler-Maruyama integration of the overdamped limit on the noise the
    generator rng draws next; velocities absent."""
    _check_inputs(theta, params, grid)
    gamma, sigma = params.friction, params.noise
    x = float(params.x0)
    b1, b0 = model.b1_scalar, model.b0
    s = grid.substeps_per_interval

    positions = [x]
    cs = sigma / gamma
    for k0, widths, block in _noise_chunks(grid, [rng]):
        inc = block[0].data
        for k, h in enumerate(widths, k0):
            cb = h / gamma
            for dw in inc[(k - k0) * s:(k - k0 + 1) * s]:
                x = x + (theta * b1(x) + b0) * cb + cs * dw
            if not math.isfinite(x):
                raise DivergenceError(
                    f"overdamped run diverged at substep {(k + 1) * s} "
                    f"(t ~ {grid.times[k + 1]:g}): x={x!r}")
            positions.append(x)

    return Trajectory(grid=grid, positions=np.array(positions))


def simulate_underdamped_batch(model: DriftModel, theta: float,
                               params: SystemParams, grid: ObservationGrid,
                               rngs):
    """Exponential-velocity runs of len(rngs) replicates at once, replicate r
    driven by the increments rngs[r] draws next.

    Returns (positions, errors). Row r of positions is the path
    simulate_underdamped gives on rngs[r]; errors[r] is None, or
    the DivergenceError that run would raise, and row r is then not finite
    from that observation on.
    """
    _check_inputs(theta, params, grid, exponential=True, mu=params.mass)
    mu, gamma, sigma = params.mass, params.friction, params.noise
    b1, b0 = model.b1, model.b0
    s = grid.substeps_per_interval
    n = grid.n_intervals
    x = np.full(len(rngs), float(params.x0))
    v = np.full(len(rngs), float(params.v0))
    positions = np.empty((len(rngs), n + 1))
    positions[:, 0] = x
    errors = [None] * len(rngs)

    # a diverging row overflows; it is reported below and the others go on
    with np.errstate(all="ignore"):
        for k0, widths, block in _noise_chunks(grid, rngs):
            steps = iter(block.T)
            for k, h in enumerate(widths, k0):
                a, one_a, relax, tail, inv_sg, inv_g = _exponential_coefficients(
                    h, mu, gamma, sigma)
                for dw in itertools.islice(steps, s):
                    f = (theta * b1(x) + b0) * inv_g + inv_sg * dw
                    x = x + relax * v + tail * f
                    v = a * v + one_a * f
                positions[:, k + 1] = x
                finite = np.isfinite(x) & np.isfinite(v)
                if not finite.all():
                    for r in np.flatnonzero(~finite).tolist():
                        if errors[r] is None:
                            errors[r] = _underdamped_divergence(
                                (k + 1) * s, grid.times[k + 1], float(x[r]), float(v[r]))
    return positions, errors

