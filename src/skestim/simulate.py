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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (DivergenceError, DriftModel, NoisePath, ObservationGrid,
                   SystemParams, Trajectory, draw_increments)


class Scheme(Enum):
    EULER_MARUYAMA = "euler-maruyama"
    EXPONENTIAL_VELOCITY = "exponential-velocity"


@dataclass(frozen=True)
class CoupledRunResult:
    """Underdamped and overdamped runs driven by the same noise path."""

    underdamped: Trajectory
    overdamped: Trajectory
    sup_distance: float


# substeps of noise the batch draws per replicate at a time, rounded down to
# whole observation intervals (at least one)
_CHUNK_SUBSTEPS = 128


def _check_inputs(theta: float, params: SystemParams, grid: ObservationGrid,
                  underdamped: bool):
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    # a subnormal friction passes SystemParams but its products with the
    # substep width, or the quotients the integrators divide by it,
    # underflow or overflow
    friction = params.friction
    s = grid.substeps_per_interval
    numerators = [1.0, params.noise] + ([params.mass] if underdamped else [])
    if not (friction * (float(grid.dts.min()) / s) > 0
            and math.isfinite((float(grid.dts.max()) / s) / friction)
            and all(math.isfinite(c / friction) for c in numerators)):
        raise ValueError(
            f"friction must be large enough that friction * substep > 0 and "
            f"substep, 1, sigma and mu over friction are finite, got {friction}")


def _check_noise(grid: ObservationGrid, noise: NoisePath):
    if len(noise.increments) != grid.total_substeps:
        raise ValueError(
            f"noise path has {len(noise.increments)} increments, "
            f"grid needs {grid.total_substeps}")


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
                         grid: ObservationGrid, scheme: Scheme,
                         noise: NoisePath) -> Trajectory:
    """Integrate the underdamped system; returns positions and velocities at
    the observation times (internal substeps are discarded)."""
    _check_inputs(theta, params, grid, underdamped=True)
    _check_noise(grid, noise)
    mu, gamma, sigma = params.mass, params.friction, params.noise
    x = float(params.x0)
    v = float(params.v0)
    b1, b0 = model.b1_scalar, model.b0
    s = grid.substeps_per_interval
    dts = grid.dts
    inc = noise.increments.tolist()
    euler = scheme is Scheme.EULER_MARUYAMA

    n = grid.n_intervals
    positions = [x]
    velocities = [v]
    idx = 0
    for k in range(n):
        h = float(dts[k]) / s
        if euler:
            if not h < mu / (2.0 * gamma):
                raise ValueError(
                    f"Euler-Maruyama stability guard violated: substep {h:g} "
                    f">= mu/(2*gamma) = {mu / (2.0 * gamma):g}")
            cb = h / mu
            cg = gamma * h / mu
            cs = sigma / mu
            for dw in inc[idx:idx + s]:
                b = theta * b1(x) + b0
                x, v = x + v * h, v + b * cb - v * cg + cs * dw
        else:
            a, one_a, relax, tail, inv_sg, inv_g = _exponential_coefficients(
                h, mu, gamma, sigma)
            for dw in inc[idx:idx + s]:
                f = (theta * b1(x) + b0) * inv_g + inv_sg * dw
                x = x + relax * v + tail * f
                v = a * v + one_a * f
        idx += s
        if not (math.isfinite(x) and math.isfinite(v)):
            raise _underdamped_divergence(idx, grid.times[k + 1], x, v)
        positions.append(x)
        velocities.append(v)

    return Trajectory(grid=grid, positions=np.array(positions),
                      velocities=np.array(velocities))


def simulate_overdamped(model: DriftModel, theta: float, params: SystemParams,
                        grid: ObservationGrid, noise: NoisePath) -> Trajectory:
    """Euler-Maruyama integration of the overdamped limit; velocities absent."""
    _check_inputs(theta, params, grid, underdamped=False)
    _check_noise(grid, noise)
    gamma, sigma = params.friction, params.noise
    x = float(params.x0)
    b1, b0 = model.b1_scalar, model.b0
    s = grid.substeps_per_interval
    dts = grid.dts
    inc = noise.increments.tolist()

    positions = [x]
    idx = 0
    for k in range(grid.n_intervals):
        h = float(dts[k]) / s
        cb = h / gamma
        cs = sigma / gamma
        for dw in inc[idx:idx + s]:
            x = x + (theta * b1(x) + b0) * cb + cs * dw
        idx += s
        if not math.isfinite(x):
            raise DivergenceError(
                f"overdamped run diverged at substep {idx} "
                f"(t ~ {grid.times[k + 1]:g}): x={x!r}")
        positions.append(x)

    return Trajectory(grid=grid, positions=np.array(positions))


def simulate_underdamped_batch(model: DriftModel, theta: float,
                               params: SystemParams, grid: ObservationGrid,
                               rngs):
    """Exponential-velocity runs of len(rngs) replicates at once, replicate r
    driven by the increments of rngs[r] drawn a few intervals at a time.

    Returns (positions, errors). Row r of positions is the path
    simulate_underdamped gives on rngs[r]'s noise path; errors[r] is None, or
    the DivergenceError that run would raise, and row r is then not finite
    from that observation on.
    """
    _check_inputs(theta, params, grid, underdamped=True)
    mu, gamma, sigma = params.mass, params.friction, params.noise
    b1, b0 = model.b1, model.b0
    s = grid.substeps_per_interval
    n = grid.n_intervals
    dts = grid.dts
    per_chunk = max(1, _CHUNK_SUBSTEPS // s)
    x = np.full(len(rngs), float(params.x0))
    v = np.full(len(rngs), float(params.v0))
    positions = np.empty((len(rngs), n + 1))
    positions[:, 0] = x
    errors = [None] * len(rngs)

    # a diverging row overflows; it is reported below and the others go on
    with np.errstate(all="ignore"):
        for k0 in range(0, n, per_chunk):
            k1 = min(k0 + per_chunk, n)
            steps = iter(draw_increments(rngs, np.repeat(dts[k0:k1] / s, s)).T)
            for k in range(k0, k1):
                a, one_a, relax, tail, inv_sg, inv_g = _exponential_coefficients(
                    float(dts[k]) / s, mu, gamma, sigma)
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


def simulate_coupled(model: DriftModel, theta: float, params: SystemParams,
                     grid: ObservationGrid, scheme: Scheme,
                     noise: NoisePath) -> CoupledRunResult:
    """Run both systems on the same Brownian increments and record the
    sup distance over observation times."""
    under = simulate_underdamped(model, theta, params, grid, scheme, noise)
    over = simulate_overdamped(model, theta, params, grid, noise)
    dist = np.abs(under.positions - over.positions)
    return CoupledRunResult(underdamped=under, overdamped=over,
                            sup_distance=float(np.max(dist)))
