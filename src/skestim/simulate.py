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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (DivergenceError, DriftModel, NoisePath, ObservationGrid,
                   SystemParams, Trajectory)


class Scheme(Enum):
    EULER_MARUYAMA = "euler-maruyama"
    EXPONENTIAL_VELOCITY = "exponential-velocity"


@dataclass(frozen=True)
class CoupledRunResult:
    """Underdamped and overdamped runs driven by the same noise path."""

    underdamped: Trajectory
    overdamped: Trajectory
    sup_distance: float


def _check_inputs(grid: ObservationGrid, noise: NoisePath):
    if len(noise.increments) != grid.total_substeps:
        raise ValueError(
            f"noise path has {len(noise.increments)} increments, "
            f"grid needs {grid.total_substeps}")


def simulate_underdamped(model: DriftModel, theta: float, params: SystemParams,
                         grid: ObservationGrid, scheme: Scheme,
                         noise: NoisePath) -> Trajectory:
    """Integrate the underdamped system; returns positions and velocities at
    the observation times (internal substeps are discarded)."""
    _check_inputs(grid, noise)
    mu, gamma, sigma = params.mass, params.friction, params.noise
    x = float(params.x0)
    v = float(params.v0)
    feval = model.eval
    s = grid.substeps_per_interval
    dts = grid.dts
    inc = noise.increments.tolist()
    euler = scheme is Scheme.EULER_MARUYAMA

    n = grid.n_intervals
    positions = [x]
    velocities = [v]
    idx = 0
    for k in range(n):
        h = dts[k] / s
        if euler:
            if not h < mu / (2.0 * gamma):
                raise ValueError(
                    f"Euler-Maruyama stability guard violated: substep {h:g} "
                    f">= mu/(2*gamma) = {mu / (2.0 * gamma):g}")
            cb = h / mu
            cg = gamma * h / mu
            cs = sigma / mu
            for _ in range(s):
                dw = inc[idx]
                b = feval(x, theta)
                x, v = x + v * h, v + b * cb - v * cg + cs * dw
                idx += 1
        else:
            a = math.exp(-gamma * h / mu)
            relax = (mu / gamma) * (1.0 - a)  # integral of the decay over one substep
            tail = h - relax
            inv_sg = sigma / (gamma * h)
            inv_g = 1.0 / gamma
            for _ in range(s):
                dw = inc[idx]
                f = feval(x, theta) * inv_g + inv_sg * dw
                x = x + relax * v + tail * f
                v = a * v + (1.0 - a) * f
                idx += 1
        if not (math.isfinite(x) and math.isfinite(v)):
            raise DivergenceError(
                f"underdamped run diverged at substep {idx} (t ~ {grid.times[k + 1]:g}): "
                f"x={x!r}, v={v!r}")
        positions.append(x)
        velocities.append(v)

    return Trajectory(grid=grid, positions=np.array(positions),
                      velocities=np.array(velocities))


def simulate_overdamped(model: DriftModel, theta: float, params: SystemParams,
                        grid: ObservationGrid, noise: NoisePath) -> Trajectory:
    """Euler-Maruyama integration of the overdamped limit; velocities absent."""
    _check_inputs(grid, noise)
    gamma, sigma = params.friction, params.noise
    x = float(params.x0)
    feval = model.eval
    s = grid.substeps_per_interval
    dts = grid.dts
    inc = noise.increments.tolist()

    positions = [x]
    idx = 0
    for k in range(grid.n_intervals):
        h = dts[k] / s
        cb = h / gamma
        cs = sigma / gamma
        for _ in range(s):
            x = x + feval(x, theta) * cb + cs * inc[idx]
            idx += 1
        if not math.isfinite(x):
            raise DivergenceError(
                f"overdamped run diverged at substep {idx} "
                f"(t ~ {grid.times[k + 1]:g}): x={x!r}")
        positions.append(x)

    return Trajectory(grid=grid, positions=np.array(positions))


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
