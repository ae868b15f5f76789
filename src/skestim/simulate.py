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
Brownian increment, so coupled runs converge pathwise. One python-float loop,
_scalar_run, serves these three schemes: two underdamped, one overdamped.
"""

import math
from array import array
from enum import Enum
from itertools import islice

import numpy as np

from .core import (DivergenceError, DriftModel, ObservationGrid, SystemParams,
                   Trajectory, check_friction, draw_increments)


class Scheme(Enum):
    EULER_MARUYAMA = "euler"
    EXPONENTIAL_VELOCITY = "exponential"


# doubles of noise drawn at a time, over all generators of a run, rounded
# down to whole observation intervals (at least one); this bounds the noise
# a run holds
_DRAW_DOUBLES = 65536


def _check_inputs(theta: float, params: SystemParams, grid: ObservationGrid, scheme):
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    widths = grid.dts / grid.substeps_per_interval
    # the mass enters only the underdamped system (scheme None: overdamped)
    mass = {} if scheme is None else {"mu": params.mass}
    check_friction(params.friction, widths, sigma=params.noise, **mass)
    # the exponential-velocity step divides sigma by gamma times the substep
    h = float(widths.min())
    if (scheme is Scheme.EXPONENTIAL_VELOCITY
            and not math.isfinite(params.noise / (params.friction * h))):
        raise ValueError(
            f"substep {h:g} is too small for the exponential-velocity scheme: "
            "sigma / (gamma * substep) overflows; widen dt or take fewer substeps")
    h, guard = float(widths.max()), params.mass / (2.0 * params.friction)
    if scheme is Scheme.EULER_MARUYAMA and not h < guard:
        raise ValueError(f"Euler-Maruyama stability guard violated: substep {h:g} "
                         f">= mu/(2*gamma) = {guard:g}")


def _noise_chunks(grid: ObservationGrid, rngs):
    """(k0, widths, increments) for consecutive runs of whole intervals from
    k0 on: a memoryview of their substep widths, which yields python floats,
    and the increments one row per generator, as draw_increments gives them."""
    s = grid.substeps_per_interval
    per_draw = max(1, _DRAW_DOUBLES // (len(rngs) * s))
    for k0 in range(0, grid.n_intervals, per_draw):
        dts = grid.dts[k0:k0 + per_draw]
        yield k0, (dts / s).data, draw_increments(rngs, dts, s)


def _exponential_coefficients(h: float, mu: float, gamma: float, sigma: float):
    """Per-substep coefficients (a, 1 - a, relax, tail, inv_sg, inv_g) of the
    exponential-velocity scheme for substep width h."""
    a = math.exp(-gamma * h / mu)
    one_a = 1.0 - a
    relax = (mu / gamma) * one_a  # integral of the decay over one substep
    return a, one_a, relax, h - relax, sigma / (gamma * h), 1.0 / gamma


def _diverged(grid: ObservationGrid, k: int, **state) -> DivergenceError:
    """The error of the first observation from k on at which the state (x,
    and v when underdamped: arrays from observation k on) is not finite."""
    i = int(np.argmin(np.logical_and.reduce([np.isfinite(a) for a in state.values()])))
    kind = "underdamped" if "v" in state else "overdamped"
    values = ", ".join(f"{name}={float(a[i])!r}" for name, a in state.items())
    k += i
    return DivergenceError(f"{kind} run diverged at substep {k * grid.substeps_per_interval}"
                           f" (t ~ {grid.times[k]:g}): {values}")


def _scalar_run(model: DriftModel, theta: float, params: SystemParams,
                grid: ObservationGrid, scheme, rng) -> Trajectory:
    """One path on the noise the generator rng draws next, in python floats:
    the underdamped system under scheme, or its overdamped limit when scheme
    is None (then no velocity is kept). Returns the observations only."""
    _check_inputs(theta, params, grid, scheme)
    mu, gamma, sigma = params.mass, params.friction, params.noise
    overdamped, euler = scheme is None, scheme is Scheme.EULER_MARUYAMA
    x, v = float(params.x0), 0.0 if overdamped else float(params.v0)
    b0 = model.b0
    s = grid.substeps_per_interval

    positions, velocities = array("d", [x]), array("d", [v])
    buffers = {"x": positions} if overdamped else {"x": positions, "v": velocities}
    put_x, put_v = positions.append, velocities.append
    coefficients = {}  # per distinct substep width; a uniform grid has few
    cs = sigma / gamma if overdamped else sigma / mu
    for k0, widths, block in _noise_chunks(grid, [rng]):
        start = x, v
        # b1(k * x) is the model's b1: its profile and rate, a frame-free call
        # for a builtin; then, from the chunk's start again if that raised
        # OverflowError, the saturating b1_scalar, whose inf is reported below
        for b1, k in (model.profile, model.rate), (model.b1_scalar, 1.0):
            steps = iter(block[0].data)
            try:
                for h, dws in zip(widths, zip(*[steps] * s)):  # each interval's s increments
                    if overdamped:
                        cb = h / gamma
                        for dw in dws:
                            x = x + (theta * b1(k * x) + b0) * cb + cs * dw
                    elif euler:
                        cb = h / mu
                        cg = gamma * h / mu
                        for dw in dws:
                            b = theta * b1(k * x) + b0
                            x, v = x + v * h, v + b * cb - v * cg + cs * dw
                        put_v(v)
                    else:
                        c = coefficients.get(h)
                        if c is None:
                            c = coefficients[h] = _exponential_coefficients(h, mu, gamma, sigma)
                        a, one_a, relax, tail, inv_sg, inv_g = c
                        for dw in dws:
                            f = (theta * b1(k * x) + b0) * inv_g + inv_sg * dw
                            x = x + relax * v + tail * f
                            v = a * v + one_a * f
                        put_v(v)
                    put_x(x)
                break
            except OverflowError:
                for buffer in buffers.values():
                    del buffer[k0 + 1:]
                x, v = start
        # a state that is not finite stays so, so the chunk's last one tells
        if not (math.isfinite(x) and math.isfinite(v)):
            raise _diverged(grid, k0 + 1, **{name: np.frombuffer(buffer)[k0 + 1:]
                                             for name, buffer in buffers.items()})

    return Trajectory(grid=grid, positions=np.frombuffer(positions),
                      velocities=None if overdamped else np.frombuffer(velocities))


def simulate_underdamped(model: DriftModel, theta: float, params: SystemParams,
                         grid: ObservationGrid, scheme: Scheme, rng) -> Trajectory:
    """Integrate the underdamped system on the noise the generator rng draws
    next; returns positions and velocities at the observation times
    (internal substeps are discarded)."""
    return _scalar_run(model, theta, params, grid, scheme, rng)


def simulate_overdamped(model: DriftModel, theta: float, params: SystemParams,
                        grid: ObservationGrid, rng) -> Trajectory:
    """Euler-Maruyama integration of the overdamped limit on the noise the
    generator rng draws next; velocities absent."""
    return _scalar_run(model, theta, params, grid, None, rng)


def simulate_underdamped_batch(model: DriftModel, theta: float,
                               params: SystemParams, grid: ObservationGrid,
                               rngs):
    """Exponential-velocity runs of len(rngs) replicates at once, replicate r
    driven by the increments rngs[r] draws next, one noise chunk at a time.

    Yields (k0, positions, errors) per noise chunk. Column 0 of positions is
    observation k0 (x0, or the last column of the chunk before) and the
    others end the chunk's intervals, so grid.dts[k0:k0 + m] lines up with
    its m increments. Joined, row r is the path simulate_underdamped gives on
    rngs[r], bit for bit unless the profile is math.exp (applied as np.exp,
    which can differ in the last place). errors, updated in place, holds for
    each row None or, from the chunk where it diverges on, the DivergenceError
    that run would raise; the row is then not finite from that observation on.
    """
    _check_inputs(theta, params, grid, Scheme.EXPONENTIAL_VELOCITY)
    mu, gamma, sigma = params.mass, params.friction, params.noise
    b1, b0 = model.b1, model.b0
    s = grid.substeps_per_interval
    x = np.full(len(rngs), float(params.x0))
    v = np.full(len(rngs), float(params.v0))
    errors = [None] * len(rngs)
    coefficients = {}  # per distinct substep width, as in _scalar_run

    for k0, widths, block in _noise_chunks(grid, rngs):
        steps = iter(block.T)
        positions = np.empty((len(rngs), len(widths) + 1))
        positions[:, 0] = x
        # each interval's first increment, once spent, holds its last velocity
        velocities = block[:, ::s]
        # a diverging row overflows; it is reported below and the others go on
        with np.errstate(all="ignore"):
            for i, h in enumerate(widths, 1):
                c = coefficients.get(h)
                if c is None:
                    c = coefficients[h] = _exponential_coefficients(h, mu, gamma, sigma)
                a, one_a, relax, tail, inv_sg, inv_g = c
                for dw in islice(steps, s):
                    f = (theta * b1(x) + b0) * inv_g + inv_sg * dw
                    x = x + relax * v + tail * f
                    v = a * v + one_a * f
                positions[:, i] = x
                velocities[:, i - 1] = v
        # a state that is not finite stays so, so the chunk's last one tells
        for r in np.flatnonzero(~(np.isfinite(x) & np.isfinite(v))).tolist():
            if errors[r] is None:
                errors[r] = _diverged(grid, k0 + 1, x=positions[r, 1:], v=velocities[r])
        yield k0, positions, errors
