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
degenerates to the overdamped Euler-Maruyama step with the same Brownian
increment, so coupled runs converge pathwise. One python-float loop,
_scalar_run, serves these three schemes: two underdamped, one overdamped.

A run steps its grid at one substep width h = dt / substeps, so a step's
coefficients are constants of the run. Each noise draw is scaled in place to
e = c0 + cn * sqrt(h) * z, the step's theta-independent terms, and a substep
adds c1 * b1(x) to it.
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


def _step_constants(model: DriftModel, theta: float, params: SystemParams,
                    grid: ObservationGrid, scheme):
    """The constants of a substep under scheme (None: overdamped): the width
    h; (c1, c0, cn), its drift term c1 * b1 and noise term e = c0 + cn *
    sqrt(h) * z; Euler's velocity decay gamma * h / mu; and the
    exponential step's flow (a, 1 - a, relax, tail). Inputs a substep cannot
    take are a ValueError, raised before any draw."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    mu, gamma, sigma = params.mass, params.friction, params.noise
    h = grid.spacing / grid.substeps_per_interval
    # the mass enters only the underdamped system
    check_friction(gamma, h, sigma=sigma, **({} if scheme is None else {"mu": mu}))
    if scheme is Scheme.EULER_MARUYAMA and not h < mu / (2.0 * gamma):
        raise ValueError(f"Euler-Maruyama stability guard violated: substep {h:g} "
                         f">= mu/(2*gamma) = {mu / (2.0 * gamma):g}")
    # the force is divided by the mass in Euler's velocity step, else by the friction
    name, d = ("mass", mu) if scheme is Scheme.EULER_MARUYAMA else ("friction", gamma)
    if scheme is Scheme.EXPONENTIAL_VELOCITY:  # the force frozen over the substep
        c1, c0, cn = theta / d, model.b0 / d, sigma / (d * h)
        if not math.isfinite(cn):
            raise ValueError(
                f"substep {h:g} is too small for the exponential-velocity scheme: "
                "sigma / (gamma * substep) overflows; widen dt or take fewer substeps")
    else:
        c1, c0, cn = theta * (h / d), model.b0 * (h / d), sigma / d
    if not math.isfinite(c1):
        raise ValueError(f"theta={theta:g} is too large for {name}={d:g}: the "
                         "drift coefficient of a substep overflows")
    a = math.exp(-gamma * h / mu)
    relax = (mu / gamma) * (1.0 - a)  # integral of the decay over one substep
    return h, c1, c0, cn, gamma * h / mu, a, 1.0 - a, relax, h - relax


def _noise_chunks(grid: ObservationGrid, rngs, h: float, c0: float, cn: float):
    """(k0, terms) for consecutive runs of whole intervals from k0 on: the
    noise terms c0 + cn * sqrt(h) * z of their substeps, one row per
    generator, as draw_increments gives them."""
    s = grid.substeps_per_interval
    per_draw = max(1, _DRAW_DOUBLES // (len(rngs) * s))
    for k0 in range(0, grid.n_intervals, per_draw):
        count = min(per_draw, grid.n_intervals - k0) * s
        yield k0, draw_increments(rngs, count, cn * math.sqrt(h), c0)


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
    h, c1, c0, cn, cg, a, one_a, relax, tail = _step_constants(
        model, theta, params, grid, scheme)
    overdamped, euler = scheme is None, scheme is Scheme.EULER_MARUYAMA
    x, v = float(params.x0), 0.0 if overdamped else float(params.v0)
    s = grid.substeps_per_interval

    positions, velocities = array("d", [x]), array("d", [v])
    buffers = {"x": positions} if overdamped else {"x": positions, "v": velocities}
    put_x, put_v = positions.append, velocities.append
    for k0, block in _noise_chunks(grid, [rng], h, c0, cn):
        start = x, v
        # b1(k * x) is the model's b1: its profile and rate, a frame-free call
        # for a builtin; then, from the chunk's start again if that raised
        # OverflowError, the saturating b1_scalar, whose inf is reported below
        for b1, k in (model.profile, model.rate), (model.b1_scalar, 1.0):
            steps = iter(block[0].data)
            try:
                for terms in zip(*[steps] * s):  # each interval's s noise terms
                    if overdamped:
                        for e in terms:
                            x = x + c1 * b1(k * x) + e
                    elif euler:
                        for e in terms:
                            x, v = x + v * h, v + c1 * b1(k * x) - v * cg + e
                        put_v(v)
                    else:
                        for e in terms:
                            f = c1 * b1(k * x) + e
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

    return Trajectory(grid.times, positions=np.frombuffer(positions),
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
    others end the chunk's intervals, so the widths
    np.diff(grid.times[k0:k0 + m + 1]) line up with its m increments.
    Joined, row r is the path simulate_underdamped gives on rngs[r], bit for
    bit unless the profile is math.exp (applied as np.exp, which can differ
    in the last place). errors, updated in place, holds for each row None
    or, from the chunk where it diverges on, the DivergenceError that run
    would raise; the row is then not finite from that observation on.
    """
    h, c1, c0, cn, _, a, one_a, relax, tail = _step_constants(
        model, theta, params, grid, Scheme.EXPONENTIAL_VELOCITY)
    b1, s = model.b1, grid.substeps_per_interval
    x = np.full(len(rngs), float(params.x0))
    v = np.full(len(rngs), float(params.v0))
    errors = [None] * len(rngs)

    for k0, block in _noise_chunks(grid, rngs, h, c0, cn):
        steps = iter(block.T)
        m = block.shape[1] // s  # the chunk's intervals
        positions = np.empty((len(rngs), m + 1))
        positions[:, 0] = x
        # each interval's first noise term, once spent, holds its last velocity
        velocities = block[:, ::s]
        # a diverging row overflows; it is reported below and the others go on
        with np.errstate(all="ignore"):
            for i in range(1, m + 1):
                for e in islice(steps, s):
                    f = c1 * b1(x) + e
                    x = x + relax * v + tail * f
                    v = a * v + one_a * f
                positions[:, i] = x
                velocities[:, i - 1] = v
        # a state that is not finite stays so, so the chunk's last one tells
        for r in np.flatnonzero(~(np.isfinite(x) & np.isfinite(v))).tolist():
            if errors[r] is None:
                errors[r] = _diverged(grid, k0 + 1, x=positions[r, 1:], v=velocities[r])
        yield k0, positions, errors
