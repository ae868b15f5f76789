"""Least-squares drift estimation from discretely observed positions.

The objective on observations x(t_0), ..., x(t_n) is

    F(theta) = sum_k || x(t_k) - x(t_{k-1}) - (1/gamma) b(x(t_{k-1}), theta) dt_k ||^2 / dt_k

and the estimator is its minimizer over a compact interval. Every drift
model is linear in theta, b = theta * b1(x) + b0, so the objective is an
explicit quadratic and the minimizer is closed-form. Golden-section search
over the whole interval, which needs no scan since the objective is convex,
is kept as a derivative-free reference.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DriftModel, IdentifiabilityError, Trajectory, check_friction

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_TOL = 1e-10  # golden section's default bracket tolerance


@dataclass(frozen=True)
class ParameterSpace:
    """Compact search interval [lo, hi] for theta."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("parameter space bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"parameter space needs lo < hi, got [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"parameter space [{self.lo:g}, {self.hi:g}] is too wide")


@dataclass(frozen=True)
class EstimationResult:
    theta_hat: float
    objective_at_min: float
    method: str  # "closed-form" or "golden"
    at_boundary: bool
    evaluations: int


def _residual_parts(x: np.ndarray, dts: np.ndarray, friction: float):
    """Previous positions, increments and drift scale dt / friction along the
    last axis of x: one path, or a block of paths one per row."""
    check_friction(friction, dts)
    xprev = x[..., :-1]
    return xprev, x[..., 1:] - xprev, dts / friction


def _path_objective(traj: Trajectory, model: DriftModel, friction: float):
    """The objective of one path as a function of theta, with the friction
    check and every theta-independent array computed once; a sum that
    overflows gives inf without a warning, which the minimizers report."""
    dts = traj.grid.dts
    b0 = model.b0
    with np.errstate(over="ignore", invalid="ignore"):
        xprev, d, scale = _residual_parts(traj.positions, dts, friction)
        g = model.b1(xprev)
    r = np.empty_like(d)  # every evaluation's scratch

    def f(theta: float) -> float:
        # r = d - scale * (theta * g + b0); sum(r * r / dts), in place
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(np.multiply(theta, g, out=r), b0, out=r)
            np.subtract(d, np.multiply(scale, r, out=r), out=r)
            return float(np.sum(np.divide(np.multiply(r, r, out=r), dts, out=r)))
    return f


def objective(traj: Trajectory, model: DriftModel, friction: float,
              theta: float) -> float:
    """Evaluate the least-squares objective at one theta; a sum that
    overflows gives inf without a warning, which the minimizers report."""
    return _path_objective(traj, model, friction)(theta)


def path_coefficients(x: np.ndarray, dts: np.ndarray, model: DriftModel,
                      friction: float):
    """Coefficients (A, B, C) with F(theta) = A theta^2 + B theta + C, summed
    along the last axis of the positions x: one path, or one path per row.
    A row's sums equal those of the same path alone, bit for bit. A sum
    that overflows, or a row that is not finite, gives a non-finite
    coefficient without a warning; quadratic_coefficients and
    clipped_vertex report it."""
    with np.errstate(over="ignore", invalid="ignore"):
        xprev, d, scale = _residual_parts(x, dts, friction)
        u = np.subtract(d, scale * model.b0, out=d)
        w = scale * model.b1(xprev)
        p = np.empty_like(u)  # u's shape: a w of one row (b1 constant) fills every row
        a = np.sum(np.divide(np.multiply(w, w, out=p), dts, out=p), axis=-1)
        b = -2.0 * np.sum(np.divide(np.multiply(u, w, out=p), dts, out=p), axis=-1)
        c = np.sum(np.divide(np.multiply(u, u, out=p), dts, out=p), axis=-1)
    return a, b, c


def _check_coefficients(a: float, b: float, c: float = 0.0):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(
            f"the objective's coefficients overflow (A={a:g}, B={b:g}): the "
            "drift scale b1 * dt / friction is too large along this path for "
            "the friction given")
    if not math.isfinite(c):
        raise ValueError(f"the objective's coefficient C = F(0) overflows (C={c:g}): the "
                         "increments less b0 * dt / friction are too large to square and sum")


def quadratic_coefficients(traj: Trajectory, model: DriftModel,
                           friction: float):
    """Coefficients (A, B, C) with F(theta) = A theta^2 + B theta + C."""
    a, b, c = path_coefficients(traj.positions, traj.grid.dts, model, friction)
    _check_coefficients(float(a), float(b))
    return float(a), float(b), float(c)


def _check_objective(values, thetas, lo: float, hi: float):
    """values, the objective at thetas, or a ValueError naming [lo, hi] at
    the first theta where it is not finite."""
    finite = np.isfinite(values)
    if not np.all(finite):
        i = np.argmin(finite)
        raise ValueError(
            f"objective is {np.ravel(values)[i]:g} at theta={np.ravel(thetas)[i]:g}, "
            f"not a finite value; narrow the interval [{lo:g}, {hi:g}]")
    return values


def objective_curve(traj: Trajectory, model: DriftModel, friction: float,
                    thetas: np.ndarray) -> np.ndarray:
    """The objective at every theta of a grid, from the path's quadratic
    coefficients; a value that is not finite is a ValueError."""
    a, b, c = quadratic_coefficients(traj, model, friction)
    _check_coefficients(a, b, c)
    with np.errstate(over="ignore", invalid="ignore"):
        values = (a * thetas + b) * thetas + c
    return _check_objective(values, thetas, np.min(thetas), np.max(thetas))


def clipped_vertex(a: float, b: float, space: ParameterSpace):
    """The minimizer -B / (2A) of A theta^2 + B theta + C clipped to the
    space, and whether the clip moved it."""
    _check_coefficients(a, b)
    if not a > 0:
        raise IdentifiabilityError(
            "theta is not identifiable from this path: A = sum of b1^2 dt / "
            f"friction^2 is {a:g}, as b1 vanishes along the trajectory or the "
            "friction is too large for A to be represented")
    vertex = -b / (2.0 * a)
    theta_hat = min(max(vertex, space.lo), space.hi)
    return theta_hat, theta_hat != vertex


def minimize_closed_form(traj: Trajectory, model: DriftModel, friction: float,
                         space: ParameterSpace) -> EstimationResult:
    """Exact quadratic vertex, clipped to the parameter space, from the
    path's quadratic coefficients."""
    a, b, c = quadratic_coefficients(traj, model, friction)
    theta_hat, at_boundary = clipped_vertex(a, b, space)
    value = objective(traj, model, friction, theta_hat)
    if not math.isfinite(value):  # B^2 / 4A can cancel an overflowing C: check it only here
        _check_coefficients(a, b, c)
    return EstimationResult(
        theta_hat=theta_hat,
        objective_at_min=_check_objective(value, theta_hat, space.lo, space.hi),
        method="closed-form",
        at_boundary=at_boundary,
        evaluations=1,
    )


def minimize_golden(traj: Trajectory, model: DriftModel, friction: float,
                    space: ParameterSpace, tol: float = GOLDEN_TOL) -> EstimationResult:
    """Derivative-free golden-section search over the whole space, until the
    bracket is below tol or, when tol is finer, a few ulps of its ends; at a
    boundary when theta_hat is within that width of a bound."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and > 0, got {tol}")

    path_objective = _path_objective(traj, model, friction)
    evals = 0

    def f(theta):
        nonlocal evals
        evals += 1
        return _check_objective(path_objective(theta), theta, space.lo, space.hi)

    # F is convex or flat, so largest at an end: the ends go first, to report
    # any non-finite F, and four equal values mean a flat F. Both inner points
    # are set again whenever rounding puts a kept one out of order, as it
    # does after some 75 steps.
    lo, hi = space.lo, space.hi
    flo, fhi = f(lo), f(hi)
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    if flo == fhi == fc == fd:
        raise IdentifiabilityError(
            "theta is not identifiable from this path: the objective is flat "
            f"over [{space.lo:g}, {space.hi:g}]")
    while hi - lo > (stop := max(tol, 4.0 * math.ulp(max(abs(lo), abs(hi))))):
        if not lo < c < d < hi:
            c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
            fc, fd = f(c), f(d)
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    theta_hat = 0.5 * lo + 0.5 * hi  # halved first: lo + hi can overflow near DBL_MAX
    # value comparisons stall near sqrt(machine eps) relative accuracy, so
    # polish with one parabolic fit over a stencil wide enough that the
    # three objective values differ well above rounding noise
    h = max(tol, 6e-6 * (1.0 + abs(theta_hat)))
    if h < 1e150:  # else the stencil's squared width overflows: keep the midpoint
        left, right = max(space.lo, theta_hat - h), min(space.hi, theta_hat + h)
        mid = 0.5 * (left + right)
        fl, fm, fr = f(left), f(mid), f(right)
        num = (mid - left) ** 2 * (fm - fr) - (mid - right) ** 2 * (fm - fl)
        den = (mid - left) * (fm - fr) - (mid - right) * (fm - fl)
        if den < 0:  # negative den means the fitted parabola is convex
            vertex = mid - 0.5 * num / den
            if left <= vertex <= right:
                theta_hat = vertex
    objective_at_min = f(theta_hat)
    at_boundary = theta_hat - space.lo <= stop or space.hi - theta_hat <= stop
    return EstimationResult(theta_hat, objective_at_min, "golden", at_boundary, evals)


def uniform_objective_gap(traj_under: Trajectory, traj_over: Trajectory,
                          model: DriftModel, friction: float, space: ParameterSpace) -> float:
    """Exact sup over the space of |F_underdamped - F_overdamped|, a quadratic
    largest at an end or its clipped vertex; a non-finite value is a ValueError."""
    if traj_under.grid != traj_over.grid:
        raise ValueError("uniform_objective_gap requires trajectories on the same grid")
    au, bu, cu = quadratic_coefficients(traj_under, model, friction)
    ao, bo, co = quadratic_coefficients(traj_over, model, friction)
    _check_coefficients(au, bu, cu)
    _check_coefficients(ao, bo, co)
    da, db, dc = au - ao, bu - bo, cu - co
    lo, hi = space.lo, space.hi
    thetas = [lo, hi] if da == 0.0 else [lo, hi, min(max(-db / (2.0 * da), lo), hi)]
    return max(_check_objective([abs((da * t + db) * t + dc) for t in thetas], thetas, lo, hi))
