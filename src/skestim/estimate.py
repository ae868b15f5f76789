"""Least-squares drift estimation from discretely observed positions.

The objective on observations x(t_0), ..., x(t_n) is

    F(theta) = sum_k || x(t_k) - x(t_{k-1}) - (1/gamma) b(x(t_{k-1}), theta) dt_k ||^2 / dt_k

and the estimator is its minimizer over a compact interval. Every drift
model is linear in theta, b = theta * b1(x) + b0, so the objective is an
explicit quadratic and the minimizer is closed-form. A coarse grid scan
followed by golden-section search is kept as a derivative-free reference.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DriftModel, IdentifiabilityError, Trajectory

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


@dataclass(frozen=True)
class EstimationResult:
    theta_hat: float
    objective_at_min: float
    method: str  # "closed-form" or "golden"
    at_boundary: bool
    evaluations: int


def _residual_parts(traj: Trajectory, friction: float):
    x = traj.positions
    dts = traj.grid.dts
    # a subnormal friction passes the first two tests but overflows dt / friction
    if not (friction > 0 and math.isfinite(friction)
            and math.isfinite(float(dts.max()) / friction)):
        raise ValueError(
            f"friction must be finite and > 0 with dt / friction finite, got {friction}")
    d = x[1:] - x[:-1]
    return x[:-1], d, dts, dts / friction


def objective(traj: Trajectory, model: DriftModel, friction: float,
              theta: float) -> float:
    """Evaluate the least-squares objective at one theta."""
    if len(traj.grid) < 2:
        raise ValueError("objective needs at least two observation points")
    xprev, d, dts, scale = _residual_parts(traj, friction)
    r = d - scale * (theta * model.b1(xprev) + model.b0)
    return float(np.sum(r * r / dts))


def quadratic_coefficients(traj: Trajectory, model: DriftModel,
                           friction: float):
    """Coefficients (A, B, C) with F(theta) = A theta^2 + B theta + C."""
    xprev, d, dts, scale = _residual_parts(traj, friction)
    u = d - scale * model.b0
    w = scale * model.b1(xprev)
    a = float(np.sum(w * w / dts))
    b = -2.0 * float(np.sum(u * w / dts))
    c = float(np.sum(u * u / dts))
    return a, b, c


def objective_curve(traj: Trajectory, model: DriftModel, friction: float,
                    thetas: np.ndarray) -> np.ndarray:
    """The objective at every theta of a grid, from the quadratic
    coefficients."""
    a, b, c = quadratic_coefficients(traj, model, friction)
    return (a * thetas + b) * thetas + c


def minimize_closed_form(traj: Trajectory, model: DriftModel, friction: float,
                         space: ParameterSpace) -> EstimationResult:
    """Exact quadratic vertex, clipped to the parameter space."""
    a, b, _ = quadratic_coefficients(traj, model, friction)
    if not a > 0 or not math.isfinite(a):
        raise IdentifiabilityError(
            "theta is not identifiable from this path: sum of ||b1||^2 dt "
            f"is {a:g} (b1 vanishes along the trajectory)")
    vertex = -b / (2.0 * a)
    theta_hat = min(max(vertex, space.lo), space.hi)
    return EstimationResult(
        theta_hat=theta_hat,
        objective_at_min=objective(traj, model, friction, theta_hat),
        method="closed-form",
        at_boundary=theta_hat != vertex,
        evaluations=1,
    )


def minimize_golden(traj: Trajectory, model: DriftModel, friction: float,
                    space: ParameterSpace, tol: float = 1e-10,
                    scan_points: int = 101) -> EstimationResult:
    """Derivative-free minimization: coarse grid scan to bracket the minimum,
    then golden-section search until the bracket is below tol, or below a few
    ulps of its ends when tol is finer than that."""
    if not tol > 0:
        raise ValueError("tol must be > 0")

    def f(theta):
        # an overflowing objective is reported below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            value = objective(traj, model, friction, theta)
        if not math.isfinite(value):
            raise ValueError(
                f"objective is {value:g} at theta={theta:g}: golden section cannot "
                f"compare it; narrow the interval [{space.lo:g}, {space.hi:g}]")
        return value

    thetas = np.linspace(space.lo, space.hi, scan_points)
    values = [f(t) for t in thetas]
    evals = scan_points
    if min(values) == max(values):
        raise IdentifiabilityError(
            "theta is not identifiable from this path: the objective is flat "
            f"over [{space.lo:g}, {space.hi:g}]")
    i = int(np.argmin(values))
    lo = thetas[max(i - 1, 0)]
    hi = thetas[min(i + 1, scan_points - 1)]
    # the bracket cannot shrink below the spacing of doubles near its ends
    tol = max(tol, 4.0 * float(np.spacing(max(abs(lo), abs(hi)))))

    # Golden-section on [lo, hi]; the scan guarantees the bracket holds the
    # best sampled point.
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    evals += 2
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
        evals += 1
    theta_hat = 0.5 * (lo + hi)
    # value comparisons stall near sqrt(machine eps) relative accuracy, so
    # polish with one parabolic fit over a stencil wide enough that the
    # three objective values differ well above rounding noise
    h = max(tol, 6e-6 * (1.0 + abs(theta_hat)))
    left = max(space.lo, theta_hat - h)
    right = min(space.hi, theta_hat + h)
    mid = 0.5 * (left + right)
    fl, fm, fr = f(left), f(mid), f(right)
    evals += 3
    num = (mid - left) ** 2 * (fm - fr) - (mid - right) ** 2 * (fm - fl)
    den = (mid - left) * (fm - fr) - (mid - right) * (fm - fl)
    if den < 0:  # negative den means the fitted parabola is convex
        vertex = mid - 0.5 * num / den
        if left <= vertex <= right:
            theta_hat = vertex
    boundary_tol = max(tol, (space.hi - space.lo) / (scan_points - 1))
    return EstimationResult(
        theta_hat=float(theta_hat),
        objective_at_min=f(theta_hat),
        method="golden",
        at_boundary=(theta_hat - space.lo <= boundary_tol
                     or space.hi - theta_hat <= boundary_tol),
        evaluations=evals + 1,
    )


def uniform_objective_gap(traj_under: Trajectory, traj_over: Trajectory,
                          model: DriftModel, friction: float,
                          space: ParameterSpace,
                          grid_points: int = 1001) -> float:
    """max over a theta grid of |F_underdamped(theta) - F_overdamped(theta)|,
    the empirical uniform-convergence diagnostic for coupled runs."""
    if traj_under.grid != traj_over.grid:
        raise ValueError("uniform_objective_gap requires trajectories on the same grid")
    thetas = np.linspace(space.lo, space.hi, grid_points)
    au, bu, cu = quadratic_coefficients(traj_under, model, friction)
    ao, bo, co = quadratic_coefficients(traj_over, model, friction)
    diff = ((au - ao) * thetas + (bu - bo)) * thetas + (cu - co)
    return float(np.max(np.abs(diff)))
