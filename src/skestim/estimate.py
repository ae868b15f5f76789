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

    def f(theta: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            r = d - scale * (theta * g + b0)
            return float(np.sum(r * r / dts))
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
        u = d - scale * model.b0
        w = scale * model.b1(xprev)
        a = np.sum(w * w / dts, axis=-1)
        b = -2.0 * np.sum(u * w / dts, axis=-1)
        c = np.sum(u * u / dts, axis=-1)
    return a, b, c


def _check_coefficients(a: float, b: float):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(
            f"the objective's coefficients overflow (A={a:g}, B={b:g}): the "
            "drift scale b1 * dt / friction is too large along this path for "
            "the friction given")


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
    """The objective at every theta of a grid, from the quadratic
    coefficients; a value that is not finite is a ValueError."""
    a, b, c = quadratic_coefficients(traj, model, friction)
    with np.errstate(over="ignore", invalid="ignore"):
        values = (a * thetas + b) * thetas + c
    return _check_objective(values, thetas, np.min(thetas), np.max(thetas))


def clipped_vertex(a: float, b: float, space: ParameterSpace):
    """The minimizer -B / (2A) of A theta^2 + B theta + C clipped to the
    space, and whether the clip moved it."""
    _check_coefficients(a, b)
    if not a > 0:
        raise IdentifiabilityError(
            "theta is not identifiable from this path: sum of ||b1||^2 dt "
            f"is {a:g} (b1 vanishes along the trajectory)")
    vertex = -b / (2.0 * a)
    theta_hat = min(max(vertex, space.lo), space.hi)
    return theta_hat, theta_hat != vertex


def minimize_closed_form(traj: Trajectory, model: DriftModel, friction: float,
                         space: ParameterSpace) -> EstimationResult:
    """Exact quadratic vertex, clipped to the parameter space."""
    a, b, _ = quadratic_coefficients(traj, model, friction)
    theta_hat, at_boundary = clipped_vertex(a, b, space)
    return EstimationResult(
        theta_hat=theta_hat,
        objective_at_min=_check_objective(objective(traj, model, friction, theta_hat),
                                          theta_hat, space.lo, space.hi),
        method="closed-form",
        at_boundary=at_boundary,
        evaluations=1,
    )


def minimize_golden(traj: Trajectory, model: DriftModel, friction: float,
                    space: ParameterSpace, tol: float = GOLDEN_TOL,
                    scan_points: int = 101) -> EstimationResult:
    """Derivative-free minimization: coarse grid scan to bracket the minimum,
    then golden-section search until the bracket is below tol, or below a few
    ulps of its ends when tol is finer than that."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and > 0, got {tol}")

    path_objective = _path_objective(traj, model, friction)

    def f(theta):
        return _check_objective(path_objective(theta), theta, space.lo, space.hi)

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
