import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skestim import (DriftModel, IdentifiabilityError, MODELS,
                     ObservationGrid, ParameterSpace, Scheme, SystemParams,
                     Trajectory, minimize_closed_form,
                     minimize_golden, objective, objective_curve, simulate_overdamped,
                     simulate_underdamped, uniform_objective_gap)
from skestim.core import philox_generator
from skestim.estimate import (_path_objective, _residual_parts, clipped_vertex,
                              path_coefficients, quadratic_coefficients)

EXP = Scheme.EXPONENTIAL_VELOCITY
CONST_FORCE = MODELS["constant-force"]
OU = MODELS["ou"]


def hand_trajectory():
    """x goes 0 -> 1 over a unit interval; with b = theta and gamma = 1 the
    objective is exactly (1 - theta)^2."""
    return Trajectory(times=[0.0, 1.0], positions=np.array([0.0, 1.0]))


def simulate_ou_dataset(seed, n=50, dt=0.1, sigma=0.3, theta=1.0):
    grid = ObservationGrid.uniform(n, dt, 1)
    p = SystemParams(mass=1.0, friction=1.0, noise=sigma, x0=1.0)
    return simulate_overdamped(OU, theta, p, grid, philox_generator(seed, 0))


class TestObjective:

    def test_hand_case_single_interval(self):
        traj = hand_trajectory()
        for theta in [-1.0, 0.0, 0.3, 1.0, 2.5]:
            assert objective(traj, CONST_FORCE, 1.0, theta) == pytest.approx(
                (1.0 - theta) ** 2, abs=1e-15)

    def test_zero_for_data_matching_model(self):
        # data generated by the same Euler step with sigma=0 and a
        # theta-independent drift leaves zero residuals for every theta
        gamma, c = 2.0, 0.4
        model = DriftModel("const", lambda x: 0.0, gamma * c)
        times = np.array([0.0, 0.5, 0.7, 1.9])
        traj = Trajectory(times=times, positions=c * times)
        for theta in [0.0, 1.0, -3.0]:
            assert objective(traj, model, gamma, theta) == pytest.approx(0.0, abs=1e-24)

    def test_invalid_friction(self):
        with pytest.raises(ValueError, match="friction"):
            objective(hand_trajectory(), CONST_FORCE, -1.0, 0.0)

    @pytest.mark.parametrize("friction", [0.0, -1.0, math.inf, math.nan, 1e-320,
                                          1e-310])
    def test_closed_form_rejects_invalid_friction(self, friction):
        # checked where the residuals are formed, so the quadratic
        # coefficients never divide by zero or by a non-finite friction
        with pytest.raises(ValueError, match="friction"):
            minimize_closed_form(hand_trajectory(), CONST_FORCE, friction,
                                 ParameterSpace(0.0, 2.0))

    def test_quadratic_structure(self):
        # for linear-in-theta models a parabola through 3 points reproduces
        # the objective everywhere
        traj = simulate_ou_dataset(seed=5)
        pts = np.array([-1.0, 0.0, 2.0])
        vals = [objective(traj, OU, 1.0, t) for t in pts]
        coeffs = np.polyfit(pts, vals, 2)
        for theta in np.linspace(-3.0, 3.0, 20):
            expected = np.polyval(coeffs, theta)
            got = objective(traj, OU, 1.0, theta)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestClosedForm:

    def test_hand_case_vertex(self):
        res = minimize_closed_form(hand_trajectory(), CONST_FORCE, 1.0,
                                   ParameterSpace(0.0, 2.0))
        assert res.theta_hat == pytest.approx(1.0, abs=1e-14)
        assert not res.at_boundary
        assert res.method == "closed-form"

    def test_clipping_sets_boundary_flag(self):
        res = minimize_closed_form(hand_trajectory(), CONST_FORCE, 1.0,
                                   ParameterSpace(0.0, 0.5))
        assert res.theta_hat == 0.5
        assert res.at_boundary

    def test_objective_at_min_consistent(self):
        traj = simulate_ou_dataset(seed=2)
        res = minimize_closed_form(traj, OU, 1.0, ParameterSpace(-5.0, 5.0))
        re_eval = objective(traj, OU, 1.0, res.theta_hat)
        assert res.objective_at_min == pytest.approx(re_eval, rel=1e-10)

    def test_identifiability_error_when_b1_vanishes(self):
        # OU model on an all-zero path: b1(x) = -x vanishes identically
        grid = ObservationGrid.uniform(5, 0.1)
        traj = Trajectory(times=grid.times, positions=np.zeros(6))
        with pytest.raises(IdentifiabilityError):
            minimize_closed_form(traj, OU, 1.0, ParameterSpace(-1.0, 1.0))

    @pytest.mark.parametrize("model", [OU, CONST_FORCE])
    def test_overflowing_coefficients_are_a_friction_error(self, model):
        # friction 1e-307 passes the friction checks, but (dt / friction)^2
        # overflows A: a ValueError naming the friction, without a warning,
        # not an IdentifiabilityError saying b1 vanishes
        traj = Trajectory(times=[0.0, 1.0, 2.0], positions=np.array([1.0, 2.0, 1.5]))
        with pytest.raises(ValueError, match="friction"):
            minimize_closed_form(traj, model, 1e-307, ParameterSpace(0.0, 1.0))

    def test_every_use_of_the_coefficients_rejects_overflow(self):
        # A overflows while the objective stays finite on a tiny interval:
        # the curve and the gap raise clipped_vertex's error, not a warning
        traj = Trajectory(times=[0.0, 0.01, 0.02],
                          positions=np.array([0.0, 1e-3, 2e-3]))
        for run in (lambda: quadratic_coefficients(traj, OU, 1e-307),
                    lambda: objective_curve(traj, OU, 1e-307, np.linspace(0.0, 1e-300, 5)),
                    lambda: uniform_objective_gap(traj, traj, OU, 1e-307,
                                                  ParameterSpace(0.0, 1e-300))):
            with pytest.raises(ValueError, match="coefficients overflow"):
                run()

    def test_non_finite_objective_at_the_vertex_names_c(self):
        # far from the wall at a tiny friction A and B stay finite, but C and
        # so the objective at the vertex overflow; it named the interval
        traj = Trajectory(times=[0.0, 1.0, 2.0],
                          positions=np.array([5000.0, 5001.0, 5000.5]))
        with pytest.raises(ValueError, match=r"coefficient C = F\(0\) overflows \(C=inf\)"):
            minimize_closed_form(traj, MODELS["colloidal"], 1e-160,
                                 ParameterSpace(0.0, 1e300))

    @pytest.mark.parametrize("run", [
        lambda t, s: minimize_closed_form(t, CONST_FORCE, 1.0, s),
        lambda t, s: objective_curve(t, CONST_FORCE, 1.0, np.linspace(s.lo, s.hi, 5)),
        lambda t, s: uniform_objective_gap(t, t, CONST_FORCE, 1.0, s),
        lambda t, s: minimize_golden(t, CONST_FORCE, 1.0, s)],
        ids=["closed-form", "curve", "gap", "golden"])
    def test_overflowing_c_is_named_not_the_interval(self, run):
        # coefficients (2, -0, inf): the objective is inf at every theta, and
        # each call told the user to narrow the interval
        traj = Trajectory(times=[0.0, 1.0, 2.0],
                          positions=np.array([0.0, 1e200, 0.0]))
        with pytest.raises(ValueError, match=r"^the objective's coefficient C = F\(0\) "
                                             r"overflows \(C=inf\): the increments"):
            run(traj, ParameterSpace(-1.0, 1.0))

    def test_overflowing_c_cancelled_at_the_vertex_still_fits(self):
        # C = 1e400 overflows, but the residual vanishes at the vertex
        # theta = 1e200, where the direct objective is 0
        traj = Trajectory(times=[0.0, 1.0], positions=np.array([0.0, 1e200]))
        assert quadratic_coefficients(traj, CONST_FORCE, 1.0) == (1.0, -2e200, math.inf)
        result = minimize_closed_form(traj, CONST_FORCE, 1.0, ParameterSpace(-1.0, 1e300))
        assert (result.theta_hat, result.objective_at_min) == (1e200, 0.0)

    def test_non_finite_objective_at_the_clipped_vertex(self):
        traj = Trajectory(times=[0.0, 1.0, 2.0],
                          positions=np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ValueError, match=r"theta=1e\+299.*\[1e\+299, 1e\+300\]"):
            minimize_closed_form(traj, OU, 1.0, ParameterSpace(1e299, 1e300))

    def test_non_finite_curve_names_the_first_theta_and_the_interval(self):
        # finite coefficients, but A theta^2 overflows at the ends of the grid
        traj = Trajectory(times=[0.0, 1.0, 2.0],
                          positions=np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ValueError, match=r"inf at theta=-1e\+300, not a finite "
                                             r"value; narrow the interval "
                                             r"\[-1e\+300, 1e\+300\]"):
            objective_curve(traj, OU, 1.0, np.linspace(-1e300, 1e300, 5))

    def test_friction_times_step_underflowing_is_rejected(self):
        # every quotient of the friction is finite, but friction * dt is 0
        traj = Trajectory(times=[0.0, 1e-200, 2e-200],
                          positions=np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ValueError, match=r"friction \* step > 0"):
            minimize_closed_form(traj, OU, 1e-200, ParameterSpace(0.0, 1.0))

    def test_clipped_vertex_tells_overflow_from_vanishing_b1(self):
        space = ParameterSpace(0.0, 1.0)
        for a, b in [(math.inf, 1.0), (1.0, -math.inf), (math.inf, math.nan),
                     (math.nan, 0.0)]:
            with pytest.raises(ValueError, match="friction"):
                clipped_vertex(a, b, space)
        with pytest.raises(IdentifiabilityError, match="vanishes"):
            clipped_vertex(0.0, 1.0, space)

    def test_zero_noise_recovers_theta_exactly(self):
        # sigma=0 data from the overdamped Euler scheme on the observation
        # grid: residuals vanish identically at the true theta
        for model_name, theta0, x0 in [("colloidal", 0.02, 0.0), ("ou", 1.0, 1.0)]:
            model = MODELS[model_name]
            gamma = 1 / 6 if model_name == "colloidal" else 1.0
            grid = ObservationGrid.uniform(200, 0.05, 1)
            p = SystemParams(mass=1.0, friction=gamma, noise=0.0, x0=x0)
            traj = simulate_overdamped(model, theta0, p, grid, philox_generator(0, 0))
            res = minimize_closed_form(traj, model, gamma,
                                       ParameterSpace(theta0 - 1.0, theta0 + 1.0))
            assert res.theta_hat == pytest.approx(theta0, abs=1e-10)

    def test_time_rescaling_invariance(self):
        # scaling every dt by c while scaling friction by c leaves the data
        # and the continuous model equivalent; the minimizer must not move
        traj = simulate_ou_dataset(seed=9)
        res = minimize_closed_form(traj, OU, 1.0, ParameterSpace(-5.0, 5.0))
        c = 3.7
        scaled = Trajectory(times=traj.times * c, positions=traj.positions)
        res_scaled = minimize_closed_form(scaled, OU, c * 1.0,
                                          ParameterSpace(-5.0, 5.0))
        assert res_scaled.theta_hat == pytest.approx(res.theta_hat, abs=1e-10)


class TestGolden:

    def test_hand_case(self):
        res = minimize_golden(hand_trajectory(), CONST_FORCE, 1.0,
                              ParameterSpace(0.0, 2.0), tol=1e-10)
        assert res.theta_hat == pytest.approx(1.0, abs=1e-9)
        assert res.method == "golden"
        assert res.evaluations == 58

    def test_agrees_with_closed_form(self):
        for seed in range(10):
            traj = simulate_ou_dataset(seed=seed)
            space = ParameterSpace(-5.0, 5.0)
            cf = minimize_closed_form(traj, OU, 1.0, space)
            gs = minimize_golden(traj, OU, 1.0, space, tol=1e-10)
            assert gs.theta_hat == pytest.approx(cf.theta_hat, abs=1e-8)

    def test_agrees_with_grid_scan_oracle(self):
        traj = simulate_ou_dataset(seed=4)
        space = ParameterSpace(-2.0, 4.0)
        thetas = np.arange(space.lo, space.hi + 1e-9, 1e-5)
        # the objective at every theta, a block of thetas a row each, in the
        # evaluator's order: r = d - scale * (theta * g + b0), sum(r * r / dts)
        dts = traj.dts
        xprev, d, scale = _residual_parts(traj.positions, dts, 1.0)
        g = OU.b1(xprev)
        vals = []
        for block in np.array_split(thetas, 20):
            r = d - scale * (block[:, None] * g + OU.b0)
            vals.append(np.sum(r * r / dts, axis=-1))
        vals = np.concatenate(vals)
        # objective() is this evaluator used once: the same doubles
        f = _path_objective(traj, OU, 1.0)
        some = np.linspace(0, len(thetas) - 1, 101).astype(int)
        assert np.array_equal(vals[some], [f(t) for t in thetas[some]])
        brute = thetas[int(np.argmin(vals))]
        res = minimize_golden(traj, OU, 1.0, space, tol=1e-8)
        assert abs(res.theta_hat - brute) <= 1e-5

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            minimize_golden(hand_trajectory(), CONST_FORCE, 1.0,
                            ParameterSpace(0.0, 1.0), tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            minimize_golden(hand_trajectory(), CONST_FORCE, 1.0,
                            ParameterSpace(0.0, 1.0), tol=tol)

    def test_flat_objective_not_identifiable(self):
        # zero drift: the objective does not depend on theta at all
        traj = simulate_ou_dataset(seed=1)
        with pytest.raises(IdentifiabilityError, match="flat"):
            minimize_golden(traj, MODELS["zero-drift"], 1.0,
                            ParameterSpace(-5.0, 5.0))

    def test_non_finite_objective_raises(self):
        # theta^2 sum(b1^2 dt) overflows over most of this interval, and
        # comparing inf values would pick an arbitrary theta
        traj = simulate_ou_dataset(seed=2)
        with pytest.raises(ValueError, match=r"\[-1e\+300, 1e\+300\]"):
            minimize_golden(traj, OU, 1.0, ParameterSpace(-1e300, 1e300))

    def test_objective_overflowing_only_at_hi_names_that_end(self):
        # A theta^2 overflows past 1.7e154 here, so both inner points are
        # finite: the convex objective's largest value is at an end, and the
        # ends are evaluated first
        traj = simulate_ou_dataset(seed=3)
        with pytest.raises(ValueError, match=r"inf at theta=2e\+154, not a finite"):
            minimize_golden(traj, OU, 1.0, ParameterSpace(0.0, 2e154))

    @pytest.mark.parametrize("offsets", [(-0.005, 9.995), (1.0, 5.0), (-5.0, -1.0),
                                         (-5.0, 5.0)],
                             ids=["vertex-just-inside-lo", "clipped-at-lo",
                                  "clipped-at-hi", "vertex-inside"])
    def test_at_boundary_agrees_with_closed_form(self, offsets):
        # golden flags theta_hat within its final bracket width of a bound,
        # which the closed form's clip matches; a vertex 0.005 inside lo of a
        # 10-wide interval is not at the boundary
        traj = simulate_ou_dataset(seed=3)
        vertex = minimize_closed_form(traj, OU, 1.0, ParameterSpace(-5.0, 5.0)).theta_hat
        space = ParameterSpace(vertex + offsets[0], vertex + offsets[1])
        cf = minimize_closed_form(traj, OU, 1.0, space)
        gs = minimize_golden(traj, OU, 1.0, space)
        assert gs.at_boundary == cf.at_boundary
        assert gs.theta_hat == pytest.approx(cf.theta_hat, abs=1e-10)

    def test_tol_below_double_spacing_terminates(self):
        # the bracket cannot shrink below a few ulps; tol is floored there
        traj = simulate_ou_dataset(seed=6)
        space = ParameterSpace(-5.0, 5.0)
        res = minimize_golden(traj, OU, 1.0, space, tol=1e-300)
        cf = minimize_closed_form(traj, OU, 1.0, space)
        assert res.evaluations < 300
        assert res.theta_hat == pytest.approx(cf.theta_hat, abs=1e-8)

    def test_default_tol_results_frozen(self):
        # values recorded when the simulators took one substep width per
        # grid; the OU result is 3.4e-12 from the closed form's
        # 1.0869672586870704
        res = minimize_golden(simulate_ou_dataset(seed=3), OU, 1.0,
                              ParameterSpace(-5.0, 5.0))
        assert (res.theta_hat, res.evaluations) == (1.0869672586904933, 61)
        res = minimize_golden(hand_trajectory(), CONST_FORCE, 1.0,
                              ParameterSpace(0.0, 2.0))
        assert (res.theta_hat, res.evaluations) == (1.0, 58)

    def test_evaluates_b1_once_per_call(self):
        # the objective's theta-independent parts are computed once per
        # path, not once per evaluation
        calls = []

        def b1(x):
            calls.append(len(x))
            return -x

        model = DriftModel("ou-spy", b1, 0.0)
        traj = simulate_ou_dataset(seed=3)
        res = minimize_golden(traj, model, 1.0, ParameterSpace(-5.0, 5.0))
        assert res.evaluations == 61
        assert calls == [len(traj.positions) - 1]


def reference_objective(traj, model, friction, theta):
    """The objective as one expression, every part recomputed per theta."""
    x, dts = traj.positions, traj.dts
    with np.errstate(over="ignore", invalid="ignore"):
        r = x[1:] - x[:-1] - dts / friction * (theta * model.b1(x[:-1]) + model.b0)
        return float(np.sum(r * r / dts))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_path_objective_equals_the_per_theta_expression(name):
    # one evaluator serves every theta; constant-force and zero-drift have
    # a scalar b1
    model = MODELS[name]
    friction = 1 / 6 if name == "colloidal" else 1.0
    p = SystemParams(mass=1.0, friction=friction, noise=0.5, x0=1.0)
    path = simulate_overdamped(model, 0.02 if name == "colloidal" else 1.0, p,
                               ObservationGrid.uniform(80, 0.1), philox_generator(5, 0))
    # the path observed at non-uniform times, which the estimator takes
    times = np.cumsum(np.r_[0.0, np.linspace(0.05, 0.15, 80)])
    traj = Trajectory(times=times, positions=path.positions)
    evaluate = _path_objective(traj, model, friction)
    for theta in np.linspace(-3.0, 3.0, 41).tolist() + [1e200, -1e300]:
        want = reference_objective(traj, model, friction, theta)
        assert evaluate(theta) == want
        assert objective(traj, model, friction, theta) == want


# model -> (friction, range of the true theta, search space)
RANDOM_PATH_CASES = {
    "ou": (1.0, (0.2, 3.0), ParameterSpace(-5.0, 5.0)),
    "constant-force": (1.0, (-2.0, 2.0), ParameterSpace(-5.0, 5.0)),
    "colloidal": (1 / 6, (0.0, 0.05), ParameterSpace(0.0, 0.1)),
    "zero-drift": (1.0, (-2.0, 2.0), ParameterSpace(-5.0, 5.0)),
}


@settings(max_examples=80, deadline=None, database=None)
@given(name=st.sampled_from(sorted(RANDOM_PATH_CASES)),
       seed=st.integers(0, 2 ** 32), n=st.integers(5, 60),
       frac=st.floats(0.0, 1.0), sigma=st.floats(0.05, 1.0),
       x0=st.floats(0.0, 2.0))
def test_golden_agrees_with_closed_form_on_random_paths(name, seed, n, frac,
                                                       sigma, x0):
    friction, (lo, hi), space = RANDOM_PATH_CASES[name]
    model = MODELS[name]
    grid = ObservationGrid.uniform(n, 0.1, 1)
    p = SystemParams(mass=1.0, friction=friction, noise=sigma, x0=x0)
    traj = simulate_overdamped(model, lo + frac * (hi - lo), p, grid,
                               philox_generator(seed, 0))
    if name == "zero-drift":
        with pytest.raises(IdentifiabilityError):
            minimize_closed_form(traj, model, friction, space)
        with pytest.raises(IdentifiabilityError):
            minimize_golden(traj, model, friction, space)
        return
    cf = minimize_closed_form(traj, model, friction, space)
    gs = minimize_golden(traj, model, friction, space)
    if cf.at_boundary:
        assert gs.at_boundary
    else:
        assert gs.theta_hat == pytest.approx(cf.theta_hat, abs=1e-8)

class TestParameterSpace:

    def test_requires_order(self):
        with pytest.raises(ValueError):
            ParameterSpace(1.0, 1.0)

    def test_requires_finite(self):
        with pytest.raises(ValueError):
            ParameterSpace(0.0, math.inf)


class TestUniformObjectiveGap:

    def coupled_colloidal(self, mu, n=500):
        grid = ObservationGrid.uniform(n, 0.1, 20)
        model = MODELS["colloidal"]
        p = SystemParams(mass=mu, friction=1 / 6, noise=10.0, x0=0.0, v0=0.0)
        under = simulate_underdamped(model, 0.02, p, grid, EXP, philox_generator(12, 0))
        over = simulate_overdamped(model, 0.02, p, grid, philox_generator(12, 0))
        return under, over, model

    def test_trajectories_must_share_their_times(self):
        # the same times from a grid and from a list compare equal
        under = Trajectory(times=ObservationGrid.uniform(2, 1.0).times,
                           positions=np.array([0.0, 1.0, 0.5]))
        over = Trajectory(times=[0.0, 1.0, 2.0], positions=np.array([0.0, 0.5, 0.5]))
        assert uniform_objective_gap(under, over, OU, 1.0, ParameterSpace(-1.0, 1.0)) > 0
        later = Trajectory(times=[0.0, 1.0, 3.0], positions=over.positions)
        with pytest.raises(ValueError, match="^uniform_objective_gap requires "
                                             "trajectories on the same grid$"):
            uniform_objective_gap(under, later, OU, 1.0, ParameterSpace(-1.0, 1.0))

    def test_identical_trajectories_zero_gap(self):
        traj = simulate_ou_dataset(seed=1)
        gap = uniform_objective_gap(traj, traj, OU, 1.0, ParameterSpace(-2.0, 2.0))
        assert gap == 0.0

    def test_mismatched_grids_rejected(self):
        a = simulate_ou_dataset(seed=1, n=50)
        b = simulate_ou_dataset(seed=1, n=40)
        with pytest.raises(ValueError, match="grid"):
            uniform_objective_gap(a, b, OU, 1.0, ParameterSpace(-2.0, 2.0))

    def test_generic_path_matches_quadratic_path(self):
        # the exact sup from the quadratic coefficients is at least the
        # per-theta maximum of |objective_under - objective_over| on a dense
        # grid, and above it by no more than 10x the largest rounding gap
        # between the two evaluations on that grid (1.04e-15 of the gap)
        under, over, model = self.coupled_colloidal(1e-2, n=100)
        space = ParameterSpace(0.0, 0.1)
        fast = uniform_objective_gap(under, over, model, 1 / 6, space)
        slow = max(abs(objective(under, model, 1 / 6, t)
                       - objective(over, model, 1 / 6, t))
                   for t in np.linspace(space.lo, space.hi, 1001))
        assert slow <= fast <= slow * (1 + 1e-14)

    def test_non_finite_gap_is_a_value_error(self):
        # C overflows while A and B stay finite; the gap was nan for the path
        # with itself and inf with a finite path, which gamma-diagnostic
        # would have written to its CSV with exit 0. The error names C
        times = [0.0, 1.0, 2.0]
        big = Trajectory(times=times, positions=np.array([0.0, 1e200, 0.0]))
        small = Trajectory(times=times, positions=np.array([0.0, 1.0, 0.0]))
        assert quadratic_coefficients(big, CONST_FORCE, 1.0) == (2.0, -0.0, math.inf)
        for under, over in [(big, big), (big, small), (small, big)]:
            with pytest.raises(ValueError, match=r"C = F\(0\) overflows \(C=inf\)"):
                uniform_objective_gap(under, over, CONST_FORCE, 1.0,
                                      ParameterSpace(-1.0, 1.0))


def random_walks(rng, rows, n, scale):
    """rows random walks of n steps at one set of random non-uniform times"""
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.2, n))])
    positions = rng.uniform(-1.0, 1.0, (rows, 1)) + np.concatenate(
        [np.zeros((rows, 1)), np.cumsum(rng.normal(0.0, scale, (rows, n)), axis=1)], axis=1)
    return times, positions


@settings(max_examples=60, deadline=None, database=None)
@given(name=st.sampled_from(sorted(RANDOM_PATH_CASES)), rows=st.integers(1, 6),
       n=st.one_of(st.integers(1, 40), st.integers(100, 3000)),
       seed=st.integers(0, 2 ** 32), scale=st.floats(1e-3, 10.0))
def test_row_fits_equal_the_closed_form_per_row(name, rows, n, seed, scale):
    # random walks on a non-uniform grid; each row's sums, vertex, clip and
    # identifiability error must be those of the path fitted alone
    friction, _, space = RANDOM_PATH_CASES[name]
    model = MODELS[name]
    times, positions = random_walks(np.random.default_rng(seed), rows, n, scale)
    a, b, c = path_coefficients(positions, np.diff(times), model, friction)
    # one A per row also where b1 does not depend on position
    assert a.shape == b.shape == c.shape == (rows,)
    for r in range(rows):
        traj = Trajectory(times=times, positions=positions[r])
        assert (float(a[r]), float(b[r]), float(c[r])) == quadratic_coefficients(
            traj, model, friction)
        try:
            want = minimize_closed_form(traj, model, friction, space)
        except IdentifiabilityError as exc:
            with pytest.raises(IdentifiabilityError) as got:
                clipped_vertex(float(a[r]), float(b[r]), space)
            assert str(got.value) == str(exc)
        else:
            assert clipped_vertex(float(a[r]), float(b[r]), space) == (
                want.theta_hat, want.at_boundary)


@settings(max_examples=60, deadline=None, database=None)
@given(name=st.sampled_from(sorted(RANDOM_PATH_CASES)),
       n=st.one_of(st.integers(1, 40), st.integers(100, 3000)),
       seed=st.integers(0, 2 ** 32), scale=st.floats(1e-3, 10.0))
def test_gap_is_the_exact_sup_of_the_quadratic_difference(name, n, seed, scale):
    # two random walks on one non-uniform grid: the gap is |dq| at an end or
    # at the clipped vertex of the difference dq of their quadratics, and no
    # point of a 1,001-point grid gives a larger |dq| in the same Horner form
    friction, _, space = RANDOM_PATH_CASES[name]
    model = MODELS[name]
    times, positions = random_walks(np.random.default_rng(seed), 2, n, scale)
    under, over = (Trajectory(times=times, positions=row) for row in positions)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap = uniform_objective_gap(under, over, model, friction, space)
    (au, bu, cu), (ao, bo, co) = (quadratic_coefficients(traj, model, friction)
                                  for traj in (under, over))
    da, db, dc = au - ao, bu - bo, cu - co
    if name in ("constant-force", "zero-drift"):  # b1 does not depend on position
        assert da == 0.0
    thetas = np.linspace(space.lo, space.hi, 1001)
    assert gap >= np.max(np.abs((da * thetas + db) * thetas + dc))
    candidates = [space.lo, space.hi] + (
        [float(np.clip(-db / (2.0 * da), space.lo, space.hi))] if da != 0.0 else [])
    assert gap in [abs((da * t + db) * t + dc) for t in candidates]
