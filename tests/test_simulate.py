import math

import numpy as np
import pytest

from skestim import (CoupledRunResult, DivergenceError, DriftModel,
                     MODELS, ObservationGrid, Scheme,
                     SystemParams, make_noise_path, simulate_coupled,
                     simulate_overdamped, simulate_underdamped)

EXP = Scheme.EXPONENTIAL_VELOCITY
EM = Scheme.EULER_MARUYAMA
ZERO = MODELS["zero-drift"]()
OU = MODELS["ou"]()


def zero_noise(grid):
    path = make_noise_path(0, 0, grid)
    return type(path)(increments=np.zeros_like(path.increments),
                      seed=0, stream_id=0)


class TestUnderdamped:

    @pytest.mark.parametrize("scheme,mu", [(EXP, 1.0), (EXP, 1e-3), (EM, 1.0)])
    def test_equilibrium(self, scheme, mu):
        grid = ObservationGrid.uniform(20, 0.05, 2)
        p = SystemParams(mass=mu, friction=1.0, noise=0.0, x0=3.0, v0=0.0)
        traj = simulate_underdamped(ZERO, 0.0, p, grid, scheme, zero_noise(grid))
        assert np.all(traj.positions == 3.0)
        assert np.all(traj.velocities == 0.0)

    def test_free_relaxation_exponential_is_exact(self):
        # sigma=0, b=0, mu=gamma=1: v(t) = e^-t, x(t) = x0 + 1 - e^-t;
        # the exponential scheme integrates this linear flow exactly
        grid = ObservationGrid.uniform(10, 0.2, 4)
        p = SystemParams(mass=1.0, friction=1.0, noise=0.0, x0=0.5, v0=1.0)
        traj = simulate_underdamped(ZERO, 0.0, p, grid, EXP, zero_noise(grid))
        t = grid.times
        assert np.allclose(traj.velocities, np.exp(-t), atol=1e-13)
        assert np.allclose(traj.positions, 0.5 + 1.0 - np.exp(-t), atol=1e-13)

    def test_free_relaxation_euler_first_order(self):
        p = SystemParams(mass=1.0, friction=1.0, noise=0.0, x0=0.0, v0=1.0)
        errs = []
        for substeps in [10, 20, 40]:
            grid = ObservationGrid.uniform(5, 0.2, substeps)
            traj = simulate_underdamped(ZERO, 0.0, p, grid, EM, zero_noise(grid))
            errs.append(abs(traj.velocities[-1] - math.exp(-1.0)))
        assert errs[0] > errs[1] > errs[2]
        # roughly halves per refinement
        assert errs[2] < 0.6 * errs[1] < 0.36 * errs[0]

    def test_exponential_matches_analytic_at_fine_steps(self):
        grid = ObservationGrid.uniform(10, 0.1, 1000)  # substep 1e-4
        p = SystemParams(mass=1.0, friction=1.0, noise=0.0, x0=0.0, v0=1.0)
        traj = simulate_underdamped(ZERO, 0.0, p, grid, EXP, zero_noise(grid))
        assert abs(traj.positions[-1] - (1.0 - math.exp(-1.0))) < 1e-6

    def test_euler_stability_guard(self):
        grid = ObservationGrid.uniform(10, 0.1, 1)  # substep 0.1 >= mu/(2 gamma)
        p = SystemParams(mass=0.1, friction=1.0, noise=0.0, x0=0.0, v0=1.0)
        with pytest.raises(ValueError, match="stability guard"):
            simulate_underdamped(ZERO, 0.0, p, grid, EM, zero_noise(grid))

    def test_stationary_velocity_variance(self):
        # fluctuation-dissipation: var(v) -> sigma^2 / (2 gamma mu)
        mu, gamma, sigma = 1e-3, 1.0 / 6.0, 10.0
        grid = ObservationGrid.uniform(5000, 0.01, 10)  # substep 1e-3, T=50
        p = SystemParams(mass=mu, friction=gamma, noise=sigma, x0=0.0, v0=0.0)
        noise = make_noise_path(3, 0, grid)
        traj = simulate_underdamped(ZERO, 0.0, p, grid, EXP, noise)
        v = traj.velocities[100:]  # burn-in ~ 1 s >> mu/gamma
        target = sigma ** 2 / (2.0 * gamma * mu)
        assert np.var(v) == pytest.approx(target, rel=0.05)

    def test_small_mass_stability(self):
        grid = ObservationGrid.uniform(500, 0.01, 10)
        p = SystemParams(mass=1e-3, friction=1 / 6, noise=10.0, x0=0.0, v0=0.0)
        traj = simulate_underdamped(MODELS["colloidal"](), 0.02, p, grid, EXP,
                                    make_noise_path(4, 0, grid))
        assert np.all(np.isfinite(traj.positions))

    def test_observation_times_equal_grid(self):
        grid = ObservationGrid([0.0, 0.1, 0.35, 0.5], 3)
        p = SystemParams(mass=1.0, friction=1.0, noise=1.0, x0=0.0, v0=0.0)
        traj = simulate_underdamped(OU, 1.0, p, grid, EXP, make_noise_path(1, 0, grid))
        assert traj.times is grid.times

    def test_noise_length_mismatch(self):
        grid = ObservationGrid.uniform(10, 0.1, 2)
        other = ObservationGrid.uniform(10, 0.1, 3)
        p = SystemParams(mass=1.0, friction=1.0, noise=1.0)
        with pytest.raises(ValueError, match="increments"):
            simulate_underdamped(OU, 1.0, p, grid, EXP, make_noise_path(1, 0, other))


class TestOverdamped:

    def test_constant_drift_exact(self):
        # b = gamma * c makes Euler exact: x(t_k) = x0 + c * t_k
        gamma, c = 2.0, 0.7
        model = DriftModel(name="const", eval=lambda x, theta: gamma * c)
        grid = ObservationGrid([0.0, 0.125, 0.25, 1.0], 2)
        p = SystemParams(mass=1.0, friction=gamma, noise=0.0, x0=1.5)
        traj = simulate_overdamped(model, 0.0, p, grid, zero_noise(grid))
        assert np.allclose(traj.positions, 1.5 + c * grid.times, atol=1e-14)
        assert traj.velocities is None

    def test_linear_drift_converges_to_exponential(self):
        # sigma=0, b=-x, gamma=1, x0=1: x(T) = e^-T
        p = SystemParams(mass=1.0, friction=1.0, noise=0.0, x0=1.0)
        errs = []
        for substeps in [1, 10, 100]:
            grid = ObservationGrid.uniform(10, 0.1, substeps)
            traj = simulate_overdamped(OU, 1.0, p, grid, zero_noise(grid))
            errs.append(abs(traj.positions[-1] - math.exp(-1.0)))
        assert errs[0] > errs[1] > errs[2]
        # first-order Euler: error ~ (substep/2) e^-1 = 1.8e-4 at substep 1e-3
        assert errs[2] < 2.5e-4

    def test_ou_replicate_mean(self):
        # mean of x(T) is x0 * exp(-theta T / gamma); 1e4 replicates, 5 SE
        grid = ObservationGrid.uniform(10, 0.1, 5)
        p = SystemParams(mass=1.0, friction=1.0, noise=1.0, x0=1.0)
        finals = np.array([
            simulate_overdamped(OU, 1.0, p, grid,
                                make_noise_path(2024, rep, grid)).positions[-1]
            for rep in range(10_000)])
        exact = math.exp(-1.0)
        se = finals.std(ddof=1) / math.sqrt(len(finals))
        assert abs(finals.mean() - exact) < 5 * se

    def test_weak_order_replicate_mean_improves_with_refinement(self):
        # fixed seed bank; absolute error of the replicate mean of x(T)
        # against the analytic OU mean shrinks as substeps double
        theta, reps = 2.0, 20_000
        p = SystemParams(mass=1.0, friction=1.0, noise=1.0, x0=1.0)
        exact = math.exp(-2.0)
        errors = []
        for substeps in [1, 2, 4]:
            grid = ObservationGrid.uniform(4, 0.25, substeps)
            mean = np.mean([
                simulate_overdamped(OU, theta, p, grid,
                                    make_noise_path(77, rep, grid)).positions[-1]
                for rep in range(reps)])
            errors.append(abs(mean - exact))
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reports_substep(self):
        cubic = DriftModel(name="cubic", eval=lambda x, theta: x * x * x)
        grid = ObservationGrid.uniform(50, 1.0, 1)
        p = SystemParams(mass=1.0, friction=1.0, noise=0.0, x0=3.0)
        with pytest.raises(DivergenceError, match="substep"):
            simulate_overdamped(cubic, 0.0, p, grid, zero_noise(grid))


class TestCoupled:

    def test_degenerate_zero(self):
        grid = ObservationGrid.uniform(10, 0.1, 2)
        p = SystemParams(mass=0.5, friction=1.0, noise=0.0, x0=1.0, v0=0.0)
        res = simulate_coupled(ZERO, 0.0, p, grid, EXP, zero_noise(grid))
        assert res.sup_distance == 0.0

    def test_sup_distance_matches_recomputation(self):
        grid = ObservationGrid.uniform(100, 0.05, 4)
        p = SystemParams(mass=0.05, friction=1.0, noise=1.0, x0=0.0, v0=0.0)
        res = simulate_coupled(OU, 1.0, p, grid, EXP, make_noise_path(8, 0, grid))
        recomputed = np.max(np.abs(res.underdamped.positions - res.overdamped.positions))
        assert res.sup_distance == recomputed

    def test_colloidal_small_mass_trend(self):
        # shared noise path; distance shrinks as mass decreases
        grid = ObservationGrid.uniform(1000, 0.01, 10)
        noise = make_noise_path(1, 0, grid)
        model = MODELS["colloidal"]()
        sups = []
        for mu in [1e-1, 1e-2, 1e-3]:
            p = SystemParams(mass=mu, friction=1 / 6, noise=10.0, x0=0.0, v0=0.0)
            sups.append(simulate_coupled(model, 0.02, p, grid, EXP, noise).sup_distance)
        assert sups[0] > sups[1] > sups[2]

    def test_deterministic_repeat(self):
        grid = ObservationGrid.uniform(200, 0.01, 5)
        p = SystemParams(mass=1e-2, friction=1 / 6, noise=10.0, x0=0.0, v0=0.0)
        model = MODELS["colloidal"]()
        a = simulate_coupled(model, 0.02, p, grid, EXP, make_noise_path(6, 0, grid))
        b = simulate_coupled(model, 0.02, p, grid, EXP, make_noise_path(6, 0, grid))
        assert a.sup_distance == b.sup_distance
        assert np.array_equal(a.underdamped.positions, b.underdamped.positions)
