import hashlib
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

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_friction_underflowing_the_substep_is_rejected(self, sigma):
        # gamma * h underflows to 0: a parameter error before the loop, not
        # a ZeroDivisionError or a divergence reported by the loop
        grid = ObservationGrid.uniform(5, 0.01, 10)
        p = SystemParams(mass=1.0, friction=1e-321, noise=sigma, x0=1.0, v0=0.0)
        with pytest.raises(ValueError, match="friction"):
            simulate_underdamped(OU, 1.0, p, grid, EXP, make_noise_path(1, 0, grid))
        with pytest.raises(ValueError, match="friction"):
            simulate_overdamped(OU, 1.0, p, grid, make_noise_path(1, 0, grid))

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
        model = DriftModel("const", lambda x: 0.0, lambda x: 0.0, gamma * c)
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
        def cube(x):
            return x * x * x

        cubic = DriftModel("cubic", cube, cube, 0.0)
        grid = ObservationGrid.uniform(50, 1.0, 1)
        p = SystemParams(mass=1.0, friction=1.0, noise=0.0, x0=3.0)
        with pytest.raises(DivergenceError, match="substep"):
            simulate_overdamped(cubic, 1.0, p, grid, zero_noise(grid))


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


# SHA-256 of the positions (then velocities) bytes of 200-interval paths,
# recorded before the integrator loops ran on Python floats. A kernel change
# that moves any float of any scheme fails here and must say so.
FROZEN_DIGESTS = {
    ("colloidal", 1, "exponential-velocity"):
        "e7f2abcac09e8d0c9aff681de049d04efe5ab4cadd34eec7bf36a94d32894ad4",
    ("colloidal", 1, "euler-maruyama"):
        "f6cad3bb46ec4c2e9318b487ea8d1d166313ee5070b7c0e88b40e77000f4bd4a",
    ("colloidal", 1, "overdamped"):
        "3f6d4c2a2d637347b40a931464f53100cbb0a0c60cfa02ea95f222461de1260b",
    ("colloidal", 10, "exponential-velocity"):
        "e26d7d7a69f039cd01c4177ce7435e5a5ec5dfc75dcf218dbbe328a772b5f6a8",
    ("colloidal", 10, "euler-maruyama"):
        "363357e537ff2d5bc8c10922843dc9f5401d5af255d7c79f30dc212dcb9f9c0b",
    ("colloidal", 10, "overdamped"):
        "9c84b95ac453f704be862cddc5931f84c5ef409108b3971dfb45489d06a00008",
    ("ou", 1, "exponential-velocity"):
        "a4c76eabf60386a9757416db916167fd47b310e832b415d25ee4c4c4d3227249",
    ("ou", 1, "euler-maruyama"):
        "c5e70e2276195ee2edf70848f99318ac06130f6b4bce22433c1b4504825c8ebb",
    ("ou", 1, "overdamped"):
        "4538bb4a7e3362e42839875fdd0717e5dfa1efcad9432b8f50990e01d8c1d98f",
    ("ou", 10, "exponential-velocity"):
        "e2010bb4fc261384093919d17b1a8ae7ad03650d12b9d9b076968762b2a82046",
    ("ou", 10, "euler-maruyama"):
        "e27e71f6c00c9b715aeab7b02e3aa14c1a72c5582aef4095182df5a8fc25ddbf",
    ("ou", 10, "overdamped"):
        "1f2448c5d5007484f715c999689f271b44464350953f29ae53501f0b0760dcb2",
}
# friction, noise, theta and x0 per model
FROZEN_PARAMS = {"colloidal": (1 / 6, 10.0, 0.02, 0.5), "ou": (1.0, 1.0, 1.0, 1.0)}


@pytest.mark.parametrize("model_id,substeps,scheme", sorted(FROZEN_DIGESTS))
def test_frozen_outputs(model_id, substeps, scheme):
    gamma, sigma, theta, x0 = FROZEN_PARAMS[model_id]
    model = MODELS[model_id]()
    grid = ObservationGrid.uniform(200, 0.01, substeps)
    noise = make_noise_path(13, substeps, grid)
    if scheme == "overdamped":
        p = SystemParams(mass=1.0, friction=gamma, noise=sigma, x0=x0)
        traj = simulate_overdamped(model, theta, p, grid, noise)
    else:
        # Euler at a mass its stability guard admits at one substep
        mu = 1e-3 if scheme == EXP.value else 0.1
        p = SystemParams(mass=mu, friction=gamma, noise=sigma, x0=x0, v0=0.0)
        traj = simulate_underdamped(model, theta, p, grid, Scheme(scheme), noise)
    digest = hashlib.sha256(traj.positions.astype("<f8").tobytes())
    if traj.velocities is not None:
        digest.update(traj.velocities.astype("<f8").tobytes())
    assert digest.hexdigest() == FROZEN_DIGESTS[model_id, substeps, scheme]
