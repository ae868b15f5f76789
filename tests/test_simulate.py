import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skestim import (DivergenceError, DriftModel, MODELS, ObservationGrid,
                     Scheme, SystemParams, simulate_overdamped,
                     simulate_underdamped)
from skestim import simulate
from skestim.core import draw_increments, philox_generator
from skestim.simulate import simulate_underdamped_batch

EXP = Scheme.EXPONENTIAL_VELOCITY
EM = Scheme.EULER_MARUYAMA
ZERO = MODELS["zero-drift"]
OU = MODELS["ou"]


def run_batch(*args):
    """simulate_underdamped_batch's chunks joined into (positions, errors);
    column 0 of each chunk must be observation k0, the last of the one before."""
    parts, errors, k = [], None, 0
    for k0, positions, errors in simulate_underdamped_batch(*args):
        assert k0 == k and (k0 == 0 or positions[:, 0].tobytes() == parts[-1][:, -1].tobytes())
        parts.append(positions if k0 == 0 else positions[:, 1:])
        k += positions.shape[1] - 1
    return np.concatenate(parts, axis=1), errors


class TestUnderdamped:

    @pytest.mark.parametrize("scheme,mu", [(EXP, 1.0), (EXP, 1e-3), (EM, 1.0)])
    def test_equilibrium(self, scheme, mu):
        grid = ObservationGrid.uniform(20, 0.05, 2)
        p = SystemParams(mass=mu, friction=1.0, noise=0.0, x0=3.0, v0=0.0)
        traj = simulate_underdamped(ZERO, 0.0, p, grid, scheme, philox_generator(0, 0))
        assert np.all(traj.positions == 3.0)
        assert np.all(traj.velocities == 0.0)

    def test_free_relaxation_exponential_is_exact(self):
        # sigma=0, b=0, mu=gamma=1: v(t) = e^-t, x(t) = x0 + 1 - e^-t;
        # the exponential scheme integrates this linear flow exactly
        grid = ObservationGrid.uniform(10, 0.2, 4)
        p = SystemParams(mass=1.0, friction=1.0, noise=0.0, x0=0.5, v0=1.0)
        traj = simulate_underdamped(ZERO, 0.0, p, grid, EXP, philox_generator(0, 0))
        t = grid.times
        assert np.allclose(traj.velocities, np.exp(-t), atol=1e-13)
        assert np.allclose(traj.positions, 0.5 + 1.0 - np.exp(-t), atol=1e-13)

    def test_free_relaxation_euler_first_order(self):
        p = SystemParams(mass=1.0, friction=1.0, noise=0.0, x0=0.0, v0=1.0)
        errs = []
        for substeps in [10, 20, 40]:
            grid = ObservationGrid.uniform(5, 0.2, substeps)
            traj = simulate_underdamped(ZERO, 0.0, p, grid, EM, philox_generator(0, 0))
            errs.append(abs(traj.velocities[-1] - math.exp(-1.0)))
        assert errs[0] > errs[1] > errs[2]
        # roughly halves per refinement
        assert errs[2] < 0.6 * errs[1] < 0.36 * errs[0]

    def test_exponential_matches_analytic_at_fine_steps(self):
        grid = ObservationGrid.uniform(10, 0.1, 1000)  # substep 1e-4
        p = SystemParams(mass=1.0, friction=1.0, noise=0.0, x0=0.0, v0=1.0)
        traj = simulate_underdamped(ZERO, 0.0, p, grid, EXP, philox_generator(0, 0))
        assert abs(traj.positions[-1] - (1.0 - math.exp(-1.0))) < 1e-6

    def test_euler_stability_guard(self):
        grid = ObservationGrid.uniform(10, 0.1, 1)  # substep 0.1 >= mu/(2 gamma)
        p = SystemParams(mass=0.1, friction=1.0, noise=0.0, x0=0.0, v0=1.0)
        with pytest.raises(ValueError, match="stability guard"):
            simulate_underdamped(ZERO, 0.0, p, grid, EM, philox_generator(0, 0))

    def test_stationary_velocity_variance(self):
        # fluctuation-dissipation: var(v) -> sigma^2 / (2 gamma mu)
        mu, gamma, sigma = 1e-3, 1.0 / 6.0, 10.0
        grid = ObservationGrid.uniform(5000, 0.01, 10)  # substep 1e-3, T=50
        p = SystemParams(mass=mu, friction=gamma, noise=sigma, x0=0.0, v0=0.0)
        traj = simulate_underdamped(ZERO, 0.0, p, grid, EXP, philox_generator(3, 0))
        v = traj.velocities[100:]  # burn-in ~ 1 s >> mu/gamma
        target = sigma ** 2 / (2.0 * gamma * mu)
        assert np.var(v) == pytest.approx(target, rel=0.05)

    def test_small_mass_stability(self):
        grid = ObservationGrid.uniform(500, 0.01, 10)
        p = SystemParams(mass=1e-3, friction=1 / 6, noise=10.0, x0=0.0, v0=0.0)
        traj = simulate_underdamped(MODELS["colloidal"], 0.02, p, grid, EXP,
                                    philox_generator(4, 0))
        assert np.all(np.isfinite(traj.positions))

    def test_observation_times_equal_grid(self):
        grid = ObservationGrid([0.0, 0.1, 0.35, 0.5], 3)
        p = SystemParams(mass=1.0, friction=1.0, noise=1.0, x0=0.0, v0=0.0)
        traj = simulate_underdamped(OU, 1.0, p, grid, EXP, philox_generator(1, 0))
        assert traj.times is grid.times

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_friction_underflowing_the_substep_is_rejected(self, sigma):
        # gamma * h underflows to 0: a parameter error before the loop, not
        # a ZeroDivisionError or a divergence reported by the loop
        grid = ObservationGrid.uniform(5, 0.01, 10)
        p = SystemParams(mass=1.0, friction=1e-321, noise=sigma, x0=1.0, v0=0.0)
        with pytest.raises(ValueError, match="friction"):
            simulate_underdamped(OU, 1.0, p, grid, EXP, philox_generator(1, 0))
        with pytest.raises(ValueError, match="friction"):
            simulate_overdamped(OU, 1.0, p, grid, philox_generator(1, 0))

    @pytest.mark.parametrize("friction", [1e-310, 5e-309])
    def test_friction_overflowing_its_quotients_is_rejected(self, friction):
        # friction * substep > 0 and substep / friction is finite, but
        # 1 / friction and sigma / friction overflow
        grid = ObservationGrid.uniform(5, 0.01, 10)
        p = SystemParams(mass=1.0, friction=friction, noise=1.0, x0=1.0)
        with pytest.raises(ValueError, match="friction"):
            simulate_underdamped(OU, 1.0, p, grid, EXP, philox_generator(1, 0))
        with pytest.raises(ValueError, match="friction"):
            simulate_overdamped(OU, 1.0, p, grid, philox_generator(1, 0))
        with pytest.raises(ValueError, match="friction"):
            run_batch(OU, 1.0, p, grid, [philox_generator(1, 0)])

    @pytest.mark.parametrize("dt,substeps", [(1e-310, 1), (1e-320, 20)])
    def test_substep_too_small_for_the_exponential_scheme_is_rejected(self, dt,
                                                                      substeps):
        # friction * substep > 0, but sigma / (gamma * substep) overflows: a
        # parameter error before the loop, not a divergence reported by it
        grid = ObservationGrid.uniform(5, dt, substeps)
        p = SystemParams(mass=1e-3, friction=1.0, noise=1.0, x0=1.0)
        with pytest.raises(ValueError, match="too small for the exponential"):
            simulate_underdamped(OU, 1.0, p, grid, EXP, philox_generator(1, 0))
        with pytest.raises(ValueError, match="too small for the exponential"):
            run_batch(OU, 1.0, p, grid, [philox_generator(1, 0)])
        # Euler-Maruyama and the overdamped step never form the quotient, and
        # without noise it is 0
        simulate_underdamped(OU, 1.0, p, grid, EM, philox_generator(1, 0))
        simulate_overdamped(OU, 1.0, p, grid, philox_generator(1, 0))
        quiet = SystemParams(mass=1e-3, friction=1.0, noise=0.0, x0=1.0)
        simulate_underdamped(OU, 1.0, quiet, grid, EXP, philox_generator(1, 0))
        _, errors = run_batch(OU, 1.0, quiet, grid, [philox_generator(1, 0)])
        assert errors == [None]

    def test_mass_over_friction_checked_only_with_mass(self):
        grid = ObservationGrid.uniform(5, 0.01, 1)
        p = SystemParams(mass=1e300, friction=1e-10, noise=1.0, x0=1.0)
        with pytest.raises(ValueError, match="friction"):
            simulate_underdamped(OU, 1.0, p, grid, EXP, philox_generator(1, 0))
        simulate_overdamped(OU, 1.0, p, grid, philox_generator(1, 0))

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_theta_is_rejected(self, theta):
        grid = ObservationGrid.uniform(5, 0.01, 2)
        p = SystemParams(mass=1.0, friction=1.0, noise=1.0, x0=1.0)
        rng = philox_generator(1, 0)
        for run in (lambda m: simulate_underdamped(m, theta, p, grid, EXP, rng),
                    lambda m: simulate_underdamped(m, theta, p, grid, EM, rng),
                    lambda m: simulate_overdamped(m, theta, p, grid, rng),
                    lambda m: run_batch(m, theta, p, grid, [philox_generator(1, 0)])):
            for model in (OU, ZERO):
                with pytest.raises(ValueError, match="theta"):
                    run(model)


class TestOverdamped:

    def test_constant_drift_exact(self):
        # b = gamma * c makes Euler exact: x(t_k) = x0 + c * t_k
        gamma, c = 2.0, 0.7
        model = DriftModel("const", lambda x: 0.0, gamma * c)
        grid = ObservationGrid([0.0, 0.125, 0.25, 1.0], 2)
        p = SystemParams(mass=1.0, friction=gamma, noise=0.0, x0=1.5)
        traj = simulate_overdamped(model, 0.0, p, grid, philox_generator(0, 0))
        assert np.allclose(traj.positions, 1.5 + c * grid.times, atol=1e-14)
        assert traj.velocities is None

    def test_linear_drift_converges_to_exponential(self):
        # sigma=0, b=-x, gamma=1, x0=1: x(T) = e^-T
        p = SystemParams(mass=1.0, friction=1.0, noise=0.0, x0=1.0)
        errs = []
        for substeps in [1, 10, 100]:
            grid = ObservationGrid.uniform(10, 0.1, substeps)
            traj = simulate_overdamped(OU, 1.0, p, grid, philox_generator(0, 0))
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
                                philox_generator(2024, rep)).positions[-1]
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
                                    philox_generator(77, rep)).positions[-1]
                for rep in range(reps)])
            errors.append(abs(mean - exact))
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reports_substep(self):
        def cube(x):
            return x * x * x

        cubic = DriftModel("cubic", cube, 0.0)
        grid = ObservationGrid.uniform(50, 1.0, 1)
        p = SystemParams(mass=1.0, friction=1.0, noise=0.0, x0=3.0)
        with pytest.raises(DivergenceError, match="substep"):
            simulate_overdamped(cubic, 1.0, p, grid, philox_generator(0, 0))


def coupled_runs(model, theta, params, grid, seed):
    """The exponential-velocity run and its overdamped limit on two generators
    of stream (seed, 0), and their sup distance over the observation times."""
    under = simulate_underdamped(model, theta, params, grid, EXP, philox_generator(seed, 0))
    over = simulate_overdamped(model, theta, params, grid, philox_generator(seed, 0))
    return under, over, float(np.max(np.abs(under.positions - over.positions)))


class TestCoupled:

    def test_degenerate_zero(self):
        grid = ObservationGrid.uniform(10, 0.1, 2)
        p = SystemParams(mass=0.5, friction=1.0, noise=0.0, x0=1.0, v0=0.0)
        _, _, sup_distance = coupled_runs(ZERO, 0.0, p, grid, 0)
        assert sup_distance == 0.0

    def test_sup_distance_matches_recomputation(self):
        grid = ObservationGrid.uniform(100, 0.05, 4)
        p = SystemParams(mass=0.05, friction=1.0, noise=1.0, x0=0.0, v0=0.0)
        underdamped, overdamped, sup_distance = coupled_runs(OU, 1.0, p, grid, 8)
        recomputed = np.max(np.abs(underdamped.positions - overdamped.positions))
        assert sup_distance == recomputed

    def test_colloidal_small_mass_trend(self):
        # one noise stream for every mass; distance shrinks as mass decreases
        grid = ObservationGrid.uniform(1000, 0.01, 10)
        model = MODELS["colloidal"]
        sups = []
        for mu in [1e-1, 1e-2, 1e-3]:
            p = SystemParams(mass=mu, friction=1 / 6, noise=10.0, x0=0.0, v0=0.0)
            sups.append(coupled_runs(model, 0.02, p, grid, 1)[2])
        assert sups[0] > sups[1] > sups[2]

    def test_deterministic_repeat(self):
        grid = ObservationGrid.uniform(200, 0.01, 5)
        p = SystemParams(mass=1e-2, friction=1 / 6, noise=10.0, x0=0.0, v0=0.0)
        model = MODELS["colloidal"]
        a_under, _, a_sup = coupled_runs(model, 0.02, p, grid, 6)
        b_under, _, b_sup = coupled_runs(model, 0.02, p, grid, 6)
        assert a_sup == b_sup
        assert np.array_equal(a_under.positions, b_under.positions)


def cube(x):
    return x * x * x


CUBIC = DriftModel("cubic", cube, 0.0)


class TestBatch:

    @settings(max_examples=60, deadline=None, database=None)
    @given(model_id=st.sampled_from(["ou", "constant-force", "zero-drift", "colloidal"]),
           replicates=st.integers(1, 5), n=st.integers(1, 40),
           substeps=st.integers(1, 70), mu=st.floats(1e-4, 1.0),
           seed=st.integers(0, 2 ** 64 - 1), x0=st.floats(-2.0, 2.0),
           draw_doubles=st.integers(1, 600))
    def test_rows_equal_the_scalar_loop(self, model_id, replicates, n, substeps,
                                        mu, seed, x0, draw_doubles):
        # a small draw budget splits n * substeps into several draws, some of
        # a single interval, at different edges in the batch and the scalar loop
        model = MODELS[model_id]
        gamma, sigma, theta = (1 / 6, 10.0, 0.02) if model_id == "colloidal" else (1.0, 1.0, 1.3)
        grid = ObservationGrid.uniform(n, 0.01, substeps)
        p = SystemParams(mass=mu, friction=gamma, noise=sigma, x0=x0, v0=0.5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_DRAW_DOUBLES", draw_doubles)
            positions, errors = run_batch(
                model, theta, p, grid, [philox_generator(seed, r) for r in range(replicates)])
            wants = [simulate_underdamped(model, theta, p, grid, EXP,
                                          philox_generator(seed, r)).positions
                     for r in range(replicates)]
        assert positions.shape == (replicates, n + 1)
        assert errors == [None] * replicates
        for r, want in enumerate(wants):
            if model_id == "colloidal":
                # vector np.exp and math.exp differ by an ulp on some inputs
                np.testing.assert_allclose(positions[r], want, rtol=1e-12, atol=0)
            else:
                assert positions[r].tobytes() == want.tobytes()

    def test_diverging_row_gets_the_scalar_message(self):
        # with this seed replicate 3 escapes before the horizon, the others
        # do not
        grid = ObservationGrid.uniform(40, 0.2 * math.sqrt(40) / 40, 2)
        p = SystemParams(mass=0.1, friction=1.0, noise=1.0, x0=0.5)
        positions, errors = run_batch(
            CUBIC, 1.0, p, grid, [philox_generator(3, r) for r in range(4)])
        assert [e is None for e in errors] == [True, True, True, False]
        with pytest.raises(DivergenceError) as scalar:
            simulate_underdamped(CUBIC, 1.0, p, grid, EXP, philox_generator(3, 3))
        assert isinstance(errors[3], DivergenceError)
        assert str(errors[3]) == str(scalar.value)
        for r in range(3):
            want = simulate_underdamped(CUBIC, 1.0, p, grid, EXP,
                                        philox_generator(3, r)).positions
            assert positions[r].tobytes() == want.tobytes()


# SHA-256 of the positions (then velocities) bytes of 200-interval paths,
# recorded before the integrator loops ran on Python floats. A kernel change
# that moves any float of any scheme fails here and must say so.
FROZEN_DIGESTS = {
    ("colloidal", 1, EXP):
        "e7f2abcac09e8d0c9aff681de049d04efe5ab4cadd34eec7bf36a94d32894ad4",
    ("colloidal", 1, EM):
        "f6cad3bb46ec4c2e9318b487ea8d1d166313ee5070b7c0e88b40e77000f4bd4a",
    ("colloidal", 1, "overdamped"):
        "3f6d4c2a2d637347b40a931464f53100cbb0a0c60cfa02ea95f222461de1260b",
    ("colloidal", 10, EXP):
        "e26d7d7a69f039cd01c4177ce7435e5a5ec5dfc75dcf218dbbe328a772b5f6a8",
    ("colloidal", 10, EM):
        "363357e537ff2d5bc8c10922843dc9f5401d5af255d7c79f30dc212dcb9f9c0b",
    ("colloidal", 10, "overdamped"):
        "9c84b95ac453f704be862cddc5931f84c5ef409108b3971dfb45489d06a00008",
    ("ou", 1, EXP):
        "a4c76eabf60386a9757416db916167fd47b310e832b415d25ee4c4c4d3227249",
    ("ou", 1, EM):
        "c5e70e2276195ee2edf70848f99318ac06130f6b4bce22433c1b4504825c8ebb",
    ("ou", 1, "overdamped"):
        "4538bb4a7e3362e42839875fdd0717e5dfa1efcad9432b8f50990e01d8c1d98f",
    ("ou", 10, EXP):
        "e2010bb4fc261384093919d17b1a8ae7ad03650d12b9d9b076968762b2a82046",
    ("ou", 10, EM):
        "e27e71f6c00c9b715aeab7b02e3aa14c1a72c5582aef4095182df5a8fc25ddbf",
    ("ou", 10, "overdamped"):
        "1f2448c5d5007484f715c999689f271b44464350953f29ae53501f0b0760dcb2",
}
# friction, noise, theta and x0 per model
FROZEN_PARAMS = {"colloidal": (1 / 6, 10.0, 0.02, 0.5), "ou": (1.0, 1.0, 1.0, 1.0)}


def frozen_digest(model_id, substeps, scheme):
    gamma, sigma, theta, x0 = FROZEN_PARAMS[model_id]
    model = MODELS[model_id]
    grid = ObservationGrid.uniform(200, 0.01, substeps)
    rng = philox_generator(13, substeps)
    if scheme == "overdamped":
        p = SystemParams(mass=1.0, friction=gamma, noise=sigma, x0=x0)
        traj = simulate_overdamped(model, theta, p, grid, rng)
    else:
        # Euler at a mass its stability guard admits at one substep
        mu = 1e-3 if scheme is EXP else 0.1
        p = SystemParams(mass=mu, friction=gamma, noise=sigma, x0=x0, v0=0.0)
        traj = simulate_underdamped(model, theta, p, grid, scheme, rng)
    digest = hashlib.sha256(traj.positions.astype("<f8").tobytes())
    if traj.velocities is not None:
        digest.update(traj.velocities.astype("<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("model_id,substeps,scheme", list(FROZEN_DIGESTS))
def test_frozen_outputs(model_id, substeps, scheme):
    assert frozen_digest(model_id, substeps, scheme) == FROZEN_DIGESTS[model_id, substeps, scheme]


@pytest.mark.parametrize("model_id,substeps,scheme", list(FROZEN_DIGESTS))
def test_frozen_outputs_in_small_draws(monkeypatch, model_id, substeps, scheme):
    # 23 doubles a draw: the 200 intervals take 9 draws at one substep and
    # 100 draws of two intervals at ten
    monkeypatch.setattr(simulate, "_DRAW_DOUBLES", 23)
    assert frozen_digest(model_id, substeps, scheme) == FROZEN_DIGESTS[model_id, substeps, scheme]


def test_no_draw_exceeds_the_budget(monkeypatch):
    # long grids: every run draws its noise in several pieces, together
    # exactly the noise of its grid, and no piece above the budget
    sizes = []

    def spy(rngs, dts, substeps):
        out = draw_increments(rngs, dts, substeps)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(simulate, "draw_increments", spy)
    model = MODELS["colloidal"]
    grid = ObservationGrid.uniform(20_000, 0.01, 10)
    p = SystemParams(mass=1e-3, friction=1 / 6, noise=10.0)
    batch_grid = ObservationGrid.uniform(20_000, 0.01, 1)
    runs = [
        (lambda: simulate_underdamped(model, 0.02, p, grid, EXP, philox_generator(1, 0)),
         grid.total_substeps),
        (lambda: simulate_underdamped(model, 0.02, p, grid, EM, philox_generator(1, 0)),
         grid.total_substeps),
        (lambda: simulate_overdamped(model, 0.02, p, grid, philox_generator(1, 0)),
         grid.total_substeps),
        (lambda: run_batch(
            OU, 1.0, p, batch_grid, [philox_generator(1, r) for r in range(8)]),
         8 * batch_grid.total_substeps),
    ]
    for run, doubles in runs:
        sizes.clear()
        run()
        assert len(sizes) > 1
        assert max(sizes) <= simulate._DRAW_DOUBLES
        assert sum(sizes) == doubles


def reference_run(model, theta, p, grid, scheme, rng):
    """The integrators' per-interval loop, kept as the reference: the
    substep width float(dts[k]) / s and every coefficient recomputed each
    interval, on the noise of one draw, and the state checked at the end of
    every interval, raising the DivergenceError that loop raised."""
    mu, gamma, sigma = p.mass, p.friction, p.noise
    b1, b0 = model.b1_scalar, model.b0
    s = grid.substeps_per_interval
    inc = draw_increments([rng], grid.dts, s)[0].tolist()
    x, v = float(p.x0), float(p.v0)
    positions, velocities = [x], [v]
    for k in range(grid.n_intervals):
        h = float(grid.dts[k]) / s
        steps = inc[k * s:(k + 1) * s]
        if scheme == "overdamped":
            cb, cs = h / gamma, sigma / gamma
            for dw in steps:
                x = x + (theta * b1(x) + b0) * cb + cs * dw
        elif scheme is EM:
            cb, cg, cs = h / mu, gamma * h / mu, sigma / mu
            for dw in steps:
                b = theta * b1(x) + b0
                x, v = x + v * h, v + b * cb - v * cg + cs * dw
        else:
            a = math.exp(-gamma * h / mu)
            one_a = 1.0 - a
            relax = (mu / gamma) * one_a
            tail, inv_sg, inv_g = h - relax, sigma / (gamma * h), 1.0 / gamma
            for dw in steps:
                f = (theta * b1(x) + b0) * inv_g + inv_sg * dw
                x = x + relax * v + tail * f
                v = a * v + one_a * f
        where = f"at substep {(k + 1) * s} (t ~ {grid.times[k + 1]:g})"
        if scheme == "overdamped" and not math.isfinite(x):
            raise DivergenceError(f"overdamped run diverged {where}: x={x!r}")
        if not (math.isfinite(x) and math.isfinite(v)):
            raise DivergenceError(f"underdamped run diverged {where}: x={x!r}, v={v!r}")
        positions.append(x)
        velocities.append(v)
    return np.array(positions), np.array(velocities)


@pytest.mark.parametrize("draw_doubles", [simulate._DRAW_DOUBLES, 23])
@pytest.mark.parametrize("substeps", [1, 3])
@pytest.mark.parametrize("scheme", [EXP, EM, "overdamped"],
                         ids=["exponential", "euler", "overdamped"])
@pytest.mark.parametrize("model_id", ["ou", "colloidal"])
def test_equals_the_per_interval_loop_on_a_non_uniform_grid(
        monkeypatch, model_id, scheme, substeps, draw_doubles):
    # random interval widths: nearly every substep width is distinct
    monkeypatch.setattr(simulate, "_DRAW_DOUBLES", draw_doubles)
    widths = np.random.default_rng(substeps).uniform(0.002, 0.02, 400)
    grid = ObservationGrid(np.cumsum(np.r_[0.0, widths]), substeps)
    model = MODELS[model_id]
    gamma, sigma, theta, x0 = FROZEN_PARAMS[model_id]
    p = SystemParams(mass=1e-3 if scheme is EXP else 0.1, friction=gamma,
                     noise=sigma, x0=x0, v0=0.25)
    want_x, want_v = reference_run(model, theta, p, grid, scheme, philox_generator(4, 1))
    if scheme == "overdamped":
        traj = simulate_overdamped(model, theta, p, grid, philox_generator(4, 1))
    else:
        traj = simulate_underdamped(model, theta, p, grid, scheme, philox_generator(4, 1))
        assert traj.velocities.tobytes() == want_v.tobytes()
    assert traj.positions.tobytes() == want_x.tobytes()


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
def test_exponential_coefficients_once_per_distinct_width(monkeypatch, batch):
    widths = []

    def spy(h, mu, gamma, sigma):
        widths.append(h)
        return coefficients(h, mu, gamma, sigma)

    coefficients = simulate._exponential_coefficients
    monkeypatch.setattr(simulate, "_exponential_coefficients", spy)
    # a draw every 200 intervals: the coefficients are kept across draws
    monkeypatch.setattr(simulate, "_DRAW_DOUBLES", 2000)
    p = SystemParams(mass=1e-3, friction=1 / 6, noise=10.0)
    if batch:  # 5 replicates of 2 substeps per interval
        grid = ObservationGrid.uniform(10_000, 0.01, 2)
        run_batch(MODELS["colloidal"], 0.02, p, grid,
                  [philox_generator(1, r) for r in range(5)])
    else:
        grid = ObservationGrid.uniform(20_000, 0.01, 10)
        simulate_underdamped(MODELS["colloidal"], 0.02, p, grid, EXP, philox_generator(1, 0))
    distinct = set((grid.dts / grid.substeps_per_interval).tolist())
    assert sorted(widths) == sorted(distinct)
    assert len(widths) < grid.n_intervals / 100


# a grid of 100 random widths, and per model an x0 far along the direction
# in which a negative theta drives the path away
DIVERGE_WIDTHS = np.random.default_rng(7).uniform(0.002, 0.02, 100)
DIVERGE_X0 = {"ou": 1e4, "colloidal": -100.0}


def run_scheme(model, theta, p, grid, scheme, rng):
    if scheme == "overdamped":
        return simulate_overdamped(model, theta, p, grid, rng)
    return simulate_underdamped(model, theta, p, grid, scheme, rng)


@functools.cache
def diverging_run(model_id, scheme, substeps, k):
    """(theta, params, grid) on which the reference run first leaves the
    finite doubles in interval k: theta = -exp(u), u bisected."""
    model = MODELS[model_id]
    gamma, sigma, _, _ = FROZEN_PARAMS[model_id]
    p = SystemParams(mass=1e-3 if scheme is EXP else 0.1, friction=gamma,
                     noise=sigma, x0=DIVERGE_X0[model_id])
    grid = ObservationGrid(np.cumsum(np.r_[0.0, DIVERGE_WIDTHS]), substeps)

    def diverging_interval(u):  # n when the run stays finite
        try:
            reference_run(model, -math.exp(u), p, grid, scheme, philox_generator(4, 1))
        except DivergenceError as exc:
            return int(str(exc).split("substep ")[1].split()[0]) // substeps - 1
        return grid.n_intervals

    lo, hi = -20.0, 709.0
    for _ in range(80):
        u = 0.5 * (lo + hi)
        got = diverging_interval(u)
        if got == k:
            return -math.exp(u), p, grid
        lo, hi = (lo, u) if got < k else (u, hi)
    raise AssertionError(f"no theta diverges in interval {k}")


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("draw_doubles", [simulate._DRAW_DOUBLES, 23])
@pytest.mark.parametrize("substeps", [1, 3])
@pytest.mark.parametrize("scheme", [EXP, EM, "overdamped"],
                         ids=["exponential", "euler", "overdamped"])
@pytest.mark.parametrize("model_id", ["ou", "colloidal"])
def test_divergence_message_equals_the_per_interval_loop(
        monkeypatch, model_id, scheme, substeps, draw_doubles, where):
    # the loops check the state once per noise chunk; the run must stop at
    # the interval the per-interval check named, with the same state: in
    # the first interval, in the middle and in the last interval of a chunk
    # (the second chunk where the grid has more than one)
    n = len(DIVERGE_WIDTHS)
    per_draw = min(n, max(1, draw_doubles // substeps))
    start = per_draw if per_draw < n else 0
    k = {"first": 0, "middle": start + per_draw // 2,
         "last": min(start + per_draw, n) - 1}[where]
    theta, p, grid = diverging_run(model_id, scheme, substeps, k)
    model = MODELS[model_id]
    with pytest.raises(DivergenceError) as want:
        reference_run(model, theta, p, grid, scheme, philox_generator(4, 1))
    monkeypatch.setattr(simulate, "_DRAW_DOUBLES", draw_doubles)
    with pytest.raises(DivergenceError) as got:
        run_scheme(model, theta, p, grid, scheme, philox_generator(4, 1))
    assert str(got.value) == str(want.value)
    assert f"at substep {(k + 1) * substeps} (" in str(got.value)


@pytest.mark.parametrize("scheme", [EXP, EM, "overdamped"],
                         ids=["exponential", "euler", "overdamped"])
def test_overflow_mid_chunk_gives_the_per_interval_loop_message(monkeypatch, scheme):
    # math.exp raises OverflowError from a finite state, inside interval 30
    # of 20-interval noise chunks: mid-chunk in the second chunk. The loop
    # integrates that chunk again with the saturating b1_scalar and reports
    # what the per-interval loop reports
    monkeypatch.setattr(simulate, "_DRAW_DOUBLES", 60)
    k, substeps = 30, 3
    theta, p, grid = diverging_run("colloidal", scheme, substeps, k)
    colloidal = MODELS["colloidal"]
    calls = []

    def exp(z):
        calls.append(z)
        try:
            return math.exp(z)
        except OverflowError:
            calls.append(None)
            raise

    spy = DriftModel("colloidal-spy", exp, colloidal.b0, colloidal.rate)
    with pytest.raises(DivergenceError) as want:
        reference_run(colloidal, theta, p, grid, scheme, philox_generator(4, 1))
    with pytest.raises(DivergenceError) as got:
        run_scheme(spy, theta, p, grid, scheme, philox_generator(4, 1))
    assert str(got.value) == str(want.value)
    assert f"at substep {(k + 1) * substeps} (" in str(got.value)
    raised = calls.index(None)  # one call per substep before it
    assert (raised - 1) // substeps == k


@pytest.mark.parametrize("k", [10, 15, 19], ids=["first", "middle", "last"])
def test_batch_divergence_message_equals_the_per_interval_loop(monkeypatch, k):
    # the batch checks its rows once per noise chunk, here of 10 intervals;
    # a row diverging in the second chunk gets the per-interval check's
    # message, and so does every other row that diverges
    monkeypatch.setattr(simulate, "_DRAW_DOUBLES", 60)
    theta, p, grid = diverging_run("ou", EXP, 3, k)
    streams = [philox_generator(4, 1), philox_generator(5, 0), philox_generator(6, 0)]
    _, errors = run_batch(OU, theta, p, grid, streams)
    wants = []
    for seed, stream in [(4, 1), (5, 0), (6, 0)]:
        try:
            reference_run(OU, theta, p, grid, EXP, philox_generator(seed, stream))
            wants.append(None)
        except DivergenceError as exc:
            wants.append(str(exc))
    assert [None if e is None else str(e) for e in errors] == wants
    assert f"at substep {(k + 1) * 3} (" in wants[0]


def test_euler_guard_fires_before_any_integration():
    # only the last interval is too wide for the guard, and this run would
    # diverge in its second interval: the guard names the widest substep
    # before any noise is drawn, so the run exits 1, not 2
    grid = ObservationGrid(np.cumsum([0.0] + [0.01] * 50 + [0.2]), 2)
    p = SystemParams(mass=0.1, friction=1.0, noise=1.0, x0=1e4)
    rng = philox_generator(1, 0)
    with pytest.raises(ValueError, match=r"substep 0\.1 >= mu/\(2\*gamma\) = 0\.05"):
        simulate_underdamped(OU, -1e300, p, grid, EM, rng)
    assert rng.standard_normal() == philox_generator(1, 0).standard_normal()
    with pytest.raises(DivergenceError, match="substep 4 "):
        reference_run(OU, -1e300, p, grid, EM, philox_generator(1, 0))
