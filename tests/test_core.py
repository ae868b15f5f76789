import math

import numpy as np
import pytest

from skestim import (DriftModel, G_EFF, MODELS, ObservationGrid, SystemParams,
                     Trajectory, colloidal_model, eval_drift, make_noise_path,
                     ou_model)

# g_eff recomputed independently from the printed constant expression
G_EFF_ORACLE = 4.0 / 3.0 * math.pi * (1.31 / 2.0) ** 2 * 0.51 * 9.8e-3


class TestNoisePath:

    def test_shape(self):
        grid = ObservationGrid.uniform(10, 0.1, 4)
        path = make_noise_path(1, 0, grid)
        assert len(path.increments) == 40

    def test_deterministic_regeneration(self):
        grid = ObservationGrid.uniform(10, 0.1, 4)
        a = make_noise_path(1, 0, grid)
        b = make_noise_path(1, 0, grid)
        assert np.array_equal(a.increments, b.increments)

    def test_frozen_reference_values(self):
        # values frozen from a previous process; guards cross-run determinism
        grid = ObservationGrid.uniform(4, 0.5, 2)
        got = make_noise_path(1, 0, grid).increments[:4]
        expected = [0.510143988680365, 0.37985659478025835,
                    -0.12291895136756412, 0.2210379233268846]
        assert np.array_equal(got, expected)

    def test_substreams_are_distinct(self):
        grid = ObservationGrid.uniform(10, 0.1, 4)
        a = make_noise_path(1, 0, grid)
        b = make_noise_path(1, 1, grid)
        assert not np.array_equal(a.increments, b.increments)

    def test_seed_changes_stream(self):
        grid = ObservationGrid.uniform(10, 0.1, 4)
        assert not np.array_equal(make_noise_path(1, 0, grid).increments,
                                  make_noise_path(2, 0, grid).increments)

    def test_increment_variance_matches_substep_width(self):
        # law of large numbers: 1e6 pooled increments with dt = 0.01
        grid = ObservationGrid.uniform(10_000, 0.01 * 100, 100)
        inc = make_noise_path(5, 0, grid).increments
        assert len(inc) == 1_000_000
        assert np.var(inc) == pytest.approx(0.01, rel=0.01)

    def test_increment_mean_near_zero(self):
        grid = ObservationGrid.uniform(1000, 0.01 * 100, 100)
        inc = make_noise_path(9, 0, grid).increments
        se = np.std(inc) / math.sqrt(len(inc))
        assert abs(np.mean(inc)) < 5 * se

    def test_nonuniform_grid_widths(self):
        grid = ObservationGrid([0.0, 0.1, 0.4], substeps_per_interval=2)
        assert np.allclose(grid.substep_widths(), [0.05, 0.05, 0.15, 0.15])

    def test_invalid_seed(self):
        grid = ObservationGrid.uniform(2, 0.1)
        with pytest.raises(ValueError):
            make_noise_path(-1, 0, grid)

    @pytest.mark.parametrize("seed,stream_id", [(2 ** 64, 0), (0, 2 ** 64)])
    def test_rejects_values_that_would_alias(self, seed, stream_id):
        # the Philox key is (stream_id << 64) | seed: seed 2**64 would
        # collide with (seed 0, stream 1)
        grid = ObservationGrid.uniform(2, 0.1)
        with pytest.raises(ValueError, match=r"2\*\*64"):
            make_noise_path(seed, stream_id, grid)
        make_noise_path(2 ** 64 - 1, 2 ** 64 - 1, grid)


class TestColloidalModel:

    def test_g_eff_value(self):
        assert G_EFF == pytest.approx(G_EFF_ORACLE, rel=1e-15)
        assert G_EFF == pytest.approx(8.981e-3, rel=1e-3)

    def test_force_at_wall(self):
        model = colloidal_model()
        for theta in [0.0, 0.02, 1.7]:
            assert eval_drift(model, 0.0, theta) == pytest.approx(theta - G_EFF_ORACLE)

    def test_force_at_debye_length(self):
        # x = 18 nm, one Debye length: the exponential term decays by 1/e
        model = colloidal_model()
        theta = 0.02
        assert eval_drift(model, 18.0, theta) == pytest.approx(
            theta / math.e - G_EFF_ORACLE, rel=1e-14)

    def test_monotone_in_theta(self):
        model = colloidal_model()
        xs = np.linspace(0.0, 200.0, 50)
        f_lo = model.eval(xs, 0.01)
        f_hi = model.eval(xs, 0.02)
        assert np.all(f_lo < f_hi)

    def test_vectorized_matches_scalar(self):
        model = colloidal_model()
        xs = np.array([0.0, 5.0, 18.0, 100.0])
        vec = model.eval(xs, 0.02)
        assert np.allclose(vec, [model.eval(float(x), 0.02) for x in xs], rtol=1e-15)


def test_ou_model_by_definition():
    assert eval_drift(ou_model(), 2.0, 3.0) == -6.0


@pytest.mark.parametrize("name", sorted(set(MODELS) - {"zero-drift"}))
def test_linear_decomposition_consistency(name):
    # eval(x, theta) == theta*b1(x) + b0(x) over 1000 random samples
    model = MODELS[name]()
    b1, b0 = model.linear_decomposition
    rng = np.random.default_rng(11)
    x = rng.uniform(-50.0, 200.0, 1000)
    theta = rng.uniform(-2.0, 2.0, 1000)
    direct = np.array([model.eval(float(xi), float(ti))
                       for xi, ti in zip(x, theta)])
    decomposed = theta * b1(x) + b0(x)
    scale = np.maximum(np.abs(direct), 1e-30)
    assert np.all(np.abs(direct - decomposed) / scale <= 1e-12)


def test_eval_drift_rejects_non_finite():
    bad = DriftModel(name="bad", eval=lambda x, theta: float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        eval_drift(bad, 0.0, 1.0)


class TestSystemParams:

    def test_valid(self):
        p = SystemParams(mass=1e-3, friction=1 / 6, noise=10.0, x0=0.0, v0=0.0)
        assert (p.mass, p.friction, p.noise) == (1e-3, 1 / 6, 10.0)

    @pytest.mark.parametrize("kwargs", [
        dict(mass=0.0, friction=1.0, noise=1.0),
        dict(mass=-1.0, friction=1.0, noise=1.0),
        dict(mass=1.0, friction=0.0, noise=1.0),
        dict(mass=1.0, friction=1.0, noise=-0.1),
        dict(mass=math.inf, friction=1.0, noise=1.0),
        dict(mass=math.nan, friction=1.0, noise=1.0),
        dict(mass=1.0, friction=math.inf, noise=1.0),
        dict(mass=1.0, friction=math.nan, noise=1.0),
        dict(mass=1.0, friction=1.0, noise=math.inf),
        dict(mass=1.0, friction=1.0, noise=math.nan),
        dict(mass=1.0, friction=1.0, noise=1.0, x0=math.inf),
        dict(mass=1.0, friction=1.0, noise=1.0, x0=math.nan),
        dict(mass=1.0, friction=1.0, noise=1.0, v0=-math.inf),
        dict(mass=1.0, friction=1.0, noise=1.0, v0=math.nan),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)


class TestObservationGrid:

    def test_uniform(self):
        grid = ObservationGrid.uniform(4, 0.25, 3)
        assert np.allclose(grid.times, [0, 0.25, 0.5, 0.75, 1.0])
        assert grid.n_intervals == 4
        assert grid.total_substeps == 12

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="t=0"):
            ObservationGrid([0.5, 1.0])

    def test_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            ObservationGrid([0.0, 1.0, 1.0])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            ObservationGrid([0.0])


class TestTrajectory:

    def test_length_mismatch(self):
        grid = ObservationGrid.uniform(3, 0.1)
        with pytest.raises(ValueError, match="length"):
            Trajectory(grid=grid, positions=np.zeros(3))

    def test_rejects_non_finite(self):
        grid = ObservationGrid.uniform(2, 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            Trajectory(grid=grid, positions=np.array([0.0, np.nan, 1.0]))
