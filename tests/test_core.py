import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skestim import (G_EFF, MODELS, ObservationGrid, SystemParams, Trajectory,
                     colloidal_model, make_noise_path, ou_model)
from skestim.core import check_friction, draw_increments, philox_generator

# g_eff recomputed independently from the printed constant expression
G_EFF_ORACLE = 4.0 / 3.0 * math.pi * (1.31 / 2.0) ** 2 * 0.51 * 9.8e-3


class TestNoisePath:

    def test_shape(self):
        grid = ObservationGrid.uniform(10, 0.1, 4)
        assert make_noise_path(1, 0, grid).shape == (40,)

    def test_deterministic_regeneration(self):
        grid = ObservationGrid.uniform(10, 0.1, 4)
        a = make_noise_path(1, 0, grid)
        b = make_noise_path(1, 0, grid)
        assert np.array_equal(a, b)

    def test_frozen_reference_values(self):
        # values frozen from a previous process; guards cross-run determinism
        grid = ObservationGrid.uniform(4, 0.5, 2)
        got = make_noise_path(1, 0, grid)[:4]
        expected = [0.510143988680365, 0.37985659478025835,
                    -0.12291895136756412, 0.2210379233268846]
        assert np.array_equal(got, expected)

    def test_substreams_are_distinct(self):
        grid = ObservationGrid.uniform(10, 0.1, 4)
        a = make_noise_path(1, 0, grid)
        b = make_noise_path(1, 1, grid)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        grid = ObservationGrid.uniform(10, 0.1, 4)
        assert not np.array_equal(make_noise_path(1, 0, grid),
                                  make_noise_path(2, 0, grid))

    def test_increment_variance_matches_substep_width(self):
        # law of large numbers: 1e6 pooled increments with dt = 0.01
        grid = ObservationGrid.uniform(10_000, 0.01 * 100, 100)
        inc = make_noise_path(5, 0, grid)
        assert len(inc) == 1_000_000
        assert np.var(inc) == pytest.approx(0.01, rel=0.01)

    def test_increment_mean_near_zero(self):
        grid = ObservationGrid.uniform(1000, 0.01 * 100, 100)
        inc = make_noise_path(9, 0, grid)
        se = np.std(inc) / math.sqrt(len(inc))
        assert abs(np.mean(inc)) < 5 * se

    def test_nonuniform_grid_widths(self):
        # each interval's increments are the stream's normals scaled by the
        # square root of that interval's substep width
        grid = ObservationGrid([0.0, 0.1, 0.4], substeps_per_interval=2)
        normals = philox_generator(1, 0).standard_normal(4)
        np.testing.assert_allclose(make_noise_path(1, 0, grid),
                                   normals * np.sqrt([0.05, 0.05, 0.15, 0.15]),
                                   rtol=1e-15, atol=0)

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
        with pytest.raises(ValueError, match=r"2\*\*64"):
            philox_generator(seed, stream_id)

    @settings(max_examples=50, deadline=None, database=None)
    @given(cuts=st.lists(st.integers(0, 21), max_size=8),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_chunked_draws_equal_the_one_shot_path(self, cuts, seed):
        # 21 intervals of 4 substeps and three widths, cut between any
        # intervals; a repeated cut gives an empty draw
        grid = ObservationGrid(np.cumsum([0.0] + [0.1, 0.3, 0.05] * 7), 4)
        rngs = [philox_generator(seed, stream) for stream in range(3)]
        edges = [0] + sorted(cuts) + [grid.n_intervals]
        joined = np.hstack([draw_increments(rngs, grid.dts[lo:hi], 4)
                            for lo, hi in zip(edges, edges[1:])])
        assert joined.shape == (3, grid.total_substeps)
        for stream in range(3):
            want = make_noise_path(seed, stream, grid)
            assert joined[stream].tobytes() == want.tobytes()


class TestColloidalModel:

    def test_g_eff_value(self):
        assert G_EFF == pytest.approx(G_EFF_ORACLE, rel=1e-15)
        assert G_EFF == pytest.approx(8.981e-3, rel=1e-3)

    def test_force_at_wall(self):
        model = colloidal_model()
        for theta in [0.0, 0.02, 1.7]:
            assert theta * model.b1_scalar(0.0) + model.b0 == pytest.approx(
                theta - G_EFF_ORACLE)

    def test_force_at_debye_length(self):
        # x = 18 nm, one Debye length: the exponential term decays by 1/e
        model = colloidal_model()
        theta = 0.02
        assert theta * model.b1_scalar(18.0) + model.b0 == pytest.approx(
            theta / math.e - G_EFF_ORACLE, rel=1e-14)

    def test_monotone_in_theta(self):
        model = colloidal_model()
        xs = np.linspace(0.0, 200.0, 50)
        f_lo = 0.01 * model.b1(xs) + model.b0
        f_hi = 0.02 * model.b1(xs) + model.b0
        assert np.all(f_lo < f_hi)

    def test_vectorized_matches_scalar(self):
        model = colloidal_model()
        xs = np.array([0.0, 5.0, 18.0, 100.0])
        vec = model.b1(xs)
        assert np.allclose(vec, [model.b1_scalar(float(x)) for x in xs], rtol=1e-15)


def test_ou_model_by_definition():
    model = ou_model()
    assert 3.0 * model.b1_scalar(2.0) + model.b0 == -6.0


@pytest.mark.parametrize("name", sorted(MODELS))
def test_linear_decomposition_consistency(name):
    # b1 on an array equals b1_scalar on each of 1000 random positions
    model = MODELS[name]()
    x = np.random.default_rng(11).uniform(-50.0, 200.0, 1000)
    on_array = np.broadcast_to(model.b1(x), x.shape)
    per_element = [model.b1_scalar(float(xi)) for xi in x]
    np.testing.assert_allclose(on_array, per_element, rtol=1e-15)


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


class TestCheckFriction:

    def test_checks_and_names_each_numerator(self):
        # only mu / friction overflows here
        widths = np.array([0.01, 0.02])
        check_friction(1e-10, widths, sigma=1.0, mu=1.0)
        with pytest.raises(ValueError, match=r"1 / friction, sigma / friction, "
                                             r"mu / friction finite, got 1e-10"):
            check_friction(1e-10, widths, sigma=1.0, mu=1e300)


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

    @pytest.mark.parametrize("times,bad", [
        ([0.0, math.nan, 2.0], "t_1=nan"), ([0.0, 1.0, math.inf], "t_2=inf"),
        ([math.nan, 1.0], "t_0=nan"), ([0.0, -math.inf, math.nan], "t_1=-inf")])
    def test_times_must_be_finite(self, times, bad):
        # nan passes the ordering check; an inf time gives an inf width
        with pytest.raises(ValueError, match=f"finite, got {bad}$"):
            ObservationGrid(times)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, -math.inf, math.nan, 1e308])
    def test_uniform_needs_finite_positive_dt(self, dt):
        # 1e308 is finite but the last time, n * dt, is not
        with pytest.raises(ValueError, match="dt"):
            ObservationGrid.uniform(10, dt)


class TestTrajectory:

    def test_length_mismatch(self):
        grid = ObservationGrid.uniform(3, 0.1)
        with pytest.raises(ValueError, match="length"):
            Trajectory(grid=grid, positions=np.zeros(3))

    def test_rejects_non_finite(self):
        grid = ObservationGrid.uniform(2, 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            Trajectory(grid=grid, positions=np.array([0.0, np.nan, 1.0]))
