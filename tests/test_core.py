import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noise_reference import make_noise_path
import skestim
from skestim import DriftModel, G_EFF, MODELS, ObservationGrid, SystemParams, Trajectory
from skestim import core
from skestim.core import _stream_key, check_friction, draw_increments, philox_generator

# g_eff recomputed independently from the printed constant expression
G_EFF_ORACLE = 4.0 / 3.0 * math.pi * (1.31 / 2.0) ** 2 * 0.51 * 9.8e-3


def assert_same_state(got, want):
    """Equal bit generator states: the same keys, and equal values, arrays
    of the same dtype included."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, dict):
            assert_same_state(got[key], value)
        elif isinstance(value, np.ndarray):
            assert got[key].dtype == value.dtype and np.array_equal(got[key], value)
        else:
            assert got[key] == value


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

    def test_draws_are_shifted_and_scaled_normals(self):
        # each draw is shift + scale * z for the stream's normals z, in order
        normals = philox_generator(1, 0).standard_normal(4)
        got = draw_increments([philox_generator(1, 0)], 4, 0.3, -0.05)[0]
        assert got.tobytes() == (normals * 0.3 - 0.05).tobytes()
        grid = ObservationGrid.uniform(2, 0.3, 2)
        np.testing.assert_allclose(make_noise_path(1, 0, grid), normals * math.sqrt(0.15),
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
    @given(seed=st.integers(0, 2 ** 64 - 1), stream_id=st.integers(0, 2 ** 64 - 1))
    @example(seed=0, stream_id=0)
    @example(seed=0, stream_id=2 ** 64 - 1)
    @example(seed=2 ** 64 - 1, stream_id=0)
    @example(seed=2 ** 64 - 1, stream_id=2 ** 64 - 1)
    def test_generator_is_philox_keyed_by_stream_and_seed(self, seed, stream_id):
        want = np.random.Generator(np.random.Philox(key=(stream_id << 64) | seed))
        got = philox_generator(seed, stream_id)
        assert_same_state(got.bit_generator.state, want.bit_generator.state)
        assert got.standard_normal(1000).tobytes() == want.standard_normal(1000).tobytes()

    @pytest.mark.parametrize("n_words,dtype", [
        (0, np.uint64), (1, np.uint64), (3, np.uint64), (4, np.uint64),
        (2, np.uint32), (2, np.int64), (2, np.float64), (4, np.uint32)])
    def test_stream_key_gives_two_uint64_words_only(self, n_words, dtype):
        key = _stream_key(5, 2 ** 64 - 1)
        assert isinstance(key, np.random.bit_generator.ISeedSequence)
        with pytest.raises(ValueError, match="2 uint64 words"):
            key.generate_state(n_words, dtype)
        for uint64 in (np.uint64, "uint64", np.dtype("<u8")):
            words = key.generate_state(2, uint64)
            assert words.dtype == np.uint64 and words.tolist() == [5, 2 ** 64 - 1]

    def test_generator_survives_pickling(self, monkeypatch):
        rng = philox_generator(3, 2 ** 64 - 1)
        rng.standard_normal(5)
        data = pickle.dumps(rng)
        # as in a fresh process, where no generator has defined the key type yet
        monkeypatch.setattr(core, "_StreamKey", None)
        copy = pickle.loads(data)
        assert copy.standard_normal(10).tobytes() == rng.standard_normal(10).tobytes()

    def test_importing_the_cli_does_not_load_numpy_random(self):
        # loading numpy.random takes a fair share of the CLI's start-up; the
        # first generator loads it
        code = ("import sys, skestim.cli, skestim.core as core\n"
                "print('numpy.random' in sys.modules)\n"
                "core.philox_generator(0, 0)\n"
                "print('numpy.random' in sys.modules)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(skestim.__file__).resolve().parents[1]),
                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        assert proc.stdout.split() == ["False", "True"]

    @settings(max_examples=50, deadline=None, database=None)
    @given(cuts=st.lists(st.integers(0, 21), max_size=8),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_chunked_draws_equal_the_one_shot_path(self, cuts, seed):
        # 21 intervals of 4 substeps, cut between any intervals; a repeated
        # cut gives an empty draw
        grid = ObservationGrid.uniform(21, 0.3, 4)
        rngs = [philox_generator(seed, stream) for stream in range(3)]
        edges = [0] + sorted(cuts) + [grid.n_intervals]
        joined = np.hstack([draw_increments(rngs, 4 * (hi - lo), math.sqrt(0.3 / 4))
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
        model = MODELS["colloidal"]
        for theta in [0.0, 0.02, 1.7]:
            assert theta * model.b1_scalar(0.0) + model.b0 == pytest.approx(
                theta - G_EFF_ORACLE)

    def test_force_at_debye_length(self):
        # x = 18 nm, one Debye length: the exponential term decays by 1/e
        model = MODELS["colloidal"]
        theta = 0.02
        assert theta * model.b1_scalar(18.0) + model.b0 == pytest.approx(
            theta / math.e - G_EFF_ORACLE, rel=1e-14)

    def test_monotone_in_theta(self):
        model = MODELS["colloidal"]
        xs = np.linspace(0.0, 200.0, 50)
        f_lo = 0.01 * model.b1(xs) + model.b0
        f_hi = 0.02 * model.b1(xs) + model.b0
        assert np.all(f_lo < f_hi)

    def test_vectorized_matches_scalar(self):
        model = MODELS["colloidal"]
        xs = np.array([0.0, 5.0, 18.0, 100.0])
        vec = model.b1(xs)
        assert np.allclose(vec, [model.b1_scalar(float(x)) for x in xs], rtol=1e-15)


def test_colloidal_b1_scalar_is_exp_until_it_overflows():
    # b1_scalar is exp(-x / 18) wherever that is a double, 1e308 included,
    # and inf where math.exp raises OverflowError
    model = MODELS["colloidal"]
    assert model.b1_scalar(-709.5 * 18.0) == math.exp(709.5) > 1e308
    assert model.b1_scalar(-13000.0) == math.inf
    with pytest.raises(OverflowError):
        model.profile(model.rate * -13000.0)


def test_ou_model_by_definition():
    model = MODELS["ou"]
    assert 3.0 * model.b1_scalar(2.0) + model.b0 == -6.0


@pytest.mark.parametrize("name", sorted(MODELS))
def test_linear_decomposition_consistency(name):
    # b1 on an array equals b1_scalar on each of 1000 random positions
    model = MODELS[name]
    x = np.random.default_rng(11).uniform(-50.0, 200.0, 1000)
    on_array = np.broadcast_to(model.b1(x), x.shape)
    per_element = [model.b1_scalar(float(xi)) for xi in x]
    np.testing.assert_allclose(on_array, per_element, rtol=1e-15)


# each model's b1 on an array, written out by hand
ARRAY_B1 = {
    "colloidal": lambda x: np.exp(-(1 / 18) * x),
    "ou": lambda x: -x,
    "zero-drift": lambda x: 0.0,
    "constant-force": lambda x: 1.0,
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_array_b1_equals_the_hand_written_form_bit_for_bit(name):
    # np.exp, not math.exp, on the array: the two differ in the last bit on
    # some inputs; ±0.0, subnormals, ±1e300 and colloidal's overflow region
    # below -709.78 * 18 included
    tiny = 5e-324
    x = np.r_[0.0, -0.0, tiny, -tiny, 2.2e-308, -2.2e-308, 1e300, -1e300,
              -12776.0, -12777.0, -13000.0, np.linspace(-12800.0, 12800.0, 5001),
              np.random.default_rng(3).uniform(-700.0, 700.0, 5000)]
    model = MODELS[name]
    with np.errstate(all="ignore"):
        got, want = model.b1(x), ARRAY_B1[name](x)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if name == "ou":
        assert list(np.signbit(got[:2])) == [True, False]


@pytest.mark.parametrize("rate", [1.0, 3.0])
def test_array_b1_applies_a_profile_outside_the_map_to_the_array(rate):
    seen = []

    def cube(z):
        seen.append(z)
        return z * z * z

    x = np.array([-1.5, 0.0, 2.0])
    got = DriftModel("cubic", cube, 0.0, rate).b1(x)
    assert len(seen) == 1 and type(seen[0]) is np.ndarray
    z = rate * x
    assert seen[0].tobytes() == z.tobytes() and got.tobytes() == (z * z * z).tobytes()


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
        # the one spacing the integrators step at
        assert grid.spacing == 0.25
        assert not grid.times.flags.writeable

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, -math.inf, math.nan, 1e308])
    def test_uniform_needs_finite_positive_dt(self, dt):
        # 1e308 is finite but the last time, n * dt, is not
        with pytest.raises(ValueError, match="dt"):
            ObservationGrid.uniform(10, dt)

    def test_uniform_needs_an_interval_and_a_substep(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            ObservationGrid.uniform(0, 0.1)
        with pytest.raises(ValueError, match="^substeps_per_interval must be a positive"):
            ObservationGrid.uniform(10, 0.1, 0)


class TestTrajectory:

    def test_times_and_widths(self):
        times = np.array([0.0, 0.5, 0.7, 1.9])
        traj = Trajectory(times=times, positions=np.zeros(4))
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.dts, np.diff(times))
        # read-only, as a grid's times are
        with pytest.raises(ValueError, match="read-only"):
            traj.times[1] = 0.6

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="t=0"):
            Trajectory(times=[0.5, 1.0], positions=np.zeros(2))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(times=[0.0, 1.0, 1.0], positions=np.zeros(3))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Trajectory(times=[0.0], positions=np.zeros(1))

    @pytest.mark.parametrize("times,bad", [
        ([0.0, math.nan, 2.0], "t_1=nan"), ([0.0, 1.0, math.inf], "t_2=inf"),
        ([math.nan, 1.0], "t_0=nan"), ([0.0, -math.inf, math.nan], "t_1=-inf")])
    def test_times_must_be_finite(self, times, bad):
        # nan passes the ordering check; an inf time gives an inf width
        with pytest.raises(ValueError, match=f"finite, got {bad}$"):
            Trajectory(times=times, positions=np.zeros(len(times)))

    def test_length_mismatch(self):
        grid = ObservationGrid.uniform(3, 0.1)
        with pytest.raises(ValueError, match="length"):
            Trajectory(times=grid.times, positions=np.zeros(3))

    def test_rejects_non_finite(self):
        grid = ObservationGrid.uniform(2, 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            Trajectory(times=grid.times, positions=np.array([0.0, np.nan, 1.0]))
