import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skestim import ConfigError, ObservationGrid, Trajectory
from skestim import io


def test_trajectory_round_trip_exact(tmp_path):
    grid = ObservationGrid([0.0, 0.1, 0.30000000000000004, 1.7])
    rng = np.random.default_rng(0)
    traj = Trajectory(grid=grid, positions=rng.standard_normal(4) * 1e3,
                      velocities=rng.standard_normal(4) * 1e-7)
    path = str(tmp_path / "traj.csv")
    io.write_trajectory_csv(path, traj)
    back = io.read_trajectory_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.positions, traj.positions)
    assert np.array_equal(back.velocities, traj.velocities)


def test_trajectory_without_velocities(tmp_path):
    grid = ObservationGrid([0.0, 1.0])
    traj = Trajectory(grid=grid, positions=np.array([0.0, 2.0]))
    path = str(tmp_path / "traj.csv")
    io.write_trajectory_csv(path, traj)
    back = io.read_trajectory_csv(path)
    assert back.velocities is None


EXTREMES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
            -1.7976931348623157e308, 2.2250738585072014e-308]


def random_finite_doubles(rng, n):
    """Doubles from uniformly random bit patterns, the non-finite ones
    replaced, with the extremes of the format at the front."""
    values = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64).view(np.float64)
    values = np.where(np.isfinite(values), values, 1.0)
    values[:len(EXTREMES)] = EXTREMES
    return values


@pytest.mark.parametrize("with_velocities", [False, True])
def test_trajectory_csv_matches_per_value_format(tmp_path, with_velocities):
    # more rows than the writer converts at a time, so chunk ends are crossed
    n = 20_000
    rng = np.random.default_rng(3)
    times = np.concatenate([[0.0, 5e-324], np.cumsum(rng.random(n - 2) + 1e-3)])
    positions = random_finite_doubles(rng, n)
    velocities = random_finite_doubles(rng, n)[::-1] if with_velocities else None
    traj = Trajectory(grid=ObservationGrid(times), positions=positions,
                      velocities=velocities)
    path = tmp_path / "traj.csv"
    io.write_trajectory_csv(str(path), traj)
    columns = [times, positions] + ([velocities] if with_velocities else [])
    expected = ["t,x,v" if with_velocities else "t,x"]
    expected += [",".join(format(float(c[k]), ".17g") for c in columns)
                 for k in range(n)]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw):
    later = draw(st.lists(st.floats(min_value=0.0, exclude_min=True,
                                    allow_infinity=False),
                          min_size=1, max_size=20, unique=True))
    times = [0.0] + sorted(later)
    column = st.lists(FINITE, min_size=len(times), max_size=len(times))
    velocities = draw(st.none() | column)
    return Trajectory(grid=ObservationGrid(times), positions=np.array(draw(column)),
                      velocities=None if velocities is None else np.array(velocities))


@settings(max_examples=200, deadline=None, database=None)
@given(traj=trajectories())
def test_trajectory_round_trip_arbitrary_doubles(tmp_path_factory, traj):
    path = str(tmp_path_factory.mktemp("rt") / "traj.csv")
    io.write_trajectory_csv(path, traj)
    back = io.read_trajectory_csv(path)
    # byte comparison also tells -0.0 from 0.0
    assert back.times.tobytes() == traj.times.tobytes()
    assert back.positions.tobytes() == traj.positions.tobytes()
    if traj.velocities is None:
        assert back.velocities is None
    else:
        assert back.velocities.tobytes() == traj.velocities.tobytes()


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,pos\n0,1\n")
    with pytest.raises(ConfigError, match="header"):
        io.read_trajectory_csv(str(path))


def test_no_temp_files_left_behind(tmp_path):
    grid = ObservationGrid([0.0, 1.0])
    traj = Trajectory(grid=grid, positions=np.array([0.0, 2.0]))
    io.write_trajectory_csv(str(tmp_path / "a.csv"), traj)
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


class TestConfigParser:

    def test_parses_flat_keys(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# sweep\nmodel = ou\nmu_values = 0.1, 0.01\nn_values=20\n")
        raw = io.parse_config_file(str(cfg))
        assert raw == {"model": "ou", "mu_values": "0.1, 0.01", "n_values": "20"}

    def test_names_bad_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("model = ou\nthis is not a pair\n")
        with pytest.raises(ConfigError, match=":2"):
            io.parse_config_file(str(cfg))

    def test_typed_lookup_names_key(self):
        with pytest.raises(ConfigError, match="theta_true"):
            io.config_get({"theta_true": "abc"}, "theta_true", float)
        with pytest.raises(ConfigError, match="delta"):
            io.config_get({}, "delta", float)

    def test_list_parsers(self):
        assert io.parse_float_list("0.1, 0.01,1e-3") == [0.1, 0.01, 1e-3]
        assert io.parse_int_list("100,1000") == [100, 1000]
        with pytest.raises(ValueError):
            io.parse_float_list("")
