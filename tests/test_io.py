import tracemalloc

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


@pytest.mark.parametrize("text,header,count", [
    ("t,x,v\n0,1\n1,2\n", "t,x,v", 2), ("t,x\n0,1,5\n1,2,5\n", "t,x", 3),
    ("t,x\n0\n1\n", "t,x", 1)])
def test_column_count_must_match_the_header(tmp_path, text, header, count):
    path = tmp_path / "cols.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"cols.csv: header '{header}' names "
                                          f"{len(header.split(','))} columns, "
                                          f"the rows have {count}"):
        io.read_trajectory_csv(str(path))


def test_no_temp_files_left_behind(tmp_path):
    grid = ObservationGrid([0.0, 1.0])
    traj = Trajectory(grid=grid, positions=np.array([0.0, 2.0]))
    io.write_trajectory_csv(str(tmp_path / "a.csv"), traj)
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


def underdamped_trajectory(n):
    rng = np.random.default_rng(5)
    return Trajectory(grid=ObservationGrid.uniform(n - 1, 0.01),
                      positions=np.cumsum(rng.standard_normal(n)),
                      velocities=rng.standard_normal(n) * 1e3)


def test_trajectory_write_memory_is_bounded(tmp_path):
    # 1e5 rows are 5.5 MB of text; the writer holds one chunk of rows at a
    # time, not every row and their join (21 MB when it did)
    traj = underdamped_trajectory(100_000)
    tracemalloc.start()
    try:
        io.write_trajectory_csv(str(tmp_path / "traj.csv"), traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "traj.csv").stat().st_size > 5_000_000
    assert peak < 6_000_000


class FailsAtRow(np.ndarray):
    """A column whose slices from row `fail_at` on raise, as if the write
    failed partway; records the temporary file's size when it does."""

    def __getitem__(self, key):
        if isinstance(key, slice) and (key.start or 0) >= self.fail_at:
            self.written = [p.stat().st_size for p in self.directory.glob(".tmp-*")]
            raise OSError("synthetic failure partway through the write")
        return np.asarray(self)[key]


def test_failed_streamed_write_leaves_the_target_unchanged(tmp_path, monkeypatch):
    target = tmp_path / "traj.csv"
    target.write_bytes(b"t,x\n0,1\n")
    monkeypatch.setattr(io, "_CHUNK_ROWS", 100)
    traj = underdamped_trajectory(1_000)
    column = traj.velocities.view(FailsAtRow)
    column.fail_at, column.directory = 500, tmp_path
    object.__setattr__(traj, "velocities", column)
    with pytest.raises(OSError, match="partway"):
        io.write_trajectory_csv(str(target), traj)
    # rows had reached the temporary file before the failure
    assert len(column.written) == 1 and column.written[0] > 0
    assert target.read_bytes() == b"t,x\n0,1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]


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
        assert io.parse_list("0.1, 0.01,1e-3", float) == [0.1, 0.01, 1e-3]
        assert io.parse_list("100,1000", int) == [100, 1000]
        with pytest.raises(ValueError):
            io.parse_list("", float)
