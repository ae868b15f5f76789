import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skestim import ConfigError, Trajectory
from skestim import io


def test_trajectory_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    traj = Trajectory(times=[0.0, 0.1, 0.30000000000000004, 1.7],
                      positions=rng.standard_normal(4) * 1e3,
                      velocities=rng.standard_normal(4) * 1e-7)
    path = str(tmp_path / "traj.csv")
    io.write_trajectory_csv(path, traj)
    back = io.read_trajectory_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.positions, traj.positions)
    assert np.array_equal(back.velocities, traj.velocities)


def test_trajectory_without_velocities(tmp_path):
    traj = Trajectory(times=[0.0, 1.0], positions=np.array([0.0, 2.0]))
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


def log_uniform(rng, n, lo=-5.0, hi=18.0):
    """Magnitudes log-uniform in [10**lo, 10**hi), both signs."""
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)


def per_value_csv(header, columns):
    rows = [",".join(format(float(c[k]), ".17g") for c in columns)
            for k in range(len(columns[0]))]
    return ("\n".join([header] + rows) + "\n").encode()


@pytest.mark.parametrize("with_velocities", [False, True])
def test_trajectory_csv_matches_per_value_format(tmp_path, with_velocities):
    # more rows than the writer converts at a time, so chunk ends are crossed
    n = 20_000
    rng = np.random.default_rng(3)
    times = np.concatenate([[0.0, 5e-324], np.cumsum(rng.random(n - 2) + 1e-3)])
    positions = random_finite_doubles(rng, n)
    velocities = random_finite_doubles(rng, n)[::-1] if with_velocities else None
    traj = Trajectory(times=times, positions=positions,
                      velocities=velocities)
    path = tmp_path / "traj.csv"
    io.write_trajectory_csv(str(path), traj)
    columns = [times, positions] + ([velocities] if with_velocities else [])
    header = "t,x,v" if with_velocities else "t,x"
    assert path.read_bytes() == per_value_csv(header, columns)
    # random bit patterns put few values in fixed notation; this column puts
    # most of them there
    columns.append(log_uniform(rng, n))
    io.write_columns(str(path), header + ",w", columns)
    assert path.read_bytes() == per_value_csv(header + ",w", columns)


def kernel_text(values):
    """Each value's field as the writer's kernel formats it."""
    field = np.zeros((len(values), io._FIELD), np.uint8)
    io._format_column(field, np.asarray(values, np.float64))
    return [bytes(row).replace(b"\0", b"") for row in field]


def decimal_ties(rng, per_decade=500):
    """Doubles j * 2**-p, j odd, with 18 significant digits, the last a 5:
    exactly halfway between two 17-digit decimals, in every decade from
    1e-4 to 1e16 where doubles hold such values."""
    out = [1.00000762939453125]
    for d in range(-3, 17):  # digits before the point
        p = 18 - d
        lo = int(10.0 ** (d - 1) * 2 ** p) + 1
        hi = min(int(10.0 ** d * 2 ** p), 2 ** 53)
        j = rng.integers(lo // 2, hi // 2, per_decade) * 2 + 1
        out += np.ldexp(j.astype(np.float64), -p).tolist()
    return np.array(out)


POWERS_OF_TEN = [float(f"1e{k}") for k in range(-4, 18)]
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300,
         np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1),
         np.nextafter(1e17, 0), 1e17, np.nextafter(1e17, np.inf),
         1.7976931348623157e308, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("family", ["log-uniform", "powers of ten", "ties", "edges"])
def test_kernel_matches_per_value_format(family):
    rng = np.random.default_rng(13)
    values = {
        "log-uniform": lambda: log_uniform(rng, 200_000),
        "powers of ten": lambda: np.concatenate(
            [[np.nextafter(v, 0), v, np.nextafter(v, np.inf)] for v in POWERS_OF_TEN]),
        "ties": lambda: decimal_ties(rng),
        "edges": lambda: np.array(EDGES),
    }[family]()
    values = np.concatenate([values, -values])
    assert kernel_text(values) == [format(v, ".17g").encode() for v in values.tolist()]


def test_exact_ties_round_half_to_even():
    assert kernel_text([1.00000762939453125, 1.00002288818359375]) == [
        b"1.0000076293945312", b"1.0000228881835938"]


def test_digit_table_is_every_four_digit_group():
    assert io._GROUPS.dtype == np.dtype("<u4")
    groups = io._GROUPS.view(np.uint8).reshape(2, 10_000, 4)
    for i in range(10_000):
        text = b"%04d" % i
        assert groups[0, i].tobytes() == text
        assert groups[1, i].tobytes() == text.rstrip(b"0").ljust(4, b"\0")


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw):
    later = draw(st.lists(st.floats(min_value=0.0, exclude_min=True,
                                    allow_infinity=False),
                          min_size=1, max_size=20, unique=True))
    times = [0.0] + sorted(later)
    column = st.lists(FINITE, min_size=len(times), max_size=len(times))
    velocities = draw(st.none() | column)
    return Trajectory(times=times, positions=np.array(draw(column)),
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


def loadtxt_on_the_handle(path):
    """The rows as np.loadtxt read them from the open file, after the header,
    before the reader handed it the path instead."""
    with open(path) as fh:
        fh.readline()
        return np.loadtxt(fh, delimiter=",", ndmin=2)


@pytest.mark.parametrize("text", [
    "t,x\n# written by hand\n0,1.5\n# a note\n0.5,2 # trailing\n1,-3\n",
    "t,x\n\n0,1.5\n\n\n0.5,2\n1,-3\n\n",
    "t,x,v\r\n0,1.5,0.25\r\n0.5,2,-1e-7\r\n1,-3,4\r\n",
    "t,x,v\r\n# c\r\n\r\n0,1.5,0.25 # d\r\n1,-3,4\r\n\r\n",
], ids=["comments", "blank-lines", "crlf", "crlf-comments-blank"])
def test_path_read_gives_the_rows_of_the_handle_read(tmp_path, text):
    path = tmp_path / "traj.csv"
    path.write_bytes(text.encode())
    back = io.read_trajectory_csv(str(path))
    columns = [back.times, back.positions]
    if back.velocities is not None:
        columns.append(back.velocities)
    assert np.column_stack(columns).tobytes() == loadtxt_on_the_handle(path).tobytes()


@pytest.mark.parametrize("body", ["0,1\n0.5,x\n1,2\n", "0,1\n# c\n\n0.5,2,7\n",
                                  "0,1\r\n1,\r\n"])
def test_path_read_gives_the_malformed_row_message_of_the_handle_read(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"t,x\n" + body.encode())
    with pytest.raises(ValueError) as want:
        loadtxt_on_the_handle(path)
    with pytest.raises(ValueError) as got:
        io.read_trajectory_csv(str(path))
    assert str(got.value) == f"{path}: {want.value}"
    assert "at row" in str(got.value)


def test_no_temp_files_left_behind(tmp_path):
    traj = Trajectory(times=[0.0, 1.0], positions=np.array([0.0, 2.0]))
    io.write_trajectory_csv(str(tmp_path / "a.csv"), traj)
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_written_file_gets_the_mode_open_gives(tmp_path, umask):
    # the temporary file mkstemp makes is 0600; the file renamed over the
    # target gets 0666 less the umask, as one open() creates does
    traj = Trajectory(times=[0.0, 1.0], positions=np.array([0.0, 2.0]))
    old = os.umask(umask)
    try:
        io.write_trajectory_csv(str(tmp_path / "a.csv"), traj)
        (tmp_path / "b.csv").write_text("")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("a.csv", "b.csv")]
    assert modes == [0o666 & ~umask] * 2


def underdamped_trajectory(n):
    rng = np.random.default_rng(5)
    return Trajectory(times=0.01 * np.arange(n),
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

    def test_repeated_key_names_both_lines(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("replicates = 400\nmodel = ou\n\nreplicates = 3\n")
        with pytest.raises(ConfigError, match=r"c.cfg:4: key 'replicates' repeats line 1$"):
            io.parse_config_file(str(cfg))

    def test_typed_lookup_names_key(self):
        with pytest.raises(ConfigError, match="theta_true"):
            io.config_get({"theta_true": "abc"}, "theta_true", float)
        with pytest.raises(ConfigError, match="delta"):
            io.config_get({}, "delta", float)

    @pytest.mark.parametrize("text,convert,message", [
        ("", float, "empty list"), (" \t", int, "empty list"),
        ("0.0 1", float, "'0.0 1'"), ("10 0", int, "'10 0'"),
        ("1,,2", float, "''"), ("10,", int, "''"), (",", float, "''")],
        ids=["empty", "blank", "glued-floats", "glued-ints", "empty-item",
             "trailing-comma", "only-a-comma"])
    def test_list_parsers(self, text, convert, message):
        # every item converts, so a space inside a number is no longer
        # dropped to glue its digits ("0.0 1" read as 0.01, "10 0" as 100)
        # and an empty item is no longer skipped
        assert io.parse_list("0.1, 0.01,1e-3", float) == [0.1, 0.01, 1e-3]
        assert io.parse_list(" 100 ,1000 ", int) == [100, 1000]
        with pytest.raises(ValueError, match=f"{message}$"):
            io.parse_list(text, convert)
