"""CSV persistence and flat key=value config parsing.

All numeric output uses 17 significant digits so a written trajectory reads
back to the exact same doubles. Writes go to a temporary file in the target
directory followed by an atomic rename.
"""

import os
import tempfile

import numpy as np

from .core import ConfigError, ObservationGrid, Trajectory


_SPEC = ".17g"
_CHUNK_ROWS = 8192  # rows converted, formatted and written at a time


def atomic_write_text(path: str, chunks):
    """Write an iterable of strings, each as it comes, to a temporary file
    beside path and rename it over path; on any failure path is untouched
    and the temporary file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_columns(path: str, header: str, columns):
    """A header line, then one row of %.17g fields per index of the equally
    long columns, streamed to the file a chunk of rows at a time."""
    row = ",".join(["%" + _SPEC] * len(columns)) + "\n"

    def chunks():
        yield header + "\n"
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            block = [c[start:start + _CHUNK_ROWS].tolist() for c in columns]
            yield "".join([row % values for values in zip(*block)])

    atomic_write_text(path, chunks())


def write_trajectory_csv(path: str, traj: Trajectory):
    """Header t,x (plus v for underdamped runs), one row per grid point."""
    if traj.velocities is None:
        write_columns(path, "t,x", [traj.times, traj.positions])
    else:
        write_columns(path, "t,x,v", [traj.times, traj.positions, traj.velocities])


def read_trajectory_csv(path: str) -> Trajectory:
    with open(path) as fh:
        header = fh.readline().strip()
        if header not in ("t,x", "t,x,v"):
            raise ConfigError(f"{path}: unexpected trajectory header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    columns = header.count(",") + 1
    if len(data) and data.shape[1] != columns:
        raise ConfigError(f"{path}: header {header!r} names {columns} columns, "
                          f"the rows have {data.shape[1]}")
    grid = ObservationGrid(data[:, 0], substeps_per_interval=1)
    vel = data[:, 2] if header == "t,x,v" else None
    return Trajectory(grid=grid, positions=data[:, 1], velocities=vel)


def write_sweep_csv(path: str, rows):
    row = f"%{_SPEC},%s,%s,%{_SPEC},%{_SPEC},%s,%s\n"
    lines = ["mu,n,replicate,theta_hat,abs_error,sup_distance,error\n"]
    for r in rows:
        sup = "" if r.sup_distance is None else format(r.sup_distance, _SPEC)
        err = "" if r.error is None else r.error.replace(",", ";")
        lines.append(row % (r.mu, r.n, r.replicate, r.theta_hat, r.abs_error, sup, err))
    atomic_write_text(path, lines)


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment. Returns raw strings."""
    values = {}
    try:
        with open(path) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(raw_lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        values[key] = value.strip().strip('"')
    return values


def config_get(cfg: dict, key: str, convert, default=None):
    """Typed lookup that names the offending key on failure."""
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"missing required config key {key!r}")
    try:
        return convert(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {cfg[key]!r} ({exc})") from exc


def parse_list(text: str, convert):
    """Comma-separated values, each converted; an empty list is an error."""
    items = [s for s in text.replace(" ", "").split(",") if s]
    if not items:
        raise ValueError("empty list")
    return [convert(s) for s in items]
