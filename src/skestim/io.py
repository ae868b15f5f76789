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


def _fmt(x: float) -> str:
    return format(float(x), _SPEC)


def atomic_write_text(path: str, text):
    """Write text, a string or an iterable of strings written as they come,
    to a temporary file beside path and rename it over path; on any failure
    path is untouched and the temporary file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trajectory_csv(path: str, traj: Trajectory):
    """Header t,x (plus v for underdamped runs), one row per grid point,
    streamed to the file a chunk of rows at a time."""
    columns = [traj.times, traj.positions]
    if traj.velocities is not None:
        columns.append(traj.velocities)
    row = ",".join(["%" + _SPEC] * len(columns)) + "\n"

    def chunks():
        yield "t,x,v\n" if len(columns) == 3 else "t,x\n"
        for start in range(0, len(traj.grid), _CHUNK_ROWS):
            block = [c[start:start + _CHUNK_ROWS].tolist() for c in columns]
            yield "".join([row % values for values in zip(*block)])

    atomic_write_text(path, chunks())


def read_trajectory_csv(path: str) -> Trajectory:
    with open(path) as fh:
        header = fh.readline().strip()
        if header not in ("t,x", "t,x,v"):
            raise ConfigError(f"{path}: unexpected trajectory header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    grid = ObservationGrid(data[:, 0], substeps_per_interval=1)
    vel = data[:, 2] if header == "t,x,v" else None
    return Trajectory(grid=grid, positions=data[:, 1], velocities=vel)


def write_curve_csv(path: str, thetas, values):
    lines = ["theta,objective"]
    lines += [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(thetas, values)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_sweep_csv(path: str, rows):
    lines = ["mu,n,replicate,theta_hat,abs_error,sup_distance,error"]
    for r in rows:
        sup = "" if r.sup_distance is None else _fmt(r.sup_distance)
        err = "" if r.error is None else r.error.replace(",", ";")
        lines.append(f"{_fmt(r.mu)},{r.n},{r.replicate},"
                     f"{_fmt(r.theta_hat)},{_fmt(r.abs_error)},{sup},{err}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_gamma_csv(path: str, rows):
    lines = ["mu,uniform_gap,sup_distance"]
    lines += [f"{_fmt(mu)},{_fmt(gap)},{_fmt(sup)}" for mu, gap, sup in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


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


def parse_float_list(text: str):
    items = [s for s in text.replace(" ", "").split(",") if s]
    if not items:
        raise ValueError("empty list")
    return [float(s) for s in items]


def parse_int_list(text: str):
    items = [s for s in text.replace(" ", "").split(",") if s]
    if not items:
        raise ValueError("empty list")
    return [int(s) for s in items]
