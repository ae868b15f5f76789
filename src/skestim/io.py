"""CSV persistence and flat key=value config parsing.

All numeric output uses 17 significant digits so a written trajectory reads
back to the exact same doubles. The numeric CSVs are formatted a chunk of
rows at a time by a numpy kernel that gives the bytes of format(v, ".17g")
for every double. Writes go to a temporary file in the target directory
followed by an atomic rename.
"""

import os
import tempfile

import numpy as np

from .core import ConfigError, ObservationGrid, Trajectory


_SPEC = ".17g"
_CHUNK_ROWS = 8192  # rows converted, formatted and written at a time
_FIELD = 24  # the widest %.17g field, "-2.2250738585072014e-308"

# The kernel formats the values %.17g writes in fixed notation, 1e-4 <= |v| <
# 1e17. It rounds |v| to 17 significant digits, N = round(|v| * 10**k) in
# [1e16, 1e17), exactly: every power of ten up to 1e22 is a double, Dekker's
# product gives |v| * 10**k as hi + lo exactly, and hi >= 2**53 is an even
# integer, so hi + rint(lo) rounds half to even as dtoa does. N's digits are
# its leading one and four groups of four looked up in _GROUPS.
_POW10 = np.array([float(10 ** k) for k in range(21)])
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp: a double as two halves of 26 bits


def _group_table():
    """Entry q is b"%04d" % q as a little-endian uint32, and entry 10**4 + q
    the same with its trailing zeros NUL. Built by slice assignment alone:
    an arithmetic loop numpy runs first here would load its code at import."""
    table = np.empty((2,) + (10,) * 4 + (4,), np.uint8)  # [0, a, b, c, d] is b"abcd"
    for k in range(4):
        table[..., k] = np.frombuffer(b"0123456789", np.uint8).reshape((10,) + (1,) * (3 - k))
    trimmed = table[1]
    trimmed[..., 0, 3:] = 0
    trimmed[..., 0, 0, 2:] = 0
    trimmed[:, 0, 0, 0, 1:] = 0
    trimmed[0, 0, 0, 0] = 0
    return table.reshape(-1, 4).view("<u4").ravel()


_GROUPS = _group_table()


def atomic_write_text(path: str, chunks):
    """Write an iterable of bytes, each as it comes, to a temporary file
    beside path and rename it over path; on any failure path is untouched
    and the temporary file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # read only by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        # mkstemp makes the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _rounded(a, k):
    """round(a * 10**k) to even, exactly, as int64; a * 10**k < 2**63."""
    p = _POW10[k]
    x = a * p
    ah, al = _split(a)
    ph, pl = _split(p)
    lo = al * pl - (((x - ah * ph) - al * ph) - ah * pl)
    return x.astype(np.int64) + np.rint(lo).astype(np.int64)


def _format_column(field, values):
    """Write the %.17g text of each value into its row of field, a uint8
    matrix of _FIELD columns holding NUL, left-justified."""
    a = np.abs(values)
    fixed = (a >= 1e-4) & (a < 1e17)  # %g's fixed notation at 17 digits
    for r in np.flatnonzero(~fixed).tolist():  # zeros, exponents, inf, nan
        text = b"%.17g" % values[r]
        field[r, :len(text)] = np.frombuffer(text, np.uint8)
    rows = np.flatnonzero(fixed)
    a = a[rows]
    # digits before the point, or minus the zeros after it
    d = np.clip(np.floor(np.log10(a)).astype(np.int64) + 1, -3, 17)
    n = _rounded(a, 17 - d)
    off = (n >= 10 ** 17).astype(np.int64) - (n < 10 ** 16)  # log10 one off
    if off.any():
        fix = np.flatnonzero(off)
        d[fix] += off[fix]
        n[fix] = _rounded(a[fix], 17 - d[fix])
    # from here on the values go in order of d, so each d is one run of rows
    order = np.argsort(d.astype(np.int8), kind="stable")
    d, n, rows = d[order], n[order], rows[order]
    # bytes 3 to 19 hold the 17 digits, those after the last nonzero one NUL,
    # and byte 20 a NUL
    words = np.zeros((len(n), 6), "<u4")
    trailing = np.ones(len(n), bool)  # every later group is zero
    for i in (4, 3, 2, 1):
        rest = n // 10 ** 4
        q = n - rest * 10 ** 4
        n = rest
        words[:, i] = _GROUPS[q + 10 ** 4 * trailing]
        trailing &= q == 0
    words[:, 0] = (n + 48) << 24
    digits = words.view(np.uint8)[:, 3:21]
    text = np.zeros((len(n), _FIELD), np.uint8)
    text[:, 0] = np.where(values[rows] < 0, 45, 0)
    stop = 0
    for width, count in enumerate(np.bincount(d + 3).tolist(), -3):
        at = slice(stop, stop + count)
        stop += count
        if width > 0:  # integer digits are never trimmed; a dot if a digit follows
            np.bitwise_or(digits[at, :width], 48, out=text[at, 1:1 + width])
            np.minimum(digits[at, width], 46, out=text[at, 1 + width])
            text[at, 2 + width:19] = digits[at, width:17]
        elif count:
            text[at, 1:3 - width] = np.frombuffer(b"0." + b"0" * -width, np.uint8)
            text[at, 3 - width:20 - width] = digits[at, :17]
    field[rows] = text


def write_columns(path: str, header: str, columns):
    """A header line, then one row of %.17g fields per index of the equally
    long columns, streamed to the file a chunk of rows at a time. A chunk is
    one matrix of fields and separators, NUL where there is no character."""
    rows = min(len(columns[0]), _CHUNK_ROWS)
    matrix = np.empty((rows, len(columns), _FIELD + 1), np.uint8)

    def chunks():
        yield header.encode() + b"\n"
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            block = matrix[:min(_CHUNK_ROWS, len(columns[0]) - start)]
            block.fill(0)
            for j, c in enumerate(columns):
                _format_column(block[:, j, :_FIELD],
                               np.asarray(c[start:start + _CHUNK_ROWS], np.float64))
            block[:, :, _FIELD] = ord(",")
            block[:, -1, _FIELD] = ord("\n")
            yield block.tobytes().translate(None, b"\0")

    atomic_write_text(path, chunks())


def write_trajectory_csv(path: str, traj: Trajectory):
    """Header t,x (plus v for underdamped runs), one row per grid point."""
    if traj.velocities is None:
        write_columns(path, "t,x", [traj.times, traj.positions])
    else:
        write_columns(path, "t,x,v", [traj.times, traj.positions, traj.velocities])


def read_trajectory_csv(path: str) -> Trajectory:
    """The trajectory a write_trajectory_csv file holds. The header and the
    presence of a row are checked on an open handle, which is then closed;
    np.loadtxt gets the path, since it reads a path in blocks but an open
    file one Python line at a time."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header not in ("t,x", "t,x,v"):
            raise ConfigError(f"{path}: unexpected trajectory header {header!r}")
        # np.loadtxt warns on a body of blank or comment lines
        if not any(line.split("#", 1)[0].strip() for line in iter(fh.readline, "")):
            raise ConfigError(f"{path}: no rows after the header {header!r}")
    try:  # every error about the rows names the file
        data = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
        columns = header.count(",") + 1
        if data.shape[1] != columns:
            raise ValueError(f"header {header!r} names {columns} columns, "
                             f"the rows have {data.shape[1]}")
        grid = ObservationGrid(data[:, 0], substeps_per_interval=1)
        vel = data[:, 2] if header == "t,x,v" else None
        return Trajectory(grid=grid, positions=data[:, 1], velocities=vel)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_sweep_csv(path: str, rows):
    row = f"%{_SPEC},%s,%s,%{_SPEC},%{_SPEC},%s,%s\n"
    lines = [b"mu,n,replicate,theta_hat,abs_error,sup_distance,error\n"]
    for r in rows:
        sup = "" if r.sup_distance is None else format(r.sup_distance, _SPEC)
        err = "" if r.error is None else r.error.replace(",", ";")
        lines.append((row % (r.mu, r.n, r.replicate, r.theta_hat, r.abs_error,
                             sup, err)).encode())
    atomic_write_text(path, lines)


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment. Returns raw strings;
    a key given twice is an error."""
    values, linenos = {}, {}
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
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {linenos[key]}")
        values[key], linenos[key] = value.strip().strip('"'), lineno
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
    """Comma-separated values, each stripped and converted; a blank list is
    an error, and so is an item that does not convert, an empty one included."""
    if not text.strip():
        raise ValueError("empty list")
    return [convert(s.strip()) for s in text.split(",")]
