"""Span tracing for the benchmark, done entirely from the benchmark's side.

Each public skestim function is wrapped where the calling module binds it
(``skestim.cli.objective`` and ``skestim.estimate.objective`` are separate
bindings of one function, and each call goes through exactly one of them).
A span is ``[name, start, end, parent index, attrs]``; spans are kept in
memory per operation and written out once, when the child process ends.

Span names are ``<layer>.<what>`` with the layer one of the six skestim
modules. Self time of a span is its duration minus that of its direct
children, so the self times of every span of an operation add up to the
duration of its root spans exactly.
"""

import importlib
import json
import os
import time
from contextlib import contextmanager

LAYERS = ("cli", "experiments", "core", "simulate", "estimate", "io")


def _grid_substeps(args, kwargs, result):
    # simulate_*(model, theta, params, grid, spec, noise): the count comes
    # from the grid the caller built, not from anything the integrator reports
    grid = kwargs["grid"] if "grid" in kwargs else args[3]
    return {"substeps": grid.total_substeps}


def _file_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    return {"bytes": os.path.getsize(path)}


# (module, attribute path, span name, attrs computed after the call returns)
TARGETS = (
    ("skestim.cli", "run_figure1", "experiments.run_figure1", None),
    ("skestim.cli", "run_consistency_sweep", "experiments.run_consistency_sweep", None),
    ("skestim.cli", "make_noise_path", "core.make_noise_path", None),
    ("skestim.experiments", "make_noise_path", "core.make_noise_path", None),
    ("skestim.core", "Trajectory.__post_init__", "core.Trajectory", None),
    ("skestim.cli", "simulate_underdamped", "simulate.underdamped", _grid_substeps),
    ("skestim.cli", "simulate_overdamped", "simulate.overdamped", _grid_substeps),
    ("skestim.experiments", "simulate_underdamped", "simulate.underdamped", _grid_substeps),
    ("skestim.experiments", "simulate_overdamped", "simulate.overdamped", _grid_substeps),
    ("skestim.experiments", "simulate_coupled", "simulate.coupled", None),
    ("skestim.simulate", "simulate_underdamped", "simulate.underdamped", _grid_substeps),
    ("skestim.simulate", "simulate_overdamped", "simulate.overdamped", _grid_substeps),
    ("skestim.cli", "minimize_closed_form", "estimate.minimize_closed_form", None),
    ("skestim.cli", "minimize_golden", "estimate.minimize_golden", None),
    ("skestim.cli", "objective", "estimate.objective", None),
    ("skestim.experiments", "minimize_closed_form", "estimate.minimize_closed_form", None),
    ("skestim.experiments", "minimize_golden", "estimate.minimize_golden", None),
    ("skestim.experiments", "quadratic_coefficients", "estimate.quadratic_coefficients", None),
    ("skestim.estimate", "objective", "estimate.objective", None),
    ("skestim.estimate", "quadratic_coefficients", "estimate.quadratic_coefficients", None),
    ("skestim.io", "parse_config_file", "io.parse_config_file", None),
    ("skestim.io", "read_trajectory_csv", "io.read_trajectory_csv", None),
    ("skestim.io", "write_trajectory_csv", "io.write_trajectory_csv", None),
    ("skestim.io", "write_curve_csv", "io.write_curve_csv", None),
    ("skestim.io", "write_sweep_csv", "io.write_sweep_csv", None),
    ("skestim.io", "atomic_write_text", "io.atomic_write_text", _file_bytes),
)

# Spans that write a file; the outermost one of a nest times the write.
WRITE_SPANS = frozenset(("io.write_trajectory_csv", "io.write_curve_csv",
                         "io.write_sweep_csv", "io.atomic_write_text"))


def _resolve(module_name, attr_path):
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def patched(module_name, attr_path, make_wrapper):
    """Replace a binding by ``make_wrapper(original)`` for the block."""
    owner, attr = _resolve(module_name, attr_path)
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Records spans while installed; ``ops`` holds one span list per op."""

    def __init__(self):
        self.ops = []
        self.missing = []
        self._spans = None
        self._stack = []
        self._originals = []
        for module_name, attr_path, name, attrs in TARGETS:
            try:
                owner, attr = _resolve(module_name, attr_path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            self._originals.append((owner, attr, original,
                                    self._wrap(name, original, attrs)))

    def _wrap(self, name, fn, attrs):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans = self._spans
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1], span[2] = start, end
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def op(self, main):
        """Trace one operation; yields ``main`` wrapped so that each CLI
        call the op makes becomes a ``cli.main`` root span."""
        self._spans = []
        self._stack.clear()
        for owner, attr, _, wrapper in self._originals:
            setattr(owner, attr, wrapper)
        try:
            yield self._wrap("cli.main", main, None)
        finally:
            for owner, attr, original, _ in self._originals:
                setattr(owner, attr, original)
            self.ops.append(self._spans)
            self._spans = None

    def dump(self, path, header):
        with open(path, "w") as fh:
            json.dump(dict(header, span_fields=["name", "start", "end", "parent", "attrs"],
                           ops=self.ops), fh)


def op_metrics(spans, cells):
    """Per-layer metrics of one traced op. Times are in seconds, counts are
    per op; ``cells`` is the number of sweep cells the op's input defines."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    total = {}
    calls = {}
    substeps = {"simulate.underdamped": 0, "simulate.overdamped": 0}
    bytes_written = 0
    write_s = 0.0
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        layer = name.split(".", 1)[0]
        layer_self[layer] += dur[i] - child[i]
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        if attrs:
            if "substeps" in attrs:
                substeps[name] += attrs["substeps"]
            bytes_written += attrs.get("bytes", 0)
        if name in WRITE_SPANS and (parent < 0 or spans[parent][0] not in WRITE_SPANS):
            write_s += dur[i]

    def ns_per_substep(name):
        return total.get(name, 0.0) / substeps[name] * 1e9 if substeps[name] else 0.0

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m["experiments.self_s_per_cell"] = (layer_self["experiments"] / cells
                                        if cells else 0.0)
    m["simulate.calls"] = (calls.get("simulate.underdamped", 0)
                           + calls.get("simulate.overdamped", 0))
    for kind in ("underdamped", "overdamped"):
        name = f"simulate.{kind}"
        m[f"{name}.s"] = total.get(name, 0.0)
        m[f"{name}.substeps"] = substeps[name]
        m[f"{name}.ns_per_substep"] = ns_per_substep(name)
    m["core.make_noise_path.calls"] = calls.get("core.make_noise_path", 0)
    m["core.make_noise_path.s"] = total.get("core.make_noise_path", 0.0)
    m["estimate.objective.calls"] = calls.get("estimate.objective", 0)
    for name in ("estimate.objective", "estimate.quadratic_coefficients",
                 "estimate.minimize_closed_form", "estimate.minimize_golden",
                 "io.write_trajectory_csv", "io.read_trajectory_csv"):
        m[f"{name}.s"] = total.get(name, 0.0)
    m["io.bytes_written"] = bytes_written
    m["io.write_mb_per_s"] = bytes_written / write_s / 1e6 if write_s else 0.0
    m["trace.spans"] = n
    m["trace.self_sum_s"] = sum(layer_self.values())
    return m
