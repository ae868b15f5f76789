"""The benchmark's tracer, in the fast test run: one traced op of each
workload in perfbench/workloads.py (read only), so that an API change which
would break a traced benchmark run fails here first."""

import sys
from pathlib import Path

import pytest

from skestim import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))  # workloads imports tracing by name
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


@pytest.mark.parametrize("name,underdamped,overdamped", [
    ("figure1", 1_000_000, 0), ("roundtrip", 0, 100_000), ("sweep-short", 0, 2_000)])
def test_one_traced_op(perfbench, tmp_path, name, underdamped, overdamped):
    tracing, workloads = perfbench
    workload = workloads.WORKLOADS[name](str(tmp_path), 1)
    workload.prepare()
    tracer = tracing.Tracer()
    # 7 bindings the tracer names no longer exist; none may be added
    assert len(tracer.missing) <= 7, tracer.missing
    with tracer.op(cli.main) as main:
        codes = [main(argv) for argv in workload.argvs()]
    assert codes == [0] * len(codes)
    assert workload.check() == []
    metrics = tracing.op_metrics(tracer.ops[-1], workload.cells)
    assert metrics["simulate.underdamped.substeps"] == underdamped
    assert metrics["simulate.overdamped.substeps"] == overdamped
