"""One fresh benchmark process.

    python perfbench/child.py '<spec json>'

It first times its own set-up: ``import skestim.cli`` plus one parser
build (``main(["--help"])``), before anything has imported numpy. With
``"mode": "setup"`` it stops there. Otherwise it runs one warm-up op that
also verifies the outputs against the seed-commit reference, then timed ops
for ``seconds``, and writes its result as JSON to ``spec["result"]``.
With ``trace`` on, untraced and traced ops alternate (in the order
U T T U) so that both see the same conditions; the spans of the traced ops
go to ``spec["spans"]``.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

from tracing import Tracer, op_metrics
from workloads import WORKLOADS


def time_setup():
    """Seconds to import skestim.cli and build its parser, in this fresh
    interpreter. Nothing before this call imports skestim or numpy."""
    start = time.perf_counter()
    import skestim.cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            skestim.cli.main(["--help"])
        except SystemExit:
            pass
    return time.perf_counter() - start


def run_calls(main, argvs):
    """Make the op's CLI calls in turn. Returns (stdout, errors); an error is
    a nonzero exit or an exception escaping main."""
    out, err = io.StringIO(), io.StringIO()
    errors = []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                errors.append(f"{argv[0]} raised: {traceback.format_exc()}")
                break
            if code != 0:
                errors.append(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
                break
    return out.getvalue(), errors


def digest(paths):
    hashes = {}
    for path in paths:
        with open(path, "rb") as fh:
            hashes[path] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def run(spec, setup_s):
    import skestim.cli

    workload = WORKLOADS[spec["workload"]](spec["work"], spec["seed"])
    workload.prepare()
    main = skestim.cli.main

    first_op_rss_kb = []

    def run_main(argvs):
        result = run_calls(main, argvs)
        if not first_op_rss_kb:
            # the peak of one op in a fresh process, as a CLI user sees it;
            # later ops reuse a heap whose fragmentation varies run to run
            first_op_rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return result

    (_, run_errors), verify_errors, thetas = workload.verify(run_main, spec["reference"])
    expected = {} if run_errors else digest(workload.outputs)
    warmup_errors = run_errors or verify_errors + workload.check()
    ops = [{"kind": "warmup", "errors": warmup_errors}]

    tracer = Tracer() if spec["trace"] else None
    layer = []
    deadline = time.perf_counter() + spec["seconds"]
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        traced = tracer is not None and i % 4 in (1, 2)
        with tracer.op(main) if traced else contextlib.nullcontext(main) as op_main:
            start = time.perf_counter()
            _, errors = run_calls(op_main, workload.argvs())
            wall = time.perf_counter() - start
        if not errors:
            errors = workload.check()
        if not errors and digest(workload.outputs) != expected:
            errors = ["outputs differ from the warm-up op's"]
        if not errors and warmup_errors:
            errors = ["outputs match the warm-up op's, which failed its checks"]
        if traced and not errors:
            metrics = op_metrics(tracer.ops[-1], workload.cells)
            metrics["trace.accounted_share"] = metrics["trace.self_sum_s"] / wall
            layer.append(metrics)
        ops.append({"kind": "traced" if traced else "timed", "wall_s": wall,
                    "errors": errors})
        i += 1

    if tracer is not None:
        tracer.dump(spec["spans"], {"workload": workload.name, "seed": workload.seed,
                                    "missing_targets": tracer.missing})
    return {
        "setup_s": setup_s,
        "peak_rss_kb": first_op_rss_kb[0],
        "ops": ops,
        "hashes": expected,
        "thetas": thetas,
        "layer": layer,
        "missing_targets": tracer.missing if tracer is not None else [],
    }


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    setup_s = time_setup()
    result = {"setup_s": setup_s} if spec["mode"] == "setup" else run(spec, setup_s)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
