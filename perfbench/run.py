"""skestim benchmark: drives the real CLI in-process, one op at a time.

    python3 perfbench/run.py --workload figure1 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; it imports skestim from ``src/``.
Each run starts fresh interpreters one after another (never two at once):
set-up probes, then CHILDREN workload processes that each warm up and
verify with one op, then time ops for ``seconds / CHILDREN``. Spreading
the ops over several processes averages out what differs between one
process and the next.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones, taken from traced
ops that alternate with untraced ones. Lines before it say the same for
people: sample counts, the tail percentile, fail_ratio, layer self times and
the tracing overhead. Work files and spans go to ``.bench_work/<workload>``.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import REFERENCE_SEEDS, WORKLOADS, load_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILDREN = 3
SETUP_PROBES = 6
TIME_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Per-layer counts taken from the inputs rather than measured, and the rates
# derived from them; they repeat exactly for the same inputs.
COMPUTED = ("simulate.underdamped.substeps", "simulate.overdamped.substeps",
            "simulate.underdamped.ns_per_substep", "simulate.overdamped.ns_per_substep",
            "io.bytes_written", "io.write_mb_per_s", "experiments.self_s_per_cell")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    # set-up is timed with the bytecode cache in place, as after an install
    for name in ("SKESTIM_OUT", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_child(spec, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before child {spec['result']}")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                               json.dumps(spec)], cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr}")
    with open(spec["result"]) as fh:
        return json.load(fh)


def tail_percentile(samples):
    """Highest whole percentile (nearest rank) with at least 10 samples
    beyond it, as (p, value); None with fewer than 11 samples."""
    xs = sorted(samples)
    for p in range(99, 0, -1):
        rank = math.ceil(p / 100 * len(xs))
        if len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return None


def describe_times(label, xs):
    tail = tail_percentile(xs)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "no tail percentile (needs 11 samples)")
    return (f"{label}: median {statistics.median(xs):.4f} s of {len(xs)}, "
            f"{tail_text}, min {min(xs):.4f}, max {max(xs):.4f}")


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "skestim", "cli.py")):
        raise BenchError(f"no skestim sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + TIME_LIMIT_S
    seed = args.seed % REFERENCE_SEEDS
    reference = load_reference()["seeds"][str(seed)].get(args.workload)
    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    ops_dir = os.path.join(work, "ops")
    os.makedirs(ops_dir)

    def spec(mode, k, seconds=0.0):
        return {"mode": mode, "workload": args.workload, "seed": seed,
                "seconds": seconds, "trace": args.trace, "work": ops_dir,
                "reference": reference,
                "result": os.path.join(work, f"{mode}-{k}.json"),
                "spans": os.path.join(work, f"spans-{k}.json")}

    # the first interpreter fills the bytecode cache; later ones start warm
    run_child(spec("setup", "cache"), deadline)
    setups = [run_child(spec("setup", k), deadline)["setup_s"]
              for k in range(SETUP_PROBES)]
    children = [run_child(spec("run", k, args.seconds / CHILDREN), deadline)
                for k in range(CHILDREN)]
    shutil.rmtree(ops_dir)
    return seed, setups, children


def summarize(args, seed, setups, children, declared):
    ops = []
    for k, child in enumerate(children):
        if child["hashes"] != children[0]["hashes"] or child["thetas"] != children[0]["thetas"]:
            for op in child["ops"]:
                op["errors"].append(f"process {k} outputs differ from process 0")
        ops += child["ops"]
    attempted = len(ops)
    failed = sum(1 for op in ops if op["errors"])
    failures = [f"FAILED {op['kind']} op: {op['errors'][0]}" for op in ops if op["errors"]]
    notes = failures[:5] + ([f"... and {len(failures) - 5} more"] if len(failures) > 5 else [])

    def walls(kind):
        timed = [op for op in ops if op["kind"] == kind]
        ok = [op["wall_s"] for op in timed if not op["errors"]]
        return ok or [op["wall_s"] for op in timed]

    setups = setups + [c["setup_s"] for c in children]
    untraced = walls("timed")
    wall = statistics.median(untraced)
    workload = WORKLOADS[args.workload]("", seed)
    lines = [
        f"workload {args.workload}: seed {args.seed} (program seed {seed}), "
        f"trace {args.trace}, {len(children)} processes x "
        f"{args.seconds / len(children):g} s, closed loop, one op at a time",
        f"fail_ratio {failed / attempted:g} ({failed} of {attempted} ops failed, "
        "warm-up ops included)",
        describe_times("setup_s (import skestim.cli + parser, fresh interpreters)", setups),
        describe_times("wall_s per op" + (", untraced" if args.trace else ""), untraced),
        f"substeps per op: {workload.substeps_per_op} (computed from the grid)",
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "substeps_per_s": workload.substeps_per_op / wall,
        "peak_rss_mb": statistics.median(c["peak_rss_kb"] for c in children) / 1024,
    }
    if args.trace:
        traced = walls("traced")
        layer = [m for c in children for m in c["layer"]]
        if not layer:
            raise BenchError("no traced op succeeded")
        metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.untraced_wall_s"] = wall
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        lines.append(describe_times("wall_s per op, traced", traced))
        lines.append(f"tracing overhead: {metrics['trace.overhead_s']:+.4f} s per op "
                     f"({metrics['trace.overhead_s'] / wall:+.1%} of untraced wall_s), "
                     f"{metrics['trace.spans']:.0f} spans per op")
        selfs = ", ".join(f"{name[:-7]} {metrics[name]:.4f}"
                          for name in metrics if name.endswith(".self_s"))
        lines.append(f"layer self time per op (s): {selfs}; sum "
                     f"{metrics['trace.self_sum_s']:.4f} s = "
                     f"{metrics['trace.accounted_share']:.2%} of traced wall_s")
        missing = {t for c in children for t in c["missing_targets"]}
        if missing:
            lines.append(f"not traced (binding absent): {', '.join(sorted(missing))}")
    else:
        rss = ", ".join(f"{c['peak_rss_kb'] / 1024:.1f}" for c in children)
        lines.append(f"peak_rss_mb of the first op per process: {rss}")
    report = {}
    for entry in declared:
        value = metrics[entry["name"]]
        report[entry["name"]] = {"value": value, "unit": entry["unit"]}
        tag = " (computed)" if entry["name"] in COMPUTED else ""
        lines.append(f"  {entry['name']:<40} {value:>14.6g} {entry['unit']}{tag}")
    return lines + notes, {"correct": failed == 0, "attempted": attempted,
                           "failed": failed, "metrics": report}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit from the handler makes subprocess.run kill and reap the
    # running child before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        declared = bench["per_layer" if args.trace else "end_to_end"]
        seed, setups, children = run(args)
        lines, result = summarize(args, seed, setups, children, declared)
    except (BenchError, OSError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
