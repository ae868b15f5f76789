"""The three benchmark workloads: the CLI calls of one op, the integrator
substeps that op's inputs define, and the checks on its outputs.

Each op is a closed loop of ``skestim.cli.main(argv)`` calls made in turn.
The program sees only the argv built here and, for the sweep, a config file.
"""

import json
import math
import os

from tracing import patched

# 1/6 written out, the friction of the colloidal reproduction run.
GAMMA = "0.16666666666666666"

# Benchmark seeds map onto this many program seeds, each with theta_hat
# references recorded from the seed commit by record_reference.py.
REFERENCE_SEEDS = 64

# Absolute tolerance on theta_hat (about 0.01-0.02 here), both against the
# seed-commit reference and between golden section and the closed form on
# one CSV; the latter is the bound of acceptance test 3. Reordering the float
# operations of the integrator moved figure1's theta_hat by about 1e-18, and a
# different noise path or model moves it by more than 1e-5.
THETA_ATOL = 1e-8

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _recorder(found, key):
    """Wrapper factory that keeps the theta_hat an estimator returns."""
    def make(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            found[key] = result.theta_hat
            return result
        return wrapper
    return make


def _reference_errors(label, got, want):
    if want is None:
        return []
    if not abs(got - want) <= THETA_ATOL:
        return [f"{label} theta_hat {got!r} differs from the seed-commit "
                f"reference {want!r} by more than {THETA_ATOL:g}"]
    return []


class Workload:
    """One op's CLI calls, plus checks: ``check`` on every op's outputs,
    ``verify`` on the warm-up op against the seed-commit reference."""

    cells = 0

    def prepare(self):
        pass

    def check(self):
        return []


class Figure1(Workload):
    """One long colloidal underdamped path (n=1e5 x 10 substeps): the scalar
    integrator dominates and no replicate batching applies."""

    name = "figure1"
    n, dt, substeps = 100_000, "0.01", 10

    def __init__(self, work, seed):
        self.work, self.seed = work, seed
        self.result_path = os.path.join(work, "figure1_result.txt")
        self.outputs = [os.path.join(work, f) for f in
                        ("figure1_trajectory.csv", "figure1_curve.csv",
                         "figure1_result.txt")]
        self.substeps_per_op = self.n * self.substeps

    def argvs(self):
        return [["figure1", "--seed", str(self.seed), "--n", str(self.n),
                 "--dt", self.dt, "--substeps", str(self.substeps),
                 "--out-dir", self.work]]

    def verify(self, run, reference):
        """Run one op and compare its theta_hat with the reference.
        Returns (op result, errors, theta_hat by estimator)."""
        result = run(self.argvs())
        if result[1]:
            return result, [], {}
        with open(self.result_path) as fh:
            fields = dict(f.split("=", 1) for f in fh.read().split())
        theta = float(fields["theta_hat"])
        return result, _reference_errors("figure1", theta, reference), {"closed-form": theta}


class SweepShort(Workload):
    """1,600 short OU paths (n=50/200, 4 substeps): per-path costs dominate,
    the workload where a replicate-batched integrator shows."""

    name = "sweep-short"
    mu_values = (0.01, 0.001)
    n_values = (50, 200)
    replicates = 400
    delta = 2
    substeps = 4

    def __init__(self, work, seed):
        self.work, self.seed = work, seed
        self.config = os.path.join(work, "sweep.cfg")
        self.out = os.path.join(work, "sweep.csv")
        self.outputs = [self.out]
        self.cells = len(self.mu_values) * len(self.n_values) * self.replicates
        # every replicate integrates underdamped; replicate 0 of each (mu, n)
        # also integrates the overdamped limit for the coupling distance
        per_path = sum(n * self.substeps for n in self.n_values)
        self.substeps_per_op = len(self.mu_values) * per_path * (self.replicates + 1)

    def prepare(self):
        with open(self.config, "w") as fh:
            fh.write(f"model = ou\n"
                     f"mu_values = {', '.join(map(str, self.mu_values))}\n"
                     f"n_values = {', '.join(map(str, self.n_values))}\n"
                     f"replicates = {self.replicates}\n"
                     f"delta = {self.delta}\n"
                     f"substeps = {self.substeps}\n"
                     f"base_seed = {self.seed}\n"
                     "theta_true = 1.0\ntheta_lo = -5\ntheta_hi = 5\n")

    def argvs(self):
        return [["sweep", "--config", self.config, "--out", self.out]]

    def check(self):
        with open(self.out) as fh:
            header, *rows = fh.read().splitlines()
        errors = []
        if len(rows) != self.cells:
            errors.append(f"sweep wrote {len(rows)} rows, expected {self.cells}")
        failed = [r for r in rows if r.rsplit(",", 1)[-1]]
        if failed:
            errors.append(f"{len(failed)} sweep error rows, first: {failed[0]}")
        bad = [r for r in rows if not math.isfinite(float(r.split(",")[3]))]
        if bad:
            errors.append(f"{len(bad)} sweep rows with non-finite theta_hat")
        return errors

    def verify(self, run, reference):
        return run(self.argvs()), [], {}


class Roundtrip(Workload):
    """Simulate overdamped (n=1e5) to CSV, then a golden-section estimate with
    a 401-point curve: CSV write and read and objective passes dominate."""

    name = "roundtrip"
    n, dt = 100_000, "0.01"

    def __init__(self, work, seed):
        self.work, self.seed = work, seed
        self.traj = os.path.join(work, "traj.csv")
        self.curve = os.path.join(work, "curve.csv")
        self.outputs = [self.traj, self.curve]
        self.substeps_per_op = self.n

    def _estimate(self, method):
        return ["estimate", "--traj", self.traj, "--model", "colloidal",
                "--gamma", GAMMA, "--theta-lo", "0", "--theta-hi", "0.1",
                "--method", method]

    def argvs(self):
        return [["simulate", "--mode", "overdamped", "--model", "colloidal",
                 "--gamma", GAMMA, "--sigma", "10", "--theta", "0.02",
                 "--n", str(self.n), "--dt", self.dt, "--substeps", "1",
                 "--seed", str(self.seed), "--out", self.traj],
                self._estimate("golden") + ["--curve", self.curve]]

    def verify(self, run, reference):
        found = {}
        with patched("skestim.cli", "minimize_golden", _recorder(found, "golden")):
            result = run(self.argvs())
        if result[1]:
            return result, [], found
        with patched("skestim.cli", "minimize_closed_form",
                     _recorder(found, "closed-form")):
            closed = run([self._estimate("closed-form")])
        if closed[1]:
            return result, [f"closed-form estimate failed: {closed[1]}"], found
        errors = _reference_errors("roundtrip golden", found["golden"], reference)
        gap = abs(found["golden"] - found["closed-form"])
        if not gap <= THETA_ATOL:
            errors.append(f"golden theta_hat {found['golden']!r} is {gap:g} from the "
                          f"closed form {found['closed-form']!r} (bound "
                          f"{THETA_ATOL:g})")
        return result, errors, found


WORKLOADS = {w.name: w for w in (Figure1, SweepShort, Roundtrip)}
