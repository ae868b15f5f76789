import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skestim
from skestim import ParameterSpace, SweepConfig, cli, io

# the directory holding the skestim this process imported, from a checkout
# or an install; a relative PYTHONPATH would not resolve from the child's cwd
PACKAGE_ROOT = str(Path(skestim.__file__).resolve().parents[1])


def run_cli(args, cwd, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-W", "error::UserWarning", "-m", "skestim.cli"] + args,
                          cwd=cwd, capture_output=True, text=True, env=env)


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


SIMULATE_ARGS = ["simulate", "--model", "colloidal", "--mode", "underdamped",
                 "--mu", "0.001", "--gamma", "0.1666667", "--sigma", "10",
                 "--theta", "0.02", "--n", "1000", "--dt", "0.01",
                 "--seed", "7", "--out", "traj.csv"]


class TestSimulateCommand:

    def test_writes_expected_rows(self, tmp_path):
        proc = run_cli(SIMULATE_ARGS, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "t,x,v"
        assert len(lines) == 1002  # header + n+1 rows

    def test_zero_noise_zero_drift_constant(self, tmp_path):
        proc = run_cli(["simulate", "--model", "zero-drift", "--mode", "overdamped",
                        "--gamma", "1", "--sigma", "0", "--theta", "0", "--n", "20",
                        "--dt", "0.1", "--x0", "2.5", "--seed", "1",
                        "--out", "flat.csv"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        traj = io.read_trajectory_csv(str(tmp_path / "flat.csv"))
        assert np.all(traj.positions == 2.5)

    def test_rerun_byte_identical(self, tmp_path):
        # the file and stdout; the runtime goes to stderr
        proc = run_cli(SIMULATE_ARGS, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        first = (tmp_path / "traj.csv").read_bytes()
        rerun = run_cli(SIMULATE_ARGS, cwd=tmp_path)
        assert rerun.returncode == 0, rerun.stderr
        assert (tmp_path / "traj.csv").read_bytes() == first
        assert rerun.stdout == proc.stdout == (
            f"wrote {os.path.join('.', 'traj.csv')}: 1001 rows, final position "
            f"{io.read_trajectory_csv(str(tmp_path / 'traj.csv')).positions[-1]:.6g}\n")
        assert rerun.stderr.startswith("runtime ")

    def test_bad_param_exits_1(self, tmp_path):
        args = [a if a != "0.001" else "-1" for a in SIMULATE_ARGS]
        proc = run_cli(args, cwd=tmp_path)
        assert proc.returncode == 1
        assert "mass" in proc.stderr

    def test_non_finite_param_exits_1(self, tmp_path):
        args = [a if a != "0.1666667" else "inf" for a in SIMULATE_ARGS]
        proc = run_cli(args, cwd=tmp_path)
        assert proc.returncode == 1
        assert "friction must be finite" in proc.stderr
        assert not (tmp_path / "traj.csv").exists()

    def test_seed_beyond_64_bits_exits_1(self, tmp_path):
        # 2**64 would otherwise give the noise of --seed 0 --stream 1
        args = [a if a != "7" else str(2 ** 64) for a in SIMULATE_ARGS]
        proc = run_cli(args, cwd=tmp_path)
        assert proc.returncode == 1
        assert "2**64" in proc.stderr

    def test_divergence_exits_2(self, tmp_path):
        # colloidal drift explodes for strongly negative positions
        proc = run_cli(["simulate", "--model", "colloidal", "--mode", "overdamped",
                        "--gamma", "0.0001", "--sigma", "0", "--theta", "-5",
                        "--n", "50", "--dt", "1", "--x0", "1", "--seed", "1",
                        "--out", "x.csv"], cwd=tmp_path)
        assert proc.returncode == 2
        assert "diverged" in proc.stderr

    def test_overflowing_colloidal_run_exits_2(self, tmp_path):
        # exp(13000 / 18) overflows in the first substep: the run stops as a
        # divergence naming that substep, not as an OverflowError
        proc = run_cli(["simulate", "--mode", "underdamped", "--scheme", "euler",
                        "--model", "colloidal", "--gamma", "1", "--sigma", "1000",
                        "--theta", "100", "--mu", "0.1", "--n", "2000", "--dt", "0.01",
                        "--substeps", "1", "--x0", "-13000", "--seed", "4"], cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == ("divergence: underdamped run diverged at substep 1 "
                               "(t ~ 0.01): x=-13000.0, v=inf\n")
        assert proc.stdout == ""

    def test_grid_too_large_to_allocate_exits_1(self, tmp_path):
        # 1e15 + 1 observation times are 8 PB, which no allocation gets
        proc = run_cli(["simulate", "--mode", "overdamped", "--model", "ou",
                        "--gamma", "1", "--sigma", "1", "--theta", "1",
                        "--n", "1000000000000000", "--dt", "0.01", "--seed", "1"],
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: Unable to allocate ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "trajectory.csv").exists()

    TINY_STEP = ["simulate", "--model", "ou", "--mode", "underdamped", "--mu", "0.001",
                 "--gamma", "1", "--sigma", "1", "--theta", "1", "--n", "5",
                 "--seed", "1", "--out", "t.csv"]

    @pytest.mark.parametrize("dt,substeps", [("1e-310", "1"), ("1e-320", "20")])
    def test_substep_too_small_for_the_exponential_scheme_exits_1(self, tmp_path, dt,
                                                                  substeps):
        # friction * substep > 0, but sigma / (gamma * substep) overflows: a
        # configuration error before the loop, not a divergence in it
        proc = run_cli(self.TINY_STEP + ["--dt", dt, "--substeps", substeps],
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert f"substep {float(dt) / int(substeps):g} is too small" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("extra", [["--scheme", "euler", "--mu", "1"],
                                       ["--mode", "overdamped"], ["--sigma", "0"]],
                             ids=["euler", "overdamped", "no-noise"])
    def test_tiny_substep_without_the_quotient_runs(self, tmp_path, extra):
        proc = run_cli(self.TINY_STEP + ["--dt", "1e-310"] + extra, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 7

    @pytest.mark.parametrize("mode", ["underdamped", "overdamped"])
    def test_subnormal_friction_exits_1(self, tmp_path, mode):
        # friction * substep is positive but substep / friction overflows:
        # a parameter error, not a divergence of the run
        proc = run_cli(["simulate", "--model", "ou", "--mode", mode, "--mu", "1",
                        "--gamma", "1e-320", "--sigma", "1", "--theta", "1",
                        "--n", "10", "--dt", "0.01", "--substeps", "10",
                        "--seed", "1", "--out", "x.csv"], cwd=tmp_path)
        assert proc.returncode == 1
        assert "friction" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("mode", ["underdamped", "overdamped"])
    def test_friction_overflowing_its_quotients_exits_1(self, tmp_path, mode):
        # friction * substep > 0 and substep / friction is finite, but
        # 1 / friction and sigma / friction overflow
        proc = run_cli(["simulate", "--model", "ou", "--mode", mode, "--mu", "1",
                        "--gamma", "1e-310", "--sigma", "1", "--theta", "1",
                        "--n", "10", "--dt", "0.01", "--substeps", "10",
                        "--seed", "1", "--out", "x.csv"], cwd=tmp_path)
        assert proc.returncode == 1
        assert "friction" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("mode", ["underdamped", "overdamped"])
    @pytest.mark.parametrize("theta", ["inf", "nan"])
    def test_non_finite_theta_exits_1(self, tmp_path, mode, theta):
        args = ["simulate", "--model", "ou", "--mode", mode, "--gamma", "1",
                "--sigma", "1", "--theta", theta, "--n", "10", "--dt", "0.01",
                "--seed", "1", "--out", "x.csv"]
        proc = run_cli(args, cwd=tmp_path)
        assert proc.returncode == 1
        assert "theta must be finite" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("dt", ["inf", "nan"])
    def test_non_finite_dt_exits_1(self, tmp_path, dt):
        args = [a if a != "0.01" else dt for a in SIMULATE_ARGS]
        proc = run_cli(args, cwd=tmp_path)
        assert proc.returncode == 1
        assert "dt must be finite" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "traj.csv").exists()

    def test_env_var_output_dir(self, tmp_path):
        outdir = tmp_path / "results"
        outdir.mkdir()
        env = dict(os.environ, SKESTIM_OUT=str(outdir))
        proc = run_cli(SIMULATE_ARGS, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (outdir / "traj.csv").exists()

    def test_env_var_output_dir_holds_figure1_out_dir(self, tmp_path):
        outdir = tmp_path / "results"
        outdir.mkdir()
        env = dict(os.environ, SKESTIM_OUT=str(outdir))
        proc = run_cli(["figure1", "--seed", "1", "--n", "50", "--out-dir", "rel"],
                       cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (outdir / "rel" / "figure1_result.txt").exists()
        assert not (tmp_path / "rel").exists()


class TestEstimateCommand:

    def make_hand_case(self, tmp_path):
        (tmp_path / "hand.csv").write_text("t,x\n0,0\n1,1\n")

    def test_hand_case(self, tmp_path):
        self.make_hand_case(tmp_path)
        proc = run_cli(["estimate", "--traj", "hand.csv", "--model", "constant-force",
                        "--gamma", "1", "--theta-lo", "0", "--theta-hi", "2"],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "theta_hat=1" in proc.stdout

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_golden_matches_closed_form(self, tmp_path, monkeypatch, seed):
        # the benchmark's roundtrip check, at n = 1e4: golden section and the
        # closed form agree within 1e-8 (acceptance test 3's bound) on one
        # overdamped colloidal CSV; theta_hat is recorded in full through the
        # cli bindings, as stdout keeps only 6 digits
        traj, gamma = str(tmp_path / "traj.csv"), "0.16666666666666666"
        assert cli.main(["simulate", "--mode", "overdamped", "--model", "colloidal",
                         "--gamma", gamma, "--sigma", "10", "--theta", "0.02",
                         "--n", "10000", "--dt", "0.01", "--substeps", "1",
                         "--seed", str(seed), "--out", traj]) == 0
        found = {}

        def recorder(method, minimize):
            def record(*args, **kw):
                found[method] = minimize(*args, **kw)
                return found[method]
            return record

        for method, binding in [("closed-form", "minimize_closed_form"),
                                ("golden", "minimize_golden")]:
            monkeypatch.setattr(cli, binding, recorder(method, getattr(cli, binding)))
            assert cli.main(["estimate", "--traj", traj, "--model", "colloidal",
                             "--gamma", gamma, "--theta-lo", "0", "--theta-hi", "0.1",
                             "--method", method]) == 0
        assert not found["closed-form"].at_boundary
        gap = abs(found["golden"].theta_hat - found["closed-form"].theta_hat)
        assert gap <= 1e-8

    def test_curve_output_matches_direct_objective(self, tmp_path):
        from skestim import MODELS, objective
        self.make_hand_case(tmp_path)
        proc = run_cli(["estimate", "--traj", "hand.csv", "--model", "constant-force",
                        "--gamma", "1", "--theta-lo", "0", "--theta-hi", "2",
                        "--curve", "curve.csv", "--curve-points", "9"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        data = np.loadtxt(tmp_path / "curve.csv", delimiter=",", skiprows=1)
        thetas, values = data[:, 0], data[:, 1]
        assert np.all(np.diff(thetas) > 0)
        traj = io.read_trajectory_csv(str(tmp_path / "hand.csv"))
        model = MODELS["constant-force"]
        direct = [objective(traj, model, 1.0, t) for t in thetas]
        assert np.allclose(values, direct, rtol=1e-12)

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_curve_points_below_1_exits_1(self, tmp_path, points):
        self.make_hand_case(tmp_path)
        proc = run_cli(["estimate", "--traj", "hand.csv", "--model", "constant-force",
                        "--gamma", "1", "--theta-lo", "0", "--theta-hi", "2",
                        "--curve", "curve.csv", "--curve-points", points], cwd=tmp_path)
        assert proc.returncode == 1
        assert "--curve-points" in proc.stderr
        assert not (tmp_path / "curve.csv").exists()

    def test_missing_file_exits_1(self, tmp_path):
        proc = run_cli(["estimate", "--traj", "nope.csv", "--model", "ou",
                        "--gamma", "1", "--theta-lo", "0", "--theta-hi", "1"],
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert "nope.csv" in proc.stderr

    @pytest.mark.parametrize("text,message", [
        ("t,x\n0,1\nnan,2\n2,3\n", "grid times must be finite, got t_1=nan"),
        ("t,x\n0,1\n1,2\ninf,3\n", "grid times must be finite, got t_2=inf"),
        ("t,x,v\n0,1\n1,2\n", "header 't,x,v' names 3 columns, the rows have 2"),
        ("t,x\n0,1,5\n1,2,5\n", "header 't,x' names 2 columns, the rows have 3"),
        ("t,x\n0,1\n1,abc\n", "could not convert string 'abc' to float64"),
        ("t,x\n0,1\n1,2,3\n", "the number of columns changed from 2 to 3"),
        ("t,x\n1,1\n2,2\n", "grid must start at t=0, got t_0=1.0"),
        ("t,x\n0,1\n", "grid needs at least two observation times"),
        ("t,x\n0,1\n1,2\n1,3\n", "grid times must be strictly increasing (interval 2)"),
        ("t,x\n0,1\n1,nan\n", "trajectory contains non-finite positions"),
    ], ids=["nan-time", "inf-time", "missing-column", "extra-column", "text", "ragged",
            "t0", "single-row", "repeated-t", "nan-position"])
    def test_malformed_trajectory_exits_1(self, tmp_path, text, message):
        # one stderr line that names the file, also with every warning an
        # error; the errors of np.loadtxt, ObservationGrid and Trajectory
        # named neither the file nor its line
        (tmp_path / "bad.csv").write_text(text)
        proc = run_cli(["estimate", "--traj", "bad.csv", "--model", "ou",
                        "--gamma", "1", "--theta-lo", "0", "--theta-hi", "2"],
                       cwd=tmp_path, env={**os.environ, "PYTHONWARNINGS": "error"})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: bad.csv: " + message)
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize("body", ["", "\n", "\n# no rows\n  \n"],
                             ids=["empty", "blank", "comment"])
    def test_header_only_trajectory_exits_1(self, tmp_path, body):
        # rejected before np.loadtxt, which would warn on stderr first
        (tmp_path / "h.csv").write_text("t,x\n" + body)
        proc = run_cli(["estimate", "--traj", "h.csv", "--model", "ou",
                        "--gamma", "1", "--theta-lo", "0", "--theta-hi", "2"],
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "error: h.csv: no rows after the header 't,x'\n"
        assert proc.stdout == ""

    def test_identifiability_exits_3(self, tmp_path):
        # all-zero positions: the OU regressor b1(x) = -x vanishes
        (tmp_path / "flat.csv").write_text("t,x\n0,0\n1,0\n2,0\n")
        proc = run_cli(["estimate", "--traj", "flat.csv", "--model", "ou",
                        "--gamma", "1", "--theta-lo", "0", "--theta-hi", "1"],
                       cwd=tmp_path)
        assert proc.returncode == 3
        assert "identifiab" in proc.stderr.lower()

    def test_zero_friction_exits_1(self, tmp_path):
        self.make_hand_case(tmp_path)
        proc = run_cli(["estimate", "--traj", "hand.csv", "--model", "ou",
                        "--gamma", "0", "--theta-lo", "0", "--theta-hi", "1"],
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert "friction" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_golden_flat_objective_exits_3(self, tmp_path):
        self.make_hand_case(tmp_path)
        proc = run_cli(["estimate", "--traj", "hand.csv", "--model", "zero-drift",
                        "--gamma", "1", "--theta-lo", "-5", "--theta-hi", "5",
                        "--method", "golden"], cwd=tmp_path)
        assert proc.returncode == 3
        assert "flat" in proc.stderr
        assert "theta_hat" not in proc.stdout

    @pytest.mark.parametrize("method", [[], ["--method", "closed-form"]])
    def test_zero_drift_closed_form_exits_3(self, tmp_path, method):
        # zero drift is theta * 0 + 0: the closed form finds sum b1^2 dt = 0
        self.make_hand_case(tmp_path)
        proc = run_cli(["estimate", "--traj", "hand.csv", "--model", "zero-drift",
                        "--gamma", "1", "--theta-lo", "-5", "--theta-hi", "5"]
                       + method, cwd=tmp_path)
        assert proc.returncode == 3
        assert "A = sum of b1^2 dt / friction^2 is 0" in proc.stderr
        assert "theta_hat" not in proc.stdout

    def test_friction_too_large_for_A_exits_3_naming_both_causes(self, tmp_path):
        # b1 is 1 everywhere, but A = sum of dt / friction^2 underflows to 0
        (tmp_path / "three.csv").write_text("t,x\n0,1\n1,2\n2,1.5\n")
        proc = run_cli(["estimate", "--model", "constant-force", "--traj", "three.csv",
                        "--gamma=1e300", "--theta-lo=-1e300", "--theta-hi=1e300"],
                       cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == (
            "identifiability: theta is not identifiable from this path: A = sum of "
            "b1^2 dt / friction^2 is 0, as b1 vanishes along the trajectory or the "
            "friction is too large for A to be represented\n")
        assert proc.stdout == ""

    def test_golden_curve_with_overflowing_coefficients_exits_1(self, tmp_path):
        # golden section finds theta_hat where the objective stays finite,
        # but the curve's coefficient A overflows
        (tmp_path / "three.csv").write_text("t,x\n0,0\n0.01,1e-3\n0.02,2e-3\n")
        proc = run_cli(["estimate", "--traj", "three.csv", "--model", "ou",
                        "--gamma", "1e-307", "--theta-lo", "0", "--theta-hi", "1e-300",
                        "--method", "golden", "--curve", "c.csv"], cwd=tmp_path)
        assert proc.returncode == 1
        assert "coefficients overflow" in proc.stderr
        assert "Warning" not in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("rows,args,message", [
        # A and B are finite, but C overflows far from the wall, and so the
        # objective at the vertex: no interval makes it finite
        ("0,5000\n1,5001\n2,5000.5", ["--model", "colloidal", "--gamma", "1e-160",
                                      "--theta-lo", "0", "--theta-hi", "1e300"],
         "error: the objective's coefficient C = F(0) overflows (C=inf)"),
        # coefficients (2, -0, inf): the objective is inf at every theta
        ("0,0\n1,1e200\n2,0", ["--model", "constant-force", "--gamma", "1",
                               "--theta-lo=-1", "--theta-hi", "1"],
         "error: the objective's coefficient C = F(0) overflows (C=inf)"),
        # the fit is finite, the curve's A theta^2 overflows at the ends
        ("0,0\n1,1\n2,0.5", ["--model", "ou", "--gamma", "1", "--theta-lo=-1e300",
                             "--theta-hi", "1e300"],
         "not a finite value; narrow the interval [-1e+300, 1e+300]"),
        ("0,0\n1,1\n2,0.5", ["--model", "ou", "--gamma", "1", "--theta-lo", "1e299",
                             "--theta-hi", "1e300"],
         "not a finite value; narrow the interval [1e+299, 1e+300]"),
    ], ids=["overflowing-C", "overflowing-C-everywhere", "overflowing-curve",
            "clipped-vertex"])
    def test_non_finite_objective_exits_1(self, tmp_path, rows, args, message):
        (tmp_path / "p.csv").write_text("t,x\n" + rows + "\n")
        proc = run_cli(["estimate", "--traj", "p.csv", "--curve", "c.csv"] + args,
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert message in proc.stderr
        assert "Warning" not in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("method,evaluations", [("closed-form", 1),
                                                    ("golden", 52)])
    def test_curve_frozen(self, tmp_path, capsys, method, evaluations):
        # SHA-256 of the curve CSV and the exact result line, pinned before
        # the curve went through the shared column writer
        traj, curve = str(tmp_path / "traj.csv"), str(tmp_path / "curve.csv")
        assert cli.main(SIMULATE_ARGS[:-1] + [traj]) == 0
        capsys.readouterr()
        assert cli.main(["estimate", "--traj", traj, "--model", "colloidal",
                         "--gamma", "0.1666667", "--theta-lo", "0",
                         "--theta-hi", "0.1", "--method", method, "--curve", curve,
                         "--curve-points", "41"]) == 0
        assert capsys.readouterr().out == (
            "theta_hat=0.00314217 objective=1.57184e+06 "
            f"method={method} at_boundary=False evaluations={evaluations}\n"
            f"wrote {curve}\n")
        # the curve does not depend on the method
        assert sha256_of(curve) == (
            "4c3a724d3e8fb0ae1f6f06fed6fc35ede82d78a9f2e7976feb1e417c518173a6")

    @pytest.mark.parametrize("method,binding", [("closed-form", "minimize_closed_form"),
                                                ("golden", "minimize_golden")])
    def test_estimate_calls_the_minimizer_through_the_cli_binding(
            self, tmp_path, monkeypatch, capsys, method, binding):
        # the benchmark's traced runs time the minimizers by patching these
        # names in skestim.cli, so estimate must look them up there
        traj = str(tmp_path / "traj.csv")
        assert cli.main(SIMULATE_ARGS[:-1] + [traj]) == 0
        calls = []
        minimize = getattr(cli, binding)
        monkeypatch.setattr(cli, binding,
                            lambda *args, **kw: calls.append(1) or minimize(*args, **kw))
        assert cli.main(["estimate", "--traj", traj, "--model", "colloidal",
                         "--gamma", "0.1666667", "--theta-lo", "0", "--theta-hi", "0.1",
                         "--method", method]) == 0
        assert f"method={method}" in capsys.readouterr().out
        assert len(calls) == 1

    def make_three_rows(self, tmp_path):
        (tmp_path / "three.csv").write_text("t,x\n0,1\n1,2\n2,1.5\n")

    def test_golden_non_finite_objective_exits_1(self, tmp_path):
        self.make_three_rows(tmp_path)
        proc = run_cli(["estimate", "--traj", "three.csv", "--model", "ou",
                        "--gamma", "1", "--theta-lo=-1e300", "--theta-hi=1e300",
                        "--method", "golden"], cwd=tmp_path)
        assert proc.returncode == 1
        assert "[-1e+300, 1e+300]" in proc.stderr
        assert "Warning" not in proc.stderr
        assert "theta_hat" not in proc.stdout

    def test_overflowing_coefficients_exit_1(self, tmp_path):
        # a normal friction whose (dt / friction)^2 overflows A: exit 1 naming
        # the friction, not exit 3 saying b1 vanishes
        self.make_three_rows(tmp_path)
        proc = run_cli(["estimate", "--traj", "three.csv", "--model", "ou",
                        "--gamma", "1e-307", "--theta-lo", "0", "--theta-hi", "1"],
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert "friction" in proc.stderr
        assert "Warning" not in proc.stderr
        assert "theta_hat" not in proc.stdout

    def test_subnormal_friction_exits_1(self, tmp_path):
        self.make_three_rows(tmp_path)
        proc = run_cli(["estimate", "--traj", "three.csv", "--model", "ou",
                        "--gamma", "1e-320", "--theta-lo", "0", "--theta-hi", "1"],
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert "friction" in proc.stderr
        assert "Warning" not in proc.stderr


def _floats(**bounds):
    return st.floats(**bounds).map(repr)


NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
NOT_POSITIVE = st.one_of(NON_FINITE, _floats(max_value=0.0))
# 1 / friction overflows below 1 / DBL_MAX, about 5.6e-309
FRICTION = st.one_of(NOT_POSITIVE, _floats(min_value=5e-324, max_value=5e-309))
NOT_IN_64_BITS = st.one_of(st.integers(max_value=-1),
                           st.integers(min_value=2 ** 64)).map(str)

SIMULATE_VALID = {"mu": "0.5", "gamma": "1", "sigma": "1", "theta": "1", "n": "10",
                  "dt": "0.01", "substeps": "2", "x0": "0", "v0": "0", "seed": "1",
                  "stream": "0"}
SIMULATE_INVALID = {
    "mu": NOT_POSITIVE, "gamma": FRICTION,
    "sigma": st.one_of(NON_FINITE, _floats(max_value=-5e-324)),
    "theta": NON_FINITE, "dt": NOT_POSITIVE, "x0": NON_FINITE, "v0": NON_FINITE,
    "n": st.integers(max_value=0).map(str),
    "substeps": st.integers(max_value=0).map(str),
    "seed": NOT_IN_64_BITS, "stream": NOT_IN_64_BITS,
}
ESTIMATE_VALID = {"gamma": "1", "theta-lo": "0", "theta-hi": "2", "tol": "1e-10",
                  "curve-points": "5"}
ESTIMATE_INVALID = {
    "gamma": FRICTION, "theta-lo": st.one_of(NON_FINITE, _floats(min_value=2.0)),
    "theta-hi": st.one_of(NON_FINITE, _floats(max_value=0.0)),
    "tol": NOT_POSITIVE, "curve-points": st.integers(max_value=0).map(str),
}


def _invalid_case(valid, invalid):
    return st.sampled_from(sorted(invalid)).flatmap(
        lambda key: invalid[key].map(lambda value: dict(valid, **{key: value})))


def _run_in_process(argv):
    start = time.perf_counter()
    code = cli.main(argv)
    return code, time.perf_counter() - start


class TestInvalidNumbersExit1:
    """Every invalid numeric option stops as a configuration error, without a
    warning (pytest turns RuntimeWarnings into errors) and in bounded time."""

    @settings(max_examples=120, deadline=None, database=None)
    @given(values=_invalid_case(SIMULATE_VALID, SIMULATE_INVALID),
           mode=st.sampled_from(["underdamped", "overdamped"]),
           model=st.sampled_from(["ou", "colloidal"]))
    def test_simulate(self, values, mode, model):
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "x.csv")
            code, elapsed = _run_in_process(
                ["simulate", "--model", model, "--mode", mode, "--out", out]
                + [f"--{k}={v}" for k, v in values.items()])
            assert code == 1
            assert elapsed < 5.0
            assert not os.path.exists(out)

    @settings(max_examples=80, deadline=None, database=None)
    @given(values=_invalid_case(ESTIMATE_VALID, ESTIMATE_INVALID),
           model=st.sampled_from(["ou", "constant-force"]))
    def test_estimate(self, values, model):
        # golden section, so that --tol is read
        with tempfile.TemporaryDirectory() as d:
            traj, curve = os.path.join(d, "t.csv"), os.path.join(d, "c.csv")
            with open(traj, "w") as fh:
                fh.write("t,x\n0,1\n1,2\n2,1.5\n")
            code, elapsed = _run_in_process(
                ["estimate", "--traj", traj, "--model", model, "--method", "golden",
                 "--curve", curve] + [f"--{k}={v}" for k, v in values.items()])
            assert code == 1
            assert elapsed < 5.0
            assert not os.path.exists(curve)


class TestUsageErrors:
    """argparse's own exit code 2 would read as a divergence."""

    def test_unknown_command_exits_1(self, tmp_path):
        proc = run_cli(["nope"], cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: skestim")
        assert "invalid choice: 'nope'" in proc.stderr

    def test_option_missing_its_value_exits_1(self, tmp_path):
        # argparse reads -1e300 as an option, so --theta-lo has no value
        proc = run_cli(["estimate", "--traj", "t.csv", "--model", "ou",
                        "--gamma", "1", "--theta-lo", "-1e300", "--theta-hi", "1"],
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: skestim estimate")
        assert "--theta-lo: expected one argument" in proc.stderr

    def test_help_exits_0(self, tmp_path):
        proc = run_cli(["--help"], cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: skestim")
        assert proc.stderr == ""

    def test_simulate_usage_names_the_schemes(self, capsys, monkeypatch):
        # the choices are the values of Scheme, in its order
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_:
            cli.main(["simulate", "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith(
            "usage: skestim simulate [-h] --model {colloidal,constant-force,ou,zero-drift}\n"
            "                        --gamma GAMMA --mode {underdamped,overdamped}\n"
            "                        [--mu MU] --sigma SIGMA --theta THETA --n N --dt DT\n"
            "                        [--substeps SUBSTEPS] [--scheme {euler,exponential}]\n"
            "                        [--x0 X0] [--v0 V0] --seed SEED [--stream STREAM]\n"
            "                        [--out OUT]\n")


def readme_commands():
    """Every skestim command in README's sh blocks, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```sh\n")[1:]
    lines = "".join(b.split("```", 1)[0] for b in blocks).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in lines.splitlines()
            if line.startswith("skestim ")]


def test_readme_examples_parse():
    # parsed only, not run; a flag the CLI drops fails here with exit 1
    commands = readme_commands()
    assert {args[0] for args in commands} == set(cli._COMMANDS)
    for args in commands:
        assert cli._build_parser().parse_args(args).command == args[0]


SWEEP_CFG = """\
model = ou
mu_values = 0.1, 0.01
n_values = 20, 40
delta = 1.0
replicates = 3
base_seed = 5
theta_true = 1.0
theta_lo = -5
theta_hi = 5
sigma = 0.5
substeps = 2
"""


class TestSweepCommand:

    def test_row_count_and_rerun_identical(self, tmp_path):
        (tmp_path / "sweep.cfg").write_text(SWEEP_CFG)
        proc = run_cli(["sweep", "--config", "sweep.cfg"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 12
        first = (tmp_path / "sweep.csv").read_bytes()
        proc = run_cli(["sweep", "--config", "sweep.cfg"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sweep.csv").read_bytes() == first

    def test_unknown_key_exits_1(self, tmp_path):
        (tmp_path / "sweep.cfg").write_text(SWEEP_CFG + "typo_key = 1\n")
        proc = run_cli(["sweep", "--config", "sweep.cfg"], cwd=tmp_path)
        assert proc.returncode == 1
        assert "typo_key" in proc.stderr

    def test_repeated_key_exits_1(self, tmp_path):
        # the first value is not silently replaced by the last
        (tmp_path / "sweep.cfg").write_text(SWEEP_CFG + "replicates = 1\n")
        proc = run_cli(["sweep", "--config", "sweep.cfg"], cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "error: sweep.cfg:12: key 'replicates' repeats line 5\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_repeated_mu_value_exits_1(self, tmp_path):
        (tmp_path / "sweep.cfg").write_text(SWEEP_CFG.replace("0.1, 0.01", "0.01, 1e-2"))
        proc = run_cli(["sweep", "--config", "sweep.cfg"], cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "error: mu_values must not repeat a value, got 0.01 2 times\n"
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_theta_true_exits_1(self, tmp_path, value):
        # it integrated every cell, wrote a CSV of error rows and a table of
        # nan, and only then exited 1 as every cell failed
        (tmp_path / "sweep.cfg").write_text(
            SWEEP_CFG.replace("theta_true = 1.0", f"theta_true = {value}"))
        proc = run_cli(["sweep", "--config", "sweep.cfg"], cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == f"error: theta_true must be finite, got {float(value)}\n"
        assert proc.stdout == ""
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flag", ["--replicates", "--base-seed"])
    def test_config_keys_are_not_flags(self, tmp_path, flag):
        # replicates and base_seed are set in the config file alone
        (tmp_path / "sweep.cfg").write_text(SWEEP_CFG)
        proc = run_cli(["sweep", "--config", "sweep.cfg", flag, "1"], cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: skestim")
        assert proc.stderr.splitlines()[-1] == (
            f"skestim: error: unrecognized arguments: {flag} 1")
        assert proc.stdout == ""
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("mu_values = 0.1, 0.01", "mu_values = 0.0 1",
         "config key 'mu_values': cannot parse '0.0 1' "
         "(could not convert string to float: '0.0 1')"),
        ("n_values = 20, 40", "n_values = 10 0",
         "config key 'n_values': cannot parse '10 0' "
         "(invalid literal for int() with base 10: '10 0')"),
        ("mu_values = 0.1, 0.01", "mu_values = 0.1,,0.01",
         "config key 'mu_values': cannot parse '0.1,,0.01' "
         "(could not convert string to float: '')"),
        ("n_values = 20, 40", "n_values = 20, 40,",
         "config key 'n_values': cannot parse '20, 40,' "
         "(invalid literal for int() with base 10: '')"),
    ], ids=["glued-mu", "glued-n", "empty-item", "trailing-comma"])
    def test_list_item_that_is_not_a_number_exits_1(self, tmp_path, capsys,
                                                    old, new, message):
        # a space inside a value glued its digits: 0.0 1 ran mu = 0.01 and
        # 10 0 ran n = 100, with exit 0; an empty item was dropped
        (tmp_path / "sweep.cfg").write_text(SWEEP_CFG.replace(old, new))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(tmp_path / "sweep.cfg"),
                         "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("case,error,code", [
        ("model = constant-force\ngamma = 1e-307\nsigma = 0\ntheta_true = 0\n",
         "ValueError", 1),
        ("model = colloidal\ntheta_true = -1000\n", "DivergenceError", 2),
        ("model = zero-drift\ntheta_true = 0\n", "IdentifiabilityError", 3),
        ("model = ou\ntheta_true = 1\ndelta = 1e-310\n", "ValueError", 1),
    ], ids=["value", "divergence", "identifiability", "tiny-substep"])
    def test_every_row_failed_exits_with_its_code(self, tmp_path, case, error, code):
        (tmp_path / "sweep.cfg").write_text(
            case + "mu_values = 0.01\nn_values = 10\nreplicates = 2\n"
            "theta_lo = -1\ntheta_hi = 1\n")
        proc = run_cli(["sweep", "--config", "sweep.cfg"], cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        header, *rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2
        assert all(row.split(",")[6].startswith(error + ":") for row in rows)

    @pytest.mark.parametrize("case,code,digest", [
        ("", 0, (
         "c88e833354c59682643c25a5acdcfb29fc83b22f296d94c22a497c0ea21b7443")),
        ("model = colloidal\ntheta_true = -1000\n", 2, (
         "c54992e6c93a672a491c229beb940b0969fbb524df65ddf7a269ba093e5806be")),
    ], ids=["ou", "error-rows"])
    def test_csv_frozen(self, tmp_path, case, code, digest):
        # SHA-256 of sweep.csv; the error rows' messages hold commas, written
        # as semicolons, and their sup_distance is empty. The case's keys
        # replace SWEEP_CFG's lines, since a key given twice is an error
        keys = {line.split("=")[0] for line in case.splitlines()}
        kept = [line for line in SWEEP_CFG.splitlines(True) if line.split("=")[0] not in keys]
        (tmp_path / "sweep.cfg").write_text("".join(kept) + case)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(tmp_path / "sweep.cfg"),
                         "--out", str(out)]) == code
        assert sha256_of(out) == digest

    def test_required_keys_only_take_the_defaults(self, tmp_path):
        (tmp_path / "min.cfg").write_text(
            "model = ou\nmu_values = 0.1\nn_values = 20\ntheta_true = 1\n"
            "theta_lo = -5\ntheta_hi = 5\n")
        assert cli._sweep_config_from_file(str(tmp_path / "min.cfg")) == SweepConfig(
            mu_values=[0.1], n_values=[20], delta=1.0, replicates=1, base_seed=0,
            model_id="ou", theta_true=1.0, space=ParameterSpace(-5.0, 5.0),
            gamma=1.0, sigma=1.0, x0=1.0, v0=0.0, substeps=4)


class TestFigure1Command:

    ARGS = ["figure1", "--seed", "2", "--n", "400", "--dt", "0.01",
            "--substeps", "5", "--out-dir", "fig1"]

    def test_writes_three_files(self, tmp_path):
        proc = run_cli(self.ARGS, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        for name in ["figure1_trajectory.csv", "figure1_curve.csv",
                     "figure1_result.txt"]:
            assert (tmp_path / "fig1" / name).exists()
        assert "theta_hat=" in proc.stdout

    def test_files_frozen(self, tmp_path):
        # SHA-256 of the three files, pinned before the curve went through
        # the shared column writer and the result line through a list
        assert cli.main(self.ARGS[:-1] + [str(tmp_path / "fig1")]) == 0
        assert {name: sha256_of(tmp_path / "fig1" / name) for name in [
            "figure1_trajectory.csv", "figure1_curve.csv", "figure1_result.txt"]} == {
            "figure1_trajectory.csv":
                "aa8b4ade5d627f35216fedff6678db08d29e9a0b3cf9d3253c743067d95aefba",
            "figure1_curve.csv":
                "8ed3f681acf6cdcc3046f201a51a62934038497fef7052d5b0d8bcbae227e9fa",
            "figure1_result.txt":
                "53d4ea84a844d37c6395e69651aad2ec89373e6ab22d62dabfb1117d0e416baa",
        }

    def test_rerun_byte_identical(self, tmp_path):
        proc = run_cli(self.ARGS, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        files = {name: (tmp_path / "fig1" / name).read_bytes()
                 for name in ["figure1_trajectory.csv", "figure1_curve.csv",
                              "figure1_result.txt"]}
        proc = run_cli(self.ARGS, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        for name, content in files.items():
            assert (tmp_path / "fig1" / name).read_bytes() == content


class TestGammaDiagnosticCommand:

    def test_table_and_csv(self, tmp_path):
        proc = run_cli(["gamma-diagnostic", "--mu-values", "0.1,0.01",
                        "--n", "200", "--seed", "3", "--out", "gamma.csv"],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "gamma.csv").read_text().splitlines()
        assert lines[0] == "mu,uniform_gap,sup_distance"
        assert len(lines) == 3

    def test_csv_frozen(self, tmp_path):
        # SHA-256 of gamma.csv: integrating the overdamped limit once per call
        # gives the bytes that one overdamped run per mass gave. Re-pinned when
        # the gap became the exact sup: the mu = 1e-4 row's sup lies at an inner
        # vertex, theta ~ 6.4e-5, and the 1,001-point grid it replaced fell
        # short there (10802.893860696724, now 10802.894774307482)
        out = tmp_path / "gamma.csv"
        assert cli.main(["gamma-diagnostic", "--seed", "5", "--n", "300",
                         "--substeps", "7", "--mu-values", "0.2,0.003,1e-4",
                         "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c2bb85a7d456c165408d1d51756fb91cc29be5ca450658b446767850847446bc")

    @pytest.mark.parametrize("value,message", [
        ("", "empty list"), ("0.1,abc", "could not convert string to float: 'abc'"),
        ("1 2", "could not convert string to float: '1 2'"),
        ("0.1,,0.01", "could not convert string to float: ''"),
        ("0.1,", "could not convert string to float: ''")],
        ids=["empty", "not-a-float", "glued", "empty-item", "trailing-comma"])
    def test_bad_mu_values_exit_1_naming_the_flag(self, tmp_path, value, message):
        proc = run_cli(["gamma-diagnostic", "--seed", "1", f"--mu-values={value}"],
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            f"skestim gamma-diagnostic: error: argument --mu-values: {message}")
        assert proc.stdout == ""

    def test_repeated_mu_value_exits_1(self, tmp_path):
        # it wrote three identical rows; the sweep rejects the same repeat
        proc = run_cli(["gamma-diagnostic", "--mu-values", "0.1,0.1,1e-1", "--n", "50",
                        "--seed", "1", "--out", "g.csv"], cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "error: mu_values must not repeat a value, got 0.1 3 times\n"
        assert proc.stdout == ""
        assert not (tmp_path / "g.csv").exists()

    def test_substep_too_small_for_the_exponential_scheme_exits_1(self, tmp_path):
        proc = run_cli(["gamma-diagnostic", "--seed", "1", "--n", "5", "--dt", "1e-320",
                        "--mu-values", "0.1", "--out", "g.csv"], cwd=tmp_path)
        assert proc.returncode == 1
        assert "too small for the exponential-velocity scheme" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "g.csv").exists()
