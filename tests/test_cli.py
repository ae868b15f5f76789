import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skestim
from skestim import io

# the directory holding the skestim this process imported, from a checkout
# or an install; a relative PYTHONPATH would not resolve from the child's cwd
PACKAGE_ROOT = str(Path(skestim.__file__).resolve().parents[1])


def run_cli(args, cwd, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "skestim.cli"] + args,
                          cwd=cwd, capture_output=True, text=True, env=env)


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
        proc = run_cli(SIMULATE_ARGS, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        first = (tmp_path / "traj.csv").read_bytes()
        proc = run_cli(SIMULATE_ARGS, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "traj.csv").read_bytes() == first

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

    def test_env_var_output_dir(self, tmp_path):
        outdir = tmp_path / "results"
        outdir.mkdir()
        env = dict(os.environ, SKESTIM_OUT=str(outdir))
        proc = run_cli(SIMULATE_ARGS, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (outdir / "traj.csv").exists()


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

    def test_golden_matches_closed_form(self, tmp_path):
        proc = run_cli(SIMULATE_ARGS, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        outs = []
        for method in ["closed-form", "golden"]:
            proc = run_cli(["estimate", "--traj", "traj.csv", "--model", "colloidal",
                            "--gamma", "0.1666667", "--theta-lo", "0",
                            "--theta-hi", "0.1", "--method", method], cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            outs.append(float(proc.stdout.split("theta_hat=")[1].split()[0]))
        assert outs[0] == pytest.approx(outs[1], abs=1e-6)

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
        model = MODELS["constant-force"]()
        direct = [objective(traj, model, 1.0, t) for t in thetas]
        assert np.allclose(values, direct, rtol=1e-12)

    def test_missing_file_exits_1(self, tmp_path):
        proc = run_cli(["estimate", "--traj", "nope.csv", "--model", "ou",
                        "--gamma", "1", "--theta-lo", "0", "--theta-hi", "1"],
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert "nope.csv" in proc.stderr

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
        assert "sum of ||b1||^2 dt is 0" in proc.stderr
        assert "theta_hat" not in proc.stdout

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

    def test_subnormal_friction_exits_1(self, tmp_path):
        self.make_three_rows(tmp_path)
        proc = run_cli(["estimate", "--traj", "three.csv", "--model", "ou",
                        "--gamma", "1e-320", "--theta-lo", "0", "--theta-hi", "1"],
                       cwd=tmp_path)
        assert proc.returncode == 1
        assert "friction" in proc.stderr
        assert "Warning" not in proc.stderr


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

    def test_flag_overrides_config(self, tmp_path):
        (tmp_path / "sweep.cfg").write_text(SWEEP_CFG)
        proc = run_cli(["sweep", "--config", "sweep.cfg", "--replicates", "1"],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 4


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
