"""The benchmark's correctness gate, in the fast test run: theta_hat of the
figure1 and roundtrip workloads against perfbench/reference.json (read only),
at the benchmark's tolerance, so that a change which would fail the gate
fails here first."""

import json
from pathlib import Path

import pytest

from skestim import cli
from skestim.experiments import run_figure1

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json")
                       .read_text())["seeds"]
THETA_ATOL = 1e-8  # perfbench/workloads.py's THETA_ATOL


@pytest.mark.parametrize("seed", [3, 16])
def test_figure1_matches_the_reference(seed):
    # the figure1 op: the closed form on one colloidal path, n = 1e5, dt = 0.01,
    # 10 substeps (seed 16 has the largest reference theta_hat)
    _, _, result = run_figure1(seed, n=100_000, dt=0.01, substeps=10)
    assert abs(result.theta_hat - REFERENCE[str(seed)]["figure1"]) <= THETA_ATOL


def test_roundtrip_golden_matches_the_reference(tmp_path, monkeypatch):
    # the roundtrip op's calls: an overdamped path written to CSV, read back
    # and fitted by golden section
    seed, found = 4, []

    def recorded(*args, **kwargs):
        found.append(minimize_golden(*args, **kwargs))
        return found[-1]

    minimize_golden = cli.minimize_golden
    monkeypatch.setattr(cli, "minimize_golden", recorded)
    traj = str(tmp_path / "traj.csv")
    gamma = "0.16666666666666666"
    assert cli.main(["simulate", "--mode", "overdamped", "--model", "colloidal",
                     "--gamma", gamma, "--sigma", "10", "--theta", "0.02",
                     "--n", "100000", "--dt", "0.01", "--substeps", "1",
                     "--seed", str(seed), "--out", traj]) == 0
    assert cli.main(["estimate", "--traj", traj, "--model", "colloidal", "--gamma", gamma,
                     "--theta-lo", "0", "--theta-hi", "0.1", "--method", "golden"]) == 0
    assert abs(found[0].theta_hat - REFERENCE[str(seed)]["roundtrip"]) <= THETA_ATOL
