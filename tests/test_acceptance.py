"""End-to-end acceptance gate.

Each test checks one shipping criterion at its pinned tolerance and prints a
single PASS/FAIL line. Tolerances here are contractual; do not loosen them to
make a red test green.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import skestim
from skestim import (MODELS, ObservationGrid, ParameterSpace,
                     Scheme, SweepConfig, SystemParams,
                     minimize_closed_form, minimize_golden,
                     run_consistency_sweep, run_figure1, run_gamma_diagnostic,
                     simulate_overdamped, simulate_underdamped)
from skestim.core import philox_generator

EXP = Scheme.EXPONENTIAL_VELOCITY
OU = MODELS["ou"]


def record(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {label}: {status} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_1_colloidal_reproduction():
    # gamma=1/6, sigma=10, theta=0.02, mu=1e-3, n=1e5, dt=0.01; at least
    # 8 of 10 seeds must land within 0.0200 +/- 0.001, under 60 s per seed
    theta_true, tol = 0.02, 0.001
    hats, worst_runtime = [], 0.0
    for seed in range(10):
        start = time.perf_counter()
        _, _, res = run_figure1(seed=seed, n=100_000, dt=0.01, substeps=10)
        worst_runtime = max(worst_runtime, time.perf_counter() - start)
        hats.append(res.theta_hat)
    hits = sum(abs(h - theta_true) <= tol for h in hats)
    ok = hits >= 8 and worst_runtime < 60.0
    record(1, "colloidal single-trajectory recovery", ok,
           f"{hits}/10 seeds within {tol}, theta_hat mean {np.mean(hats):.4f}, "
           f"worst runtime {worst_runtime:.1f} s")


def test_2_zero_noise_exactness():
    worst = 0.0
    for model_name, theta0, gamma, x0 in [("colloidal", 0.02, 1 / 6, 0.0),
                                          ("ou", 1.0, 1.0, 1.0)]:
        model = MODELS[model_name]
        grid = ObservationGrid.uniform(200, 0.05, 1)
        p = SystemParams(mass=1.0, friction=gamma, noise=0.0, x0=x0)
        traj = simulate_overdamped(model, theta0, p, grid, philox_generator(0, 0))
        res = minimize_closed_form(traj, model, gamma,
                                   ParameterSpace(theta0 - 1.0, theta0 + 1.0))
        worst = max(worst, abs(res.theta_hat - theta0))
    ok = worst <= 1e-10
    record(2, "zero-noise exact recovery", ok, f"worst error {worst:.3g}")


def test_3_closed_form_vs_golden():
    space = ParameterSpace(-5.0, 5.0)
    p = SystemParams(mass=1.0, friction=1.0, noise=0.3, x0=1.0)
    worst, boundary_hits = 0.0, 0
    for seed in range(100):
        grid = ObservationGrid.uniform(50, 0.1, 1)
        traj = simulate_overdamped(OU, 1.0, p, grid,
                                   philox_generator(1000, seed))
        cf = minimize_closed_form(traj, OU, 1.0, space)
        gs = minimize_golden(traj, OU, 1.0, space, tol=1e-12)
        boundary_hits += cf.at_boundary
        worst = max(worst, abs(cf.theta_hat - gs.theta_hat))
    ok = worst <= 1e-8 and boundary_hits == 0
    record(3, "closed form vs golden section", ok,
           f"worst disagreement {worst:.3g} over 100 datasets, "
           f"{boundary_hits} boundary cases")


def test_4_small_mass_coupling():
    start = time.perf_counter()
    grid = ObservationGrid.uniform(1000, 0.01, 10)
    model = MODELS["colloidal"]
    sups = []
    for mu in [1e-1, 1e-2, 1e-3]:
        p = SystemParams(mass=mu, friction=1 / 6, noise=10.0, x0=0.0, v0=0.0)
        under = simulate_underdamped(model, 0.02, p, grid, EXP, philox_generator(1, 0))
        over = simulate_overdamped(model, 0.02, p, grid, philox_generator(1, 0))
        sups.append(float(np.max(np.abs(under.positions - over.positions))))
    elapsed = time.perf_counter() - start
    ok = sups[0] > sups[1] > sups[2] and elapsed < 30.0
    record(4, "pathwise coupling distance shrinks with mass", ok,
           f"sup distances {sups[0]:.3g} > {sups[1]:.3g} > {sups[2]:.3g}, "
           f"{elapsed:.1f} s")


def test_5_objective_gap_shrinks():
    rows = run_gamma_diagnostic([1e-1, 1e-2, 1e-3], n=2000, seed=11)
    gaps = [gap for _, gap, _ in rows]
    ratio = gaps[2] / gaps[0]
    ok = gaps[0] > gaps[1] > gaps[2] and ratio < 0.10
    record(5, "uniform objective gap shrinks with mass", ok,
           f"gaps {gaps[0]:.3g} > {gaps[1]:.3g} > {gaps[2]:.3g}, "
           f"ratio {ratio:.3f} < 0.10")


def test_6_consistency_trend():
    cfg = SweepConfig(mu_values=[1e-3], n_values=[100, 1000, 10_000], delta=2.0,
                      replicates=20, base_seed=42, model_id="ou", theta_true=1.0,
                      space=ParameterSpace(-5.0, 5.0), gamma=1.0, sigma=1.0,
                      x0=1.0, substeps=4)
    res = run_consistency_sweep(cfg)
    assert all(r.error is None for r in res)
    medians = [float(np.median([r.abs_error for r in res if r.n == n]))
               for n in cfg.n_values]
    ratio = medians[2] / medians[0]
    ok = medians[0] > medians[1] > medians[2] and ratio < 0.5
    record(6, "median error falls with sample size", ok,
           f"medians {medians[0]:.4f} > {medians[1]:.4f} > {medians[2]:.4f}, "
           f"n=1e4 vs n=1e2 ratio {ratio:.2f} < 0.5")


def test_7_simulator_oracles():
    # replicate mean of the overdamped OU endpoint against the analytic mean
    grid = ObservationGrid.uniform(10, 0.1, 5)
    p = SystemParams(mass=1.0, friction=1.0, noise=1.0, x0=1.0)
    finals = np.array([
        simulate_overdamped(OU, 1.0, p, grid,
                            philox_generator(2024, rep)).positions[-1]
        for rep in range(10_000)])
    se = finals.std(ddof=1) / math.sqrt(len(finals))
    mean_dev = abs(finals.mean() - math.exp(-1.0)) / se

    # fluctuation-dissipation: stationary velocity variance sigma^2/(2 gamma mu)
    mu, gamma, sigma = 1e-2, 1.0 / 6.0, 10.0
    vgrid = ObservationGrid.uniform(5000, 0.01, 10)
    vp = SystemParams(mass=mu, friction=gamma, noise=sigma, x0=0.0, v0=0.0)
    traj = simulate_underdamped(MODELS["zero-drift"], 0.0, vp, vgrid, EXP,
                                philox_generator(3, 0))
    v = traj.velocities[500:]  # burn-in 5 s >> mu/gamma = 0.06 s
    target = sigma ** 2 / (2.0 * gamma * mu)
    var_rel = abs(np.var(v) - target) / target

    ok = mean_dev < 5.0 and var_rel < 0.05
    record(7, "simulator moment oracles", ok,
           f"OU mean deviation {mean_dev:.2f} SE < 5, velocity variance "
           f"off by {var_rel:.1%} < 5%")


def test_8_cli_determinism(tmp_path):
    # the child imports the same skestim as this process, whatever the cwd
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(skestim.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")]))

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "skestim.cli"] + args,
                              cwd=tmp_path, capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr

    (tmp_path / "sweep.cfg").write_text(
        "model = ou\nmu_values = 0.01\nn_values = 50\ndelta = 1.0\n"
        "replicates = 2\nbase_seed = 3\ntheta_true = 1.0\n"
        "theta_lo = -5\ntheta_hi = 5\nsubsteps = 2\n")
    commands = [
        ["simulate", "--model", "colloidal", "--mode", "underdamped",
         "--mu", "0.001", "--gamma", "0.1666667", "--sigma", "10",
         "--theta", "0.02", "--n", "500", "--dt", "0.01", "--substeps", "5",
         "--seed", "7", "--out", "traj.csv"],
        ["estimate", "--traj", "traj.csv", "--model", "colloidal",
         "--gamma", "0.1666667", "--theta-lo", "0", "--theta-hi", "0.1",
         "--curve", "curve.csv"],
        ["sweep", "--config", "sweep.cfg", "--out", "sweep.csv"],
        ["figure1", "--seed", "2", "--n", "300", "--substeps", "5",
         "--out-dir", "fig1"],
        ["gamma-diagnostic", "--mu-values", "0.1,0.01", "--n", "200",
         "--seed", "3", "--out", "gamma.csv"],
    ]
    outputs = ["traj.csv", "curve.csv", "sweep.csv", "gamma.csv",
               "fig1/figure1_trajectory.csv", "fig1/figure1_curve.csv",
               "fig1/figure1_result.txt"]
    for args in commands:
        run(args)
    first = {name: (tmp_path / name).read_bytes() for name in outputs}
    for args in commands:
        run(args)
    stable = [name for name in outputs
              if (tmp_path / name).read_bytes() == first[name]]
    ok = len(stable) == len(outputs)
    record(8, "CLI reruns are byte-identical", ok,
           f"{len(stable)}/{len(outputs)} output files identical")
