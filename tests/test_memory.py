"""Peak memory of runs above their inputs, traced by tracemalloc.

The scalar integrators keep the path in array("d") buffers and the
estimator's kernels write into one scratch array, so the peak stays near
the arrays a run returns or needs. The bounds lie between those peaks and
the ones of Python float lists and per-operation temporaries (MiB, 1e5
intervals): underdamped 3.1 against 7.9, overdamped 2.3 against 4.4 (and
against 2.8 with an unused velocity kept per interval), coefficients and
golden section 3.1 against 3.8. The single-path runs are traced warm.

A sweep cell fits its batch one noise chunk at a time, so it holds one
draw's positions and replicate 0's overdamped path, not every replicate's
path: 3.1 against 11.2 MiB for 64 replicates of 2e4 intervals.
"""

import tracemalloc

import numpy as np
import pytest

from skestim import (MODELS, ObservationGrid, ParameterSpace, Scheme,
                     SweepConfig, SystemParams, Trajectory, minimize_golden,
                     run_consistency_sweep, simulate_overdamped,
                     simulate_underdamped)
from skestim.core import philox_generator
from skestim.estimate import quadratic_coefficients

MIB = 2 ** 20
COLLOIDAL = MODELS["colloidal"]
N = 100_000


def traced_peak(run):
    """Peak bytes traced while run() runs, what it returns included."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_underdamped_run():
    # Euler-Maruyama: tracing every float makes the exponential loop ten
    # times slower, and both schemes keep their path alike
    grid = ObservationGrid.uniform(N, 0.01, 10)
    p = SystemParams(mass=0.1, friction=1 / 6, noise=10.0)

    def run(grid):
        return simulate_underdamped(COLLOIDAL, 0.02, p, grid, Scheme.EULER_MARUYAMA,
                                    philox_generator(1, 0))

    # once untraced first: a cold first run is slow under tracing, and its
    # deferred imports would count towards the peak
    run(ObservationGrid.uniform(10, 0.01, 10))
    assert traced_peak(lambda: run(grid)) <= 4 * MIB


def test_overdamped_run():
    # the loop it shares with simulate_underdamped keeps no velocities here:
    # one more double per interval would peak at 2.8 MiB
    grid = ObservationGrid.uniform(N, 0.01, 1)
    p = SystemParams(mass=1.0, friction=1 / 6, noise=10.0)

    def run(grid):
        return simulate_overdamped(COLLOIDAL, 0.02, p, grid, philox_generator(1, 0))

    run(ObservationGrid.uniform(10, 0.01, 1))  # untraced first, as above
    assert traced_peak(lambda: run(grid)) <= 2.55 * MIB


@pytest.fixture(scope="module")
def path():
    # a reflected random walk: b1 = exp(-x / 18) stays in (0, 1]
    steps = np.random.default_rng(5).normal(0.0, 0.3, N)
    positions = np.abs(np.cumsum(np.r_[0.0, steps]))
    return Trajectory(ObservationGrid.uniform(N, 0.01), positions)


def test_quadratic_coefficients(path):
    assert traced_peak(lambda: quadratic_coefficients(path, COLLOIDAL, 1 / 6)) <= 3.5 * MIB


def test_golden_section(path):
    peak = traced_peak(lambda: minimize_golden(path, COLLOIDAL, 1 / 6,
                                               ParameterSpace(0.0, 0.1)))
    assert peak <= 3.5 * MIB


def test_sweep_cell():
    # 64 replicates of 2e4 intervals: their positions alone are 9.8 MiB
    def sweep(n):
        return run_consistency_sweep(SweepConfig(
            mu_values=[1e-2], n_values=[n], model_id="ou", theta_true=1.0,
            space=ParameterSpace(-5.0, 5.0), replicates=64, base_seed=3, substeps=1))

    sweep(20)  # untraced first, as in test_underdamped_run
    assert traced_peak(lambda: sweep(20_000)) <= 5 * MIB
