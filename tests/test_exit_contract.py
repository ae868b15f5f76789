"""The CLI's exit-code contract over joint combinations of extreme values.

Every subcommand, given any mix of values that are each at an edge of what a
double holds, exits 0, 1, 2 or 3 in bounded time, raises no exception and no
warning, and on a nonzero exit prints one stderr line (after any usage block)
and leaves no output file. The regression cases below pin defects that wider
searches over the same values found, which a small example budget may miss.
"""

import contextlib
import io
import os
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skestim import (MODELS, ObservationGrid, ParameterSpace, Trajectory, cli,
                     minimize_closed_form, minimize_golden)

DBL_MAX = "1.7976931348623157e308"
EXTREME = st.sampled_from(["0", "1", "-1", "5e-324", "1e-320", "1e-308", "1e300",
                           "-1e300", DBL_MAX, "inf", "-inf", "nan"])
SMALL = st.sampled_from(["2", "3", "1", "5", "0"])  # n, substeps, replicates, curve points
SEED = st.sampled_from(["0", "1", "7"])
MODEL = st.sampled_from(sorted(MODELS))


def extremes(draw, valid):
    """valid, a dict of valid values, with any set of its fields, drawn
    jointly, at an extreme value each; the others stay valid, so that a run
    gets past the checks of its inputs."""
    chosen = draw(st.sets(st.sampled_from(sorted(valid))))
    return {k: draw(EXTREME) if k in chosen else v for k, v in valid.items()}


def _options(draw, valid):
    return [f"--{name}={v}" for name, v in extremes(draw, valid).items()]


@st.composite
def simulate_case(draw):
    return ["simulate", "--model", draw(MODEL),
            "--mode", draw(st.sampled_from(["underdamped", "overdamped"])),
            "--scheme", draw(st.sampled_from(["exponential", "euler"])),
            f"--n={draw(SMALL)}", f"--substeps={draw(SMALL)}", f"--seed={draw(SEED)}",
            "--out", "{d}/x.csv"] + _options(draw, {
        "mu": "0.5", "gamma": "1", "sigma": "1", "theta": "1", "dt": "0.01",
        "x0": "0", "v0": "0"}), {}


@st.composite
def estimate_case(draw):
    path = extremes(draw, {"dt": "1", "x0": "1", "x1": "2", "x2": "1.5"})
    rows = "".join(f"{k * float(path['dt'])!r},{path[f'x{k}']}\n" for k in range(3))
    curve = draw(st.booleans())
    return (["estimate", "--traj", "{d}/t.csv", "--model", draw(MODEL),
             "--method", draw(st.sampled_from(["golden", "closed-form"]))]
            + _options(draw, {"gamma": "1", "theta-lo": "0", "theta-hi": "2",
                              "tol": "1e-10"})
            + (["--curve", "{d}/c.csv", f"--curve-points={draw(SMALL)}"] if curve else []),
            {"t.csv": "t,x\n" + rows})


@st.composite
def sweep_case(draw):
    def values(strategy):
        return ", ".join(draw(st.lists(strategy, min_size=1, max_size=2)))

    fields = extremes(draw, {
        "mu_a": "0.01", "mu_b": "0.001", "delta": "1", "theta_true": "1",
        "theta_lo": "-5", "theta_hi": "5", "gamma": "1", "sigma": "0.5", "x0": "1",
        "v0": "0"})
    mu_values = fields.pop("mu_a") + (", " + fields.pop("mu_b")) * draw(st.booleans())
    config = (f"model = {draw(MODEL)}\nmu_values = {mu_values}\n"
              f"n_values = {values(SMALL)}\nreplicates = {draw(SMALL)}\n"
              f"base_seed = {draw(SEED)}\nsubsteps = {draw(SMALL)}\n"
              + "".join(f"{key} = {v}\n" for key, v in fields.items()))
    return ["sweep", "--config", "{d}/s.cfg", "--out", "{d}/sweep.csv"], {"s.cfg": config}


@st.composite
def figure1_case(draw):
    return ["figure1", f"--seed={draw(SEED)}", f"--n={draw(SMALL)}",
            f"--substeps={draw(SMALL)}", "--out-dir", "{d}/fig"] + _options(
        draw, {"dt": "0.01"}), {}


@st.composite
def gamma_case(draw):
    fields = extremes(draw, {"mu_a": "0.1", "mu_b": "0.01", "dt": "0.1"})
    mu_values = fields["mu_a"] + ("," + fields["mu_b"]) * draw(st.booleans())
    return ["gamma-diagnostic", f"--mu-values={mu_values}", f"--n={draw(SMALL)}",
            f"--substeps={draw(SMALL)}", f"--dt={fields['dt']}", f"--seed={draw(SEED)}",
            "--out", "{d}/g.csv"], {}


def _files(d):
    return {os.path.join(root, name) for root, dirs, files in os.walk(d)
            for name in dirs + files}


def run_case(argv, inputs):
    """Run one CLI call in-process in a fresh directory; return its exit code,
    stdout and stderr after checking the contract."""
    with tempfile.TemporaryDirectory() as d:
        for name, text in inputs.items():
            with open(os.path.join(d, name), "w") as fh:
                fh.write(text)
        argv = [arg.replace("{d}", d) for arg in argv]
        before = _files(d)
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # a usage error
                code = exc.code
            elapsed = time.perf_counter() - start
        assert [str(w.message) for w in caught] == [], argv
        assert code in (0, 1, 2, 3), argv
        assert elapsed < 5.0, argv
        if code != 0:
            lines = err.getvalue().splitlines()
            if lines and lines[0].startswith("usage:"):  # argparse's block: one line, then indented ones
                lines = [line for line in lines[1:] if not line.startswith(" ")]
            assert len(lines) == 1, (argv, err.getvalue())
            left = _files(d) - before
            if argv[0] == "sweep" and left:  # every cell failed: it writes their error rows
                with open(os.path.join(d, "sweep.csv")) as fh:
                    assert all(row.split(",")[6] for row in fh.read().splitlines()[1:])
                left.remove(os.path.join(d, "sweep.csv"))
            assert not left, argv
        return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(case=st.one_of(simulate_case(), estimate_case(), sweep_case(), figure1_case(),
                      gamma_case()))
def test_every_subcommand_keeps_the_exit_code_contract(case):
    run_case(*case)


THREE = [1.0, 2.0, 1.5]  # positions at t = 0, 1, 2; a constant force's minimizer is gamma / 4


def _estimate(positions, model, gamma, lo, hi, *extra):
    """estimate through the CLI in-process, checked against the contract."""
    rows = "".join(f"{t},{x!r}\n" for t, x in enumerate(positions))
    return run_case(["estimate", "--traj", "{d}/t.csv", "--model", model,
                     f"--gamma={gamma}", f"--theta-lo={lo}", f"--theta-hi={hi}", *extra],
                    {"t.csv": "t,x\n" + rows})


def _fit(minimize, positions, model, gamma, lo, hi):
    """The same fit through the library, whose theta_hat keeps every digit."""
    traj = Trajectory(ObservationGrid([0.0, 1.0, 2.0]), np.array(positions))
    return minimize(traj, MODELS[model], float(gamma), ParameterSpace(float(lo), float(hi)))


@pytest.mark.parametrize("gamma,rtol", [("1e300", 1e-6), ("1e150", 1e-8)],
                         ids=["polish-overflow", "bracket-floor"])
def test_golden_on_a_wide_interval_finds_the_minimizer(gamma, rtol):
    # the polish's squared stencil overflowed (1e300); a tolerance floored once
    # at the first bracket's ulps stopped the search on the 1e283 scale after
    # a kept inner point had lost its place (1e150: theta_hat -2.3e282)
    code, out, err = _estimate(THREE, "constant-force", gamma, "-1e300", "1e300",
                               "--method", "golden")
    assert code == 0, err
    result = _fit(minimize_golden, THREE, "constant-force", gamma, "-1e300", "1e300")
    assert f"theta_hat={result.theta_hat:.6g} " in out
    assert result.theta_hat == pytest.approx(0.25 * float(gamma), rel=rtol)
    if gamma == "1e150":  # the closed form's answer, to acceptance test 3's 1e-8
        closed = _fit(minimize_closed_form, THREE, "constant-force", gamma, "-1e300", "1e300")
        assert result.theta_hat == pytest.approx(closed.theta_hat, rel=1e-8)


def test_golden_midpoint_near_the_largest_double():
    # 0.5 * (lo + hi) overflowed, with a warning, once the bracket neared
    # DBL_MAX, and an OverflowError escaped the polish; the minimizer is gamma * 3/4
    code, out, err = _estimate([0.0, 0.0, 1.5], "colloidal", DBL_MAX, "1", DBL_MAX,
                               "--method", "golden")
    assert code == 0, err
    result = _fit(minimize_golden, [0.0, 0.0, 1.5], "colloidal", DBL_MAX, "1", DBL_MAX)
    assert f"theta_hat={result.theta_hat:.6g} " in out
    assert result.theta_hat == pytest.approx(0.75 * float(DBL_MAX), rel=1e-6)


@pytest.mark.parametrize("extra", [["--method", "golden"], ["--curve", "{d}/c.csv"]],
                         ids=["golden", "closed-form-curve"])
def test_interval_whose_width_overflows_exits_1(extra):
    # hi - lo is inf: np.linspace warned twice and the error named theta=nan
    code, out, err = _estimate(THREE, "constant-force", "1", "-1e300", DBL_MAX, *extra)
    assert code == 1
    assert err == "error: parameter space [-1e+300, 1.79769e+308] is too wide\n"
    with pytest.raises(ValueError, match="too wide"):  # as for a sweep's theta_lo, theta_hi
        ParameterSpace(-float(DBL_MAX), float(DBL_MAX))


def test_golden_with_the_finest_tol_terminates():
    # F = 2 theta^2: the bracket keeps closing on 0, past the first bracket's
    # ulps (where a floor computed once stopped it, at theta_hat 7.9e-23),
    # until F underflows to 0, and then stops
    code, out, err = _estimate([1.0, 1.0, 1.0], "constant-force", "1", "-1", "1",
                               "--method", "golden", "--tol", "5e-324")
    assert code == 0, err
    assert " objective=0 " in out
    assert int(out.split("evaluations=")[1]) < 2000


def test_sweep_whose_every_cell_failed_prints_one_error_line():
    # it exited 2 after writing its error rows, with nothing on stderr
    code, out, err = run_case(["sweep", "--config", "{d}/s.cfg", "--out", "{d}/sweep.csv"], {
        "s.cfg": "model = colloidal\nmu_values = 0.01\nn_values = 2\nreplicates = 1\n"
                 "theta_true = -1e300\ntheta_lo = -5\ntheta_hi = 5\n"})
    assert code == 2
    assert err.startswith("divergence: every cell failed, the first with DivergenceError: ")
