import math

import numpy as np
import pytest

import skestim.estimate as estimate
import skestim.experiments as experiments
import skestim.simulate as simulate
from skestim import (MODELS, DivergenceError, DriftModel, ObservationGrid,
                     ParameterSpace, Scheme, SweepConfig, SystemParams,
                     minimize_closed_form, objective,
                     run_consistency_sweep, run_figure1, run_gamma_diagnostic,
                     simulate_overdamped, simulate_underdamped)
from skestim.core import philox_generator

DRAW_DOUBLES = simulate._DRAW_DOUBLES  # the default noise draw budget


def small_sweep_config(**overrides):
    kwargs = dict(mu_values=[1e-1, 1e-2], n_values=[20, 40], delta=1.0,
                  replicates=3, base_seed=7, model_id="ou", theta_true=1.0,
                  space=ParameterSpace(-5.0, 5.0), gamma=1.0, sigma=0.5,
                  x0=1.0, substeps=2)
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


def use_cubic_model(monkeypatch):
    """Register the unstable drift b = theta x^3 as sweep model "cubic"."""
    def cube(x):
        return x * x * x

    cubic = DriftModel("cubic", cube, 0.0)
    monkeypatch.setattr(experiments, "MODELS", dict(experiments.MODELS, cubic=cubic))
    return cubic


def cubic_sweep_config(base_seed):
    # one cell of 4 replicates under the cubic drift; some escape before the
    # horizon
    return small_sweep_config(mu_values=[0.1], n_values=[40], delta=0.2, replicates=4,
                              base_seed=base_seed, model_id="cubic", sigma=1.0, x0=0.5)


class TestFigure1:

    def test_small_run_deterministic(self):
        a = run_figure1(seed=3, n=500, dt=0.01, substeps=5)
        b = run_figure1(seed=3, n=500, dt=0.01, substeps=5)
        assert a[2].theta_hat == b[2].theta_hat
        assert np.array_equal(a[0].positions, b[0].positions)
        assert np.array_equal(a[1][1], b[1][1])

    def test_curve_matches_direct_objective(self):
        traj, (thetas, curve), _ = run_figure1(seed=3, n=300, dt=0.01, substeps=5)
        assert len(thetas) == 401
        model = MODELS["colloidal"]
        direct = [objective(traj, model, 1 / 6, t) for t in thetas]
        assert np.allclose(curve, direct, rtol=1e-9)

    def test_estimate_inside_space(self):
        _, _, res = run_figure1(seed=1, n=2000, dt=0.01, substeps=5)
        assert 0.0 <= res.theta_hat <= 0.1

    def test_curve_is_the_quadratic_and_the_minimum_a_direct_pass(self):
        # the curve comes from the path's (A, B, C); the minimum's objective
        # is the direct residual sum
        traj, (thetas, curve), res = run_figure1(seed=3, n=300, dt=0.01, substeps=5)
        model = MODELS["colloidal"]
        a, b, c = estimate.quadratic_coefficients(traj, model, 1 / 6)
        assert curve.tobytes() == ((a * thetas + b) * thetas + c).tobytes()
        assert res.objective_at_min == objective(traj, model, 1 / 6, res.theta_hat)


class TestConsistencySweep:

    def test_row_shape(self):
        res = run_consistency_sweep(small_sweep_config())
        assert len(res) == 2 * 2 * 3
        keys = [(r.mu, r.n, r.replicate) for r in res]
        assert keys == sorted(keys)
        assert all(r.abs_error >= 0 for r in res if r.error is None)

    def test_single_cell(self):
        res = run_consistency_sweep(small_sweep_config(
            mu_values=[1e-2], n_values=[20], replicates=1))
        assert len(res) == 1

    def test_coupled_diagnostic_on_replicate_zero_only(self):
        res = run_consistency_sweep(small_sweep_config())
        for r in res:
            assert (r.sup_distance is not None) == (r.replicate == 0)

    def test_reproducible(self):
        a = run_consistency_sweep(small_sweep_config())
        b = run_consistency_sweep(small_sweep_config())
        assert [r.theta_hat for r in a] == [r.theta_hat for r in b]

    def test_cell_failure_recorded_not_raised(self, monkeypatch):
        calls = {"n": 0}
        orig = experiments.clipped_vertex

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic cell failure")
            return orig(*args, **kwargs)

        monkeypatch.setattr(experiments, "clipped_vertex", flaky)
        res = run_consistency_sweep(small_sweep_config())
        failed = [r for r in res if r.error is not None]
        assert len(failed) == 1
        assert "synthetic cell failure" in failed[0].error
        assert len(res) == 12

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            small_sweep_config(mu_values=[])
        with pytest.raises(ValueError):
            small_sweep_config(n_values=[1])
        with pytest.raises(ValueError):
            small_sweep_config(replicates=0)
        with pytest.raises(ValueError):
            small_sweep_config(model_id="nope")

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            small_sweep_config(delta=delta)

    @pytest.mark.parametrize("draw_doubles", [DRAW_DOUBLES, 200, 23])
    def test_rows_equal_scalar_runs(self, monkeypatch, draw_doubles):
        # each replicate's batched path and fit against one scalar run on
        # its own noise stream; replicate 0 against the coupled run. With
        # the small budgets a cell spans several noise chunks (the n = 40
        # cells two chunks at 200 doubles, every cell 10 or 20 at 23), and
        # theta_hat sums the chunks' coefficients, not one row
        monkeypatch.setattr(simulate, "_DRAW_DOUBLES", draw_doubles)
        cfg = small_sweep_config(replicates=5)
        rows = {(r.mu, r.n, r.replicate): r for r in run_consistency_sweep(cfg)}
        assert len(rows) == 2 * 2 * 5
        model = MODELS["ou"]
        for i_mu, mu in enumerate(cfg.mu_values):
            params = SystemParams(mass=mu, friction=cfg.gamma, noise=cfg.sigma,
                                  x0=cfg.x0, v0=cfg.v0)
            for i_n, n in enumerate(cfg.n_values):
                grid = ObservationGrid.uniform(n, cfg.delta * math.sqrt(n) / n,
                                               cfg.substeps)
                for rep in range(cfg.replicates):
                    stream = experiments._stream_id(i_mu, i_n, rep)
                    traj = simulate_underdamped(model, cfg.theta_true, params, grid,
                                                Scheme.EXPONENTIAL_VELOCITY,
                                                philox_generator(cfg.base_seed, stream))
                    want = minimize_closed_form(traj, model, cfg.gamma, cfg.space)
                    row = rows[mu, n, rep]
                    if draw_doubles == DRAW_DOUBLES:
                        assert row.theta_hat == want.theta_hat
                    else:
                        ulps = abs(row.theta_hat - want.theta_hat) / np.spacing(abs(want.theta_hat))
                        assert ulps <= 8
                    if rep == 0:
                        over = simulate_overdamped(model, cfg.theta_true, params, grid,
                                                   philox_generator(cfg.base_seed, stream))
                        sup = float(np.max(np.abs(traj.positions - over.positions)))
                        assert row.sup_distance == sup

    def test_diverging_replicate_is_one_error_row(self, monkeypatch):
        # with this seed replicate 3 of 4 escapes under the unstable cubic
        # drift before the horizon; the message is the scalar loop's
        cubic = use_cubic_model(monkeypatch)
        rows = run_consistency_sweep(cubic_sweep_config(3))
        failed = [r for r in rows if r.error is not None]
        assert [r.replicate for r in failed] == [3]
        grid = ObservationGrid.uniform(40, 0.2 * math.sqrt(40) / 40, 2)
        params = SystemParams(mass=0.1, friction=1.0, noise=1.0, x0=0.5)
        with pytest.raises(DivergenceError) as scalar:
            simulate_underdamped(cubic, 1.0, params, grid, Scheme.EXPONENTIAL_VELOCITY,
                                 philox_generator(3, experiments._stream_id(0, 0, 3)))
        assert failed[0].error == f"DivergenceError: {scalar.value}"
        assert all(math.isfinite(r.theta_hat) for r in rows if r.error is None)

    @pytest.mark.parametrize("base_seed,diverging", [(3, [3]), (5, [0, 3])])
    def test_failed_coupled_run_fails_replicate_zero_only(self, monkeypatch,
                                                         base_seed, diverging):
        # the overdamped run's error is row 0's, unless that row diverged
        # itself; the other rows keep their fits or their own errors
        def broken(*args):
            raise DivergenceError("overdamped run diverged")

        use_cubic_model(monkeypatch)
        monkeypatch.setattr(experiments, "simulate_overdamped", broken)
        rows = run_consistency_sweep(cubic_sweep_config(base_seed))
        assert [r.replicate for r in rows if r.error is not None] == sorted({0, *diverging})
        want = "underdamped run diverged" if 0 in diverging else "overdamped run diverged"
        assert rows[0].error.startswith(f"DivergenceError: {want}")
        assert all(r.sup_distance is None for r in rows)

    def test_overflowing_fit_is_an_error_row(self):
        # constant force at theta 0 without noise keeps every path at x0, and
        # (dt / friction)^2 overflows A: each replicate is an error row
        rows = run_consistency_sweep(small_sweep_config(
            model_id="constant-force", theta_true=0.0, sigma=0.0, gamma=1e-307,
            space=ParameterSpace(0.0, 1.0)))
        assert len(rows) == 2 * 2 * 3
        for row in rows:
            assert row.error.startswith("ValueError: the objective's coefficients overflow")
            assert "friction" in row.error

    def test_substep_too_small_for_the_scheme_is_an_error_row(self):
        # sigma / (gamma * substep) overflows in every cell: ValueError rows,
        # not DivergenceError rows
        rows = run_consistency_sweep(small_sweep_config(delta=1e-310))
        assert len(rows) == 2 * 2 * 3
        for row in rows:
            assert row.error_type is ValueError
            assert "too small for the exponential-velocity scheme" in row.error

    def test_rejects_counts_wider_than_stream_fields(self):
        # _stream_id packs the n index and the replicate into 20 bits each;
        # wider values would give two cells the same noise stream
        small_sweep_config(replicates=2 ** 20)
        with pytest.raises(ValueError, match="replicates"):
            small_sweep_config(replicates=2 ** 20 + 1)
        with pytest.raises(ValueError, match="n_values"):
            small_sweep_config(n_values=[2] * (2 ** 20 + 1))

    @pytest.mark.parametrize("key,values,shown", [
        ("mu_values", [0.01, 1e-2], "0.01"),
        ("n_values", [50, 10, 50], "50"),
    ])
    def test_rejects_a_repeated_value(self, key, values, shown):
        # two cells with one (mu, n) would write two rows per (mu, n, replicate)
        with pytest.raises(ValueError, match=f"^{key} must not repeat a value, got {shown} 2 times$"):
            small_sweep_config(**{key: values})

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(experiments, "clipped_vertex", broken)
        with pytest.raises(TypeError, match="synthetic"):
            run_consistency_sweep(small_sweep_config())


class TestGammaDiagnostic:

    def test_columns_shrink_together(self):
        rows = run_gamma_diagnostic([1e-1, 1e-2, 1e-3], n=500, seed=1)
        gaps = [gap for _, gap, _ in rows]
        sups = [sup for _, _, sup in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert sups[0] > sups[1] > sups[2]

    def test_substep_doubling_stable(self):
        base = run_gamma_diagnostic([1e-2], n=500, seed=1, substeps=20)
        fine = run_gamma_diagnostic([1e-2], n=500, seed=1, substeps=40)
        _, gap_b, sup_b = base[0]
        _, gap_f, sup_f = fine[0]
        assert gap_f == pytest.approx(gap_b, rel=0.1)
        assert sup_f == pytest.approx(sup_b, rel=0.1)

    def test_empty_mu_rejected(self):
        with pytest.raises(ValueError):
            run_gamma_diagnostic([], n=100, seed=0)

    def test_repeated_mu_rejected_before_any_run(self, monkeypatch):
        # a repeated mass wrote one identical row per repeat; the sweep's
        # check on mu_values rejects it here too, before any run
        monkeypatch.setattr(experiments, "simulate_underdamped", None)
        with pytest.raises(ValueError,
                           match="^mu_values must not repeat a value, got 0.1 3 times$"):
            run_gamma_diagnostic([0.1, 0.1, 1e-1], n=50, seed=1)

    def test_overdamped_limit_integrated_once(self, monkeypatch):
        # once, right after the first mass's run, so the first two runs, and
        # the first one to fail, are those of one run pair per mass
        calls = []
        for name in ("simulate_underdamped", "simulate_overdamped"):
            def spy(*args, _run=getattr(experiments, name), _name=name):
                calls.append(_name)
                return _run(*args)
            monkeypatch.setattr(experiments, name, spy)
        rows = run_gamma_diagnostic([1e-1, 1e-2, 1e-3], n=100, seed=1)
        assert len(rows) == 3
        assert calls == ["simulate_underdamped", "simulate_overdamped",
                         "simulate_underdamped", "simulate_underdamped"]
