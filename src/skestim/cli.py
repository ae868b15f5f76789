"""Command line interface.

Subcommands: simulate, estimate, sweep, figure1, gamma-diagnostic.
Exit codes: 0 success, 1 configuration error, 2 simulation divergence,
3 identifiability error. The SKESTIM_OUT environment variable sets the
default output directory for relative output paths.
"""

import argparse
import os
import sys
import time

import numpy as np

from . import io
from .core import (ConfigError, DivergenceError, IdentifiabilityError,
                   MODELS, ObservationGrid, SystemParams, make_noise_path)
from .estimate import (ParameterSpace, minimize_closed_form, minimize_golden,
                       objective_curve)
from .experiments import (SweepConfig, run_figure1, run_gamma_diagnostic,
                          run_consistency_sweep)
from .simulate import Scheme, simulate_overdamped, simulate_underdamped

SCHEMES = {
    "exponential": Scheme.EXPONENTIAL_VELOCITY,
    "euler": Scheme.EULER_MARUYAMA,
}


def _out_path(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get("SKESTIM_OUT", "."), path)


def _add_common_model_args(p):
    p.add_argument("--model", required=True, choices=sorted(MODELS))
    p.add_argument("--gamma", type=float, required=True, help="friction coefficient")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like other configuration errors; argparse's own
    code 2 is the documented code for a divergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="skestim",
        description="Langevin simulation and least-squares drift estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one trajectory and write it as CSV")
    _add_common_model_args(p)
    p.add_argument("--mode", choices=["underdamped", "overdamped"], required=True)
    p.add_argument("--mu", type=float, default=1.0, help="mass (underdamped only)")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="number of observation intervals")
    p.add_argument("--dt", type=float, required=True, help="observation spacing")
    p.add_argument("--substeps", type=int, default=1)
    p.add_argument("--scheme", choices=sorted(SCHEMES), default="exponential")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--v0", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", default="trajectory.csv")

    p = sub.add_parser("estimate", help="estimate theta from a trajectory CSV")
    _add_common_model_args(p)
    p.add_argument("--traj", required=True, help="trajectory CSV (t,x[,v])")
    p.add_argument("--theta-lo", type=float, required=True)
    p.add_argument("--theta-hi", type=float, required=True)
    p.add_argument("--method", choices=["closed-form", "golden"], default="closed-form")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--curve", default=None, help="optional objective-curve CSV output")
    p.add_argument("--curve-points", type=int, default=401)

    p = sub.add_parser("sweep", help="run a (mu, n) consistency sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--replicates", type=int, default=None, help="override config")
    p.add_argument("--base-seed", type=int, default=None, help="override config")
    p.add_argument("--out", default="sweep.csv")

    p = sub.add_parser("figure1", help="colloidal end-to-end reproduction run")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--substeps", type=int, default=10)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("gamma-diagnostic",
                       help="uniform objective gap and coupling distance per mass")
    p.add_argument("--mu-values", default="0.1,0.01,0.001")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--substeps", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)

    return parser


def _cmd_simulate(args) -> int:
    model = MODELS[args.model]()
    params = SystemParams(mass=args.mu, friction=args.gamma, noise=args.sigma,
                          x0=args.x0, v0=args.v0)
    grid = ObservationGrid.uniform(args.n, args.dt, args.substeps)
    noise = make_noise_path(args.seed, args.stream, grid)
    start = time.perf_counter()
    if args.mode == "underdamped":
        traj = simulate_underdamped(model, args.theta, params, grid,
                                    SCHEMES[args.scheme], noise)
    else:
        traj = simulate_overdamped(model, args.theta, params, grid, noise)
    elapsed = time.perf_counter() - start
    out = _out_path(args.out)
    io.write_trajectory_csv(out, traj)
    print(f"wrote {out}: {len(traj.grid)} rows, final position "
          f"{traj.positions[-1]:.6g}, runtime {elapsed:.3f} s")
    return 0


def _cmd_estimate(args) -> int:
    traj = io.read_trajectory_csv(args.traj)
    model = MODELS[args.model]()
    space = ParameterSpace(args.theta_lo, args.theta_hi)
    if args.method == "closed-form":
        result = minimize_closed_form(traj, model, args.gamma, space)
    else:
        result = minimize_golden(traj, model, args.gamma, space, tol=args.tol)
    print(f"theta_hat={result.theta_hat:.6g} objective={result.objective_at_min:.6g} "
          f"method={result.method} at_boundary={result.at_boundary} "
          f"evaluations={result.evaluations}")
    if args.curve is not None:
        thetas = np.linspace(space.lo, space.hi, args.curve_points)
        values = objective_curve(traj, model, args.gamma, thetas)
        curve_path = _out_path(args.curve)
        io.write_curve_csv(curve_path, thetas, values)
        print(f"wrote {curve_path}")
    return 0


def _sweep_config_from_file(args) -> SweepConfig:
    raw = io.parse_config_file(args.config)
    known = {"mu_values", "n_values", "delta", "replicates", "base_seed",
             "model", "theta_true", "theta_lo", "theta_hi", "gamma", "sigma",
             "x0", "v0", "substeps"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    return SweepConfig(
        mu_values=io.config_get(raw, "mu_values", io.parse_float_list),
        n_values=io.config_get(raw, "n_values", io.parse_int_list),
        delta=io.config_get(raw, "delta", float, 1.0),
        replicates=(args.replicates if args.replicates is not None
                    else io.config_get(raw, "replicates", int, 1)),
        base_seed=(args.base_seed if args.base_seed is not None
                   else io.config_get(raw, "base_seed", int, 0)),
        model_id=io.config_get(raw, "model", str),
        theta_true=io.config_get(raw, "theta_true", float),
        space=ParameterSpace(io.config_get(raw, "theta_lo", float),
                             io.config_get(raw, "theta_hi", float)),
        gamma=io.config_get(raw, "gamma", float, 1.0),
        sigma=io.config_get(raw, "sigma", float, 1.0),
        x0=io.config_get(raw, "x0", float, 1.0),
        v0=io.config_get(raw, "v0", float, 0.0),
        substeps=io.config_get(raw, "substeps", int, 4),
    )


def _cmd_sweep(args) -> int:
    cfg = _sweep_config_from_file(args)
    result = run_consistency_sweep(cfg)
    out = _out_path(args.out)
    io.write_sweep_csv(out, result.rows)
    failures = [r for r in result.rows if r.error is not None]
    print(f"wrote {out}: {len(result.rows)} rows ({len(failures)} failed cells)")
    print(f"{'mu':>10} {'n':>8} {'median |err|':>14}")
    for mu in cfg.mu_values:
        for n in cfg.n_values:
            errs = [r.abs_error for r in result.rows
                    if r.mu == mu and r.n == n and r.error is None]
            med = float(np.median(errs)) if errs else float("nan")
            print(f"{mu:>10g} {n:>8d} {med:>14.6g}")
    return 0 if len(failures) < len(result.rows) else 2


def _cmd_figure1(args) -> int:
    traj, (thetas, curve), result = run_figure1(
        args.seed, n=args.n, dt=args.dt, substeps=args.substeps)
    os.makedirs(args.out_dir, exist_ok=True)
    traj_path = os.path.join(args.out_dir, "figure1_trajectory.csv")
    curve_path = os.path.join(args.out_dir, "figure1_curve.csv")
    result_path = os.path.join(args.out_dir, "figure1_result.txt")
    io.write_trajectory_csv(traj_path, traj)
    io.write_curve_csv(curve_path, thetas, curve)
    result_line = (f"theta_hat={result.theta_hat:.17g} "
                   f"objective={result.objective_at_min:.17g} "
                   f"method={result.method} at_boundary={result.at_boundary}")
    io.atomic_write_text(result_path, result_line + "\n")
    print(f"wrote {traj_path}, {curve_path}, {result_path}")
    print(result_line)
    return 0


def _cmd_gamma(args) -> int:
    mu_values = io.parse_float_list(args.mu_values)
    rows = run_gamma_diagnostic(mu_values, args.n, args.seed,
                                dt=args.dt, substeps=args.substeps)
    print(f"{'mu':>10} {'uniform_gap':>14} {'sup_distance':>14}")
    for mu, gap, sup in rows:
        print(f"{mu:>10g} {gap:>14.6g} {sup:>14.6g}")
    if args.out is not None:
        out = _out_path(args.out)
        io.write_gamma_csv(out, rows)
        print(f"wrote {out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "figure1": _cmd_figure1,
    "gamma-diagnostic": _cmd_gamma,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    except IdentifiabilityError as exc:
        print(f"identifiability: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
