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
                   MODELS, ObservationGrid, SystemParams, philox_generator)
from .estimate import (GOLDEN_TOL, ParameterSpace, minimize_closed_form,
                       minimize_golden, objective_curve)
from .experiments import (FIGURE1_DT, FIGURE1_N, FIGURE1_SUBSTEPS, GAMMA_DT,
                          GAMMA_SUBSTEPS, SweepConfig, run_figure1,
                          run_gamma_diagnostic, run_consistency_sweep)
from .simulate import Scheme, simulate_overdamped, simulate_underdamped


def _out_path(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get("SKESTIM_OUT", "."), path)


def _add_common_model_args(p):
    p.add_argument("--model", required=True, choices=sorted(MODELS))
    p.add_argument("--gamma", type=float, required=True, help="friction coefficient")


def _float_list(text: str):
    try:
        return io.parse_list(text, float)
    except ValueError as exc:  # the parser's error names the flag
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default="exponential")
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
    p.add_argument("--tol", type=float, default=GOLDEN_TOL)
    p.add_argument("--curve", default=None, help="optional objective-curve CSV output")
    p.add_argument("--curve-points", type=int, default=401)

    p = sub.add_parser("sweep", help="run a (mu, n) consistency sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="sweep.csv")

    p = sub.add_parser("figure1", help="colloidal end-to-end reproduction run")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=FIGURE1_N)
    p.add_argument("--dt", type=float, default=FIGURE1_DT)
    p.add_argument("--substeps", type=int, default=FIGURE1_SUBSTEPS)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("gamma-diagnostic",
                       help="uniform objective gap and coupling distance per mass")
    p.add_argument("--mu-values", type=_float_list, default="0.1,0.01,0.001")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--dt", type=float, default=GAMMA_DT)
    p.add_argument("--substeps", type=int, default=GAMMA_SUBSTEPS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)

    parser.commands = sub.choices
    return parser


def _cmd_simulate(args) -> int:
    model = MODELS[args.model]
    params = SystemParams(mass=args.mu, friction=args.gamma, noise=args.sigma,
                          x0=args.x0, v0=args.v0)
    grid = ObservationGrid.uniform(args.n, args.dt, args.substeps)
    rng = philox_generator(args.seed, args.stream)
    start = time.perf_counter()
    if args.mode == "underdamped":
        traj = simulate_underdamped(model, args.theta, params, grid,
                                    Scheme(args.scheme), rng)
    else:
        traj = simulate_overdamped(model, args.theta, params, grid, rng)
    elapsed = time.perf_counter() - start
    out = _out_path(args.out)
    io.write_trajectory_csv(out, traj)
    print(f"wrote {out}: {len(traj.times)} rows, final position {traj.positions[-1]:.6g}")
    print(f"runtime {elapsed:.3f} s", file=sys.stderr)
    return 0


def _cmd_estimate(args) -> int:
    if args.curve_points < 1:
        raise ConfigError(f"--curve-points must be >= 1, got {args.curve_points}")
    traj = io.read_trajectory_csv(args.traj)
    model = MODELS[args.model]
    space = ParameterSpace(args.theta_lo, args.theta_hi)
    if args.method == "closed-form":
        result = minimize_closed_form(traj, model, args.gamma, space)
    else:
        result = minimize_golden(traj, model, args.gamma, space, tol=args.tol)
    if args.curve is not None:  # before the result line, so a failing curve prints none
        thetas = np.linspace(space.lo, space.hi, args.curve_points)
        values = objective_curve(traj, model, args.gamma, thetas)
        curve_path = _out_path(args.curve)
        io.write_columns(curve_path, "theta,objective", [thetas, values])
    print(f"theta_hat={result.theta_hat:.6g} objective={result.objective_at_min:.6g} "
          f"method={result.method} at_boundary={result.at_boundary} "
          f"evaluations={result.evaluations}")
    if args.curve is not None:
        print(f"wrote {curve_path}")
    return 0


# config key -> converter; an omitted key takes SweepConfig's default, else is required
_SWEEP_KEYS = {
    "mu_values": lambda text: io.parse_list(text, float),
    "n_values": lambda text: io.parse_list(text, int), "delta": float,
    "replicates": int, "base_seed": int, "model": str, "theta_true": float,
    "theta_lo": float, "theta_hi": float, "gamma": float, "sigma": float,
    "x0": float, "v0": float, "substeps": int,
}


def _sweep_config_from_file(path: str) -> SweepConfig:
    raw = io.parse_config_file(path)
    for key in raw:
        if key not in _SWEEP_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    values = {key: io.config_get(raw, key, convert, getattr(SweepConfig, key, None))
              for key, convert in _SWEEP_KEYS.items()}
    return SweepConfig(model_id=values.pop("model"),
                       space=ParameterSpace(values.pop("theta_lo"), values.pop("theta_hi")),
                       **values)


def _cmd_sweep(args) -> int:
    cfg = _sweep_config_from_file(args.config)
    rows = run_consistency_sweep(cfg)
    out = _out_path(args.out)
    io.write_sweep_csv(out, rows)
    failures = [r for r in rows if r.error is not None]
    print(f"wrote {out}: {len(rows)} rows ({len(failures)} failed cells)")
    errs = {(mu, n): [] for mu in cfg.mu_values for n in cfg.n_values}
    for r in rows:  # each cell's error-free rows, in one pass
        if r.error is None:
            errs[r.mu, r.n].append(r.abs_error)
    print(f"{'mu':>10} {'n':>8} {'median |err|':>14}")
    for (mu, n), cell in errs.items():
        med = float(np.median(cell)) if cell else float("nan")
        print(f"{mu:>10g} {n:>8d} {med:>14.6g}")
    if len(failures) < len(rows):
        return 0
    return _fail(rows[0].error_type, f"every cell failed, the first with {rows[0].error}")


def _cmd_figure1(args) -> int:
    traj, (thetas, curve), result = run_figure1(
        args.seed, n=args.n, dt=args.dt, substeps=args.substeps)
    out_dir = os.path.normpath(_out_path(args.out_dir))
    os.makedirs(out_dir, exist_ok=True)
    traj_path = os.path.join(out_dir, "figure1_trajectory.csv")
    curve_path = os.path.join(out_dir, "figure1_curve.csv")
    result_path = os.path.join(out_dir, "figure1_result.txt")
    io.write_trajectory_csv(traj_path, traj)
    io.write_columns(curve_path, "theta,objective", [thetas, curve])
    result_line = (f"theta_hat={result.theta_hat:.17g} "
                   f"objective={result.objective_at_min:.17g} "
                   f"method={result.method} at_boundary={result.at_boundary}")
    io.atomic_write_text(result_path, [(result_line + "\n").encode()])
    print(f"wrote {traj_path}, {curve_path}, {result_path}")
    print(result_line)
    return 0


def _cmd_gamma(args) -> int:
    rows = run_gamma_diagnostic(args.mu_values, args.n, args.seed,
                                dt=args.dt, substeps=args.substeps)
    print(f"{'mu':>10} {'uniform_gap':>14} {'sup_distance':>14}")
    for mu, gap, sup in rows:
        print(f"{mu:>10g} {gap:>14.6g} {sup:>14.6g}")
    if args.out is not None:
        out = _out_path(args.out)
        io.write_columns(out, "mu,uniform_gap,sup_distance", np.transpose(rows))
        print(f"wrote {out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "figure1": _cmd_figure1,
    "gamma-diagnostic": _cmd_gamma,
}


# exit code and stderr prefix per exception type; ConfigError is a ValueError,
# and a grid or buffer too large to allocate is a MemoryError
_EXIT_CODES = {ValueError: (1, "error"), OSError: (1, "error"), MemoryError: (1, "error"),
               DivergenceError: (2, "divergence"),
               IdentifiabilityError: (3, "identifiability")}


def _fail(exc_type, message) -> int:
    # print under the prefix of exc_type's nearest base in the table (else 1, error)
    code, prefix = next((_EXIT_CODES[t] for t in exc_type.__mro__ if t in _EXIT_CODES),
                        (1, "error"))
    print(f"{prefix}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # under the usage of the subcommand, which lists the flags it takes
        parser.commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        return _fail(type(exc), exc)


if __name__ == "__main__":
    sys.exit(main())
