"""Command-line entry points: solve, check, mc, legendre.

Exit codes partition outcomes: 0 success, 1 a verification check failed,
2 the continuation left the tractable horizon (step underflow), 3 usage or
config errors, command-line errors included (a missing option, an unknown
flag or subcommand, an option on a command that does not read it, such as
``--seed`` on a command that draws no samples).
``--help`` exits 0.  The solve command emits one machine-parseable line per
accepted continuation state, naming the grid it was certified on, and never
reports success without a residual certificate in the log.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import galerkin
from .continuation import HorizonError, solve_path
from .estimates import run_all_checks
from .fileio import (
    ConfigError,
    FieldFileError,
    build_problem,
    lagrangian_from_config,
    load_config,
    read_field,
    report_text,
    write_field,
    write_plot_columns,
    write_report,
)
from .grids import PeriodicGrid
from .hamiltonians import LegendreBoundaryError, duality_table
from .montecarlo import (
    NonfiniteDriftError,
    SDEConfig,
    l1_distance,
    sampling_l1_error,
    simulate_density,
)
from .system import LambdaData, NonpositiveDensityError, SolutionPair

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_HORIZON = 2
EXIT_USAGE = 3


def _state_line(state) -> str:
    """One path.log record; ``grid`` and ``n_t`` name the grids the state is certified on."""
    grid, time = state.pair.u.grid, state.pair.u.time
    return (
        f"lambda={state.lam:.6f} residual={state.residual_norm:.3e} "
        f"newton_iters={state.newton_iters} theta={state.theta:.3e} "
        f"min_m={state.min_density():.6e} "
        f"dlambda={state.step:.4f} grid={'x'.join(map(str, grid.shape))} n_t={time.steps}"
    )


def _galerkin_basis(problem, n_modes: int):
    """Basis of the Galerkin spectrum dump, built before the solve so a bad
    mode count fails as a config error instead of after the whole path."""
    if n_modes == 0:
        return None
    try:
        return galerkin.FourierBasis.build(problem.grid, n_modes)
    except ValueError as exc:
        raise ConfigError(f"galerkin_modes = {n_modes}: {exc}") from exc


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    basis = _galerkin_basis(problem, cfg.out_formats.get("galerkin_modes", 0))
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "path.log")
    lines: list[str] = []

    def on_state(state):
        line = _state_line(state)
        lines.append(line)
        if args.verbose:
            print(line)

    try:
        states = solve_path(problem, cfg.solver, on_state=on_state)
    except HorizonError as exc:
        lines.append(f"horizon_failure at lambda={exc.failed_lambda:.6f}")
        with open(log_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        if exc.states:
            last = exc.states[-1]
            write_field(os.path.join(args.out, "u.field"), last.pair.u, "u")
            write_field(os.path.join(args.out, "m.field"), last.pair.m, "m")
        print(f"solve: step underflow, last accepted lambda="
              f"{exc.states[-1].lam if exc.states else float('nan'):.4f}", file=sys.stderr)
        return EXIT_HORIZON

    with open(log_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    final = states[-1]
    write_field(os.path.join(args.out, "u.field"), final.pair.u, "u")
    write_field(os.path.join(args.out, "m.field"), final.pair.m, "m")
    report = run_all_checks(final.pair, problem)
    write_report(os.path.join(args.out, "estimates"), report)
    if cfg.out_formats.get("plots"):
        write_plot_columns(os.path.join(args.out, "u.txt"), final.pair.u)
        write_plot_columns(os.path.join(args.out, "m.txt"), final.pair.m)
    if basis is not None:
        system = galerkin.assemble_galerkin_system(
            problem, LambdaData.from_problem(problem, 0.0), final.pair, basis
        )
        np.savetxt(
            os.path.join(args.out, "galerkin_spectrum.txt"),
            galerkin.shooting_spectrum(system),
            header="singular values of the shooting map at lambda=0",
        )
    if args.verbose or not report.all_pass:
        print(report_text(report), end="")
    print(f"solve: reached lambda=0 with residual {final.residual_norm:.3e}")
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _load_pair(args, problem):
    u_stf, _ = read_field(args.u_file)
    m_stf, _ = read_field(args.m_file)
    same = all(
        stf.grid == problem.grid
        and stf.time.steps == problem.time.steps
        and abs(stf.time.horizon - problem.time.horizon) < 1e-12
        for stf in (u_stf, m_stf)
    )
    if not same:
        raise ConfigError("stored fields do not match the config grids")
    return SolutionPair(u=u_stf, m=m_stf)


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    pair = _load_pair(args, problem)
    report = run_all_checks(pair, problem)
    os.makedirs(args.out, exist_ok=True)
    write_report(os.path.join(args.out, "estimates"), report)
    print(report_text(report), end="")
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_mc(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    pair = _load_pair(args, problem)
    mc_cfg = cfg.mc if args.seed is None else SDEConfig(cfg.mc.paths, args.seed)
    lam_data = LambdaData.from_problem(problem, 0.0)
    try:
        empirical = simulate_density(problem, lam_data, pair, mc_cfg)
    except NonpositiveDensityError as exc:
        raise FieldFileError(f"{args.m_file}: {exc}") from exc
    except NonfiniteDriftError as exc:
        raise FieldFileError(f"{args.u_file}: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    write_field(os.path.join(args.out, "empirical.field"), empirical, "empirical")
    dists = l1_distance(empirical, pair.m)
    for j, d in enumerate(dists):
        print(f"slice={j} l1={d:.6e}")
    worst = float(np.max(dists))
    scale = sampling_l1_error(pair.m.values[0], problem.grid, mc_cfg.paths)
    print(f"max_l1={worst:.6e} tol={cfg.mc_l1_tol:.6e} sampling_scale={scale:.6e}")
    return EXIT_OK if worst <= cfg.mc_l1_tol else EXIT_CHECK_FAILED


def _cmd_legendre(args) -> int:
    cfg = load_config(args.config)
    try:
        lagr = lagrangian_from_config(cfg, PeriodicGrid(cfg.dim, cfg.points_per_dim))
    except ValueError as exc:  # a grid size or a weight the models reject
        raise ConfigError(str(exc)) from exc
    try:
        table = duality_table(lagr, 0 if args.seed is None else args.seed)
    except LegendreBoundaryError as exc:
        print(f"legendre: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print("\n".join(table.lines()))
    return EXIT_OK if table.passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfgcon",
        description="Continuation solver and estimate checks for congestion games on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command registers only the options it reads
    def common(p, with_out=True, with_fields=False, with_seed=False, with_verbose=False):
        p.add_argument("--config", required=True, help="path to the run config")
        if with_out:
            p.add_argument("--out", default="out", help="output directory")
        if with_seed:
            p.add_argument("--seed", type=int, default=None, help="override the sampling seed")
        if with_verbose:
            p.add_argument("--verbose", action="store_true")
        if with_fields:
            p.add_argument("u_file", help="stored value-function field")
            p.add_argument("m_file", help="stored density field")

    common(sub.add_parser("solve", help="run the homotopy solve and the estimate suite"),
           with_verbose=True)
    common(sub.add_parser("check", help="re-run the estimate suite on stored fields"),
           with_fields=True)
    common(sub.add_parser("mc", help="particle validation of a stored solution"),
           with_fields=True, with_seed=True)
    common(sub.add_parser("legendre", help="duality and growth table for the running cost"),
           with_out=False, with_seed=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error
        if exc.code == 0:  # --help
            raise
        return EXIT_USAGE
    handlers = {
        "solve": _cmd_solve,
        "check": _cmd_check,
        "mc": _cmd_mc,
        "legendre": _cmd_legendre,
    }
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {seed}")
        return handlers[args.command](args)
    except (ConfigError, FieldFileError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
