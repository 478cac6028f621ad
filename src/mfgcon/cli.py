"""Command-line entry points: solve, check, mc, legendre.

Exit codes partition outcomes: 0 success, 1 a verification check failed,
2 the continuation left the tractable horizon (step underflow), 3 usage or
config errors.  The solve command emits one machine-parseable line per
accepted homotopy step and never reports success without a residual
certificate in the log.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

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
from .hamiltonians import (
    LegendreBoundaryError,
    conjugate_radial,
    growth_constants,
    legendre_transform,
)
from .montecarlo import SDEConfig, l1_distance, sampling_l1_error, simulate_density
from .system import LambdaData, NonpositiveDensityError, SolutionPair

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_HORIZON = 2
EXIT_USAGE = 3


def _state_line(state) -> str:
    return (
        f"lambda={state.lam:.6f} residual={state.residual_norm:.3e} "
        f"newton_iters={state.newton_iters} min_m={state.min_density():.6e} "
        f"dlambda={state.step:.4f}"
    )


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
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
    report = run_all_checks(final.pair, problem, LambdaData.from_problem(problem, 0.0))
    write_report(os.path.join(args.out, "estimates"), report)
    if cfg.out_formats.get("plots"):
        write_plot_columns(os.path.join(args.out, "u.txt"), final.pair.u)
        write_plot_columns(os.path.join(args.out, "m.txt"), final.pair.m)
    n_modes = cfg.out_formats.get("galerkin_modes", 0)
    if n_modes > 0:
        from .galerkin import FourierBasis, assemble_galerkin_system, shooting_matrix

        basis = FourierBasis.build(problem.grid, n_modes)
        system = assemble_galerkin_system(
            problem, LambdaData.from_problem(problem, 0.0), final.pair, basis
        )
        sigma = np.linalg.svd(shooting_matrix(system), compute_uv=False)
        np.savetxt(
            os.path.join(args.out, "galerkin_spectrum.txt"),
            sigma,
            header="singular values of the shooting map at lambda=0",
        )
    if args.verbose or not report.all_pass:
        print(report_text(report), end="")
    print(f"solve: reached lambda=0 with residual {final.residual_norm:.3e}")
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _load_pair(args, problem):
    u_stf, _ = read_field(args.u_file)
    m_stf, _ = read_field(args.m_file)
    same = (
        u_stf.grid == problem.grid
        and m_stf.grid == problem.grid
        and u_stf.time.steps == problem.time.steps
        and abs(u_stf.time.horizon - problem.time.horizon) < 1e-12
    )
    if not same:
        raise ConfigError("stored fields do not match the config grids")
    return SolutionPair(u=u_stf, m=m_stf)


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    pair = _load_pair(args, problem)
    report = run_all_checks(pair, problem, LambdaData.from_problem(problem, 0.0))
    os.makedirs(args.out, exist_ok=True)
    write_report(os.path.join(args.out, "estimates"), report)
    print(report_text(report), end="")
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_mc(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    pair = _load_pair(args, problem)
    mc_cfg = cfg.mc if args.seed is None else SDEConfig(
        paths=cfg.mc.paths, seed=args.seed, substeps=cfg.mc.substeps
    )
    lam_data = LambdaData.from_problem(problem, 0.0)
    try:
        empirical = simulate_density(problem, lam_data, pair, mc_cfg)
    except NonpositiveDensityError as exc:
        raise FieldFileError(f"{args.m_file}: {exc}") from exc
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
    grid = PeriodicGrid(cfg.dim, cfg.points_per_dim)
    lagr = lagrangian_from_config(cfg, grid)
    rng = np.random.default_rng(0 if args.seed is None else args.seed)
    n_samples = 100
    idx = rng.integers(0, grid.num_nodes, n_samples)
    v_mag = rng.uniform(0.0, 3.0, n_samples)
    consts = growth_constants(lagr)
    gamma = consts["gamma"]

    worst_dev = 0.0
    gp = lagr.gamma_prime
    try:
        for i in range(n_samples):
            x = int(idx[i])
            profile = lagr.radial(x)
            v = float(v_mag[i])
            w = lagr.weight_at(x)
            # the maximizing momentum for speed v has size w gp v (1+v^2)^(gp/2-1)
            p_star = w * gp * v * (1.0 + v * v) ** (0.5 * gp - 1.0)
            p_radius = 3.0 * p_star + 10.0

            def dual(r, _w=w):
                v_star = (r / (_w * gp)) ** (1.0 / (gp - 1.0)) if r > 0 else 0.0
                return conjugate_radial(profile, r, 3.0 * v_star + 5.0, samples=129)

            back = conjugate_radial(dual, v, p_radius, samples=129)
            worst_dev = max(worst_dev, abs(back - profile(v)))

        ratios = []
        for p_mag in np.linspace(10.0, 100.0, 16):
            x = int(rng.integers(0, grid.num_nodes))
            v_star = (p_mag / (lagr.gamma_prime * lagr.weight_at(x))) ** (
                1.0 / (lagr.gamma_prime - 1.0)
            )
            h_val = legendre_transform(lagr, x, [p_mag], v_radius=4.0 * v_star + 2.0)
            ratios.append(h_val / (p_mag**gamma / gamma))
    except LegendreBoundaryError as exc:
        print(f"legendre: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED

    lo = 0.5 * consts["dual_lower_coef"]
    hi = 2.0 * consts["dual_upper_coef"]
    print(f"double_transform_max_deviation={worst_dev:.3e} (tol 1e-6)")
    print(f"growth_ratio_range=[{min(ratios):.6f}, {max(ratios):.6f}] "
          f"window=[{lo:.6f}, {hi:.6f}]")
    ok = worst_dev <= 1e-6 and lo <= min(ratios) and max(ratios) <= hi
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfgcon",
        description="Continuation solver and estimate checks for congestion games on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_fields=False):
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the sampling seed")
        p.add_argument("--verbose", action="store_true")
        if with_fields:
            p.add_argument("u_file", help="stored value-function field")
            p.add_argument("m_file", help="stored density field")

    common(sub.add_parser("solve", help="run the homotopy solve and the estimate suite"))
    common(sub.add_parser("check", help="re-run the estimate suite on stored fields"),
           with_fields=True)
    common(sub.add_parser("mc", help="particle validation of a stored solution"),
           with_fields=True)
    common(sub.add_parser("legendre", help="duality and growth table for the running cost"))

    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "check": _cmd_check,
        "mc": _cmd_mc,
        "legendre": _cmd_legendre,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, FieldFileError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
