#!/usr/bin/env python3
"""Benchmark of the mfgcon certified solve, one workload per invocation.

    python3 perfbench/run.py --workload ref1d --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``mfgcon`` from its
``src/``.  One process, one client, closed loop: each pipeline
(``mfgcon solve`` -> ``mfgcon check`` [-> ``mfgcon mc``]) goes through the
public entry ``mfgcon.cli.main`` in-process and starts when the previous one
has ended.  Pipelines repeat until less than half of the last one's time is
left of ``--seconds``; the set-ups (fresh import of ``mfgcon`` and cache
warm-up) are repeated before every pipeline so that their samples spread over
the whole run like the pipeline samples do.  Every operation's output is
gated (exit code, certified lambda = 0 record, estimate report, mc L1 error,
fingerprints of the stored fields); a failed operation is counted, not
raised.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
pipelines alternate between traced (wrappers from ``spans.py`` around every
layer) and plain, and the per-layer metrics plus the tracing overhead are
printed.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

MODULES = (
    "cli", "continuation", "estimates", "fileio", "galerkin", "grids",
    "hamiltonians", "linearized", "montecarlo", "system",
)
SETUPS_PER_PIPELINE = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

# Time spent in code a workload never reaches (the direct solver on grid2d,
# Krylov on ref1d, mc and Galerkin on grid2d) is given as a share of the time
# around it, so that no reported time reads 0 on every run.
PER_LAYER = {
    "continuation.steps_accepted": "count",
    "continuation.steps_rejected": "count",
    "continuation.step_accept_ratio": "ratio",
    "continuation.newton_iters": "count",
    "continuation.linesearch_backtracks": "count",
    "continuation.solve_path_s": "s",
    "continuation.newton_self_s": "s",
    "continuation.self_s": "s",
    "system.residual_calls": "count",
    "system.residual_s": "s",
    "system.residual_ms": "ms",
    "system.self_s": "s",
    "linearized.solves": "count",
    "linearized.solve_s": "s",
    "linearized.solve_ms": "ms",
    "linearized.assemble_calls": "count",
    "linearized.assemble_share": "ratio",
    "linearized.factor_share": "ratio",
    "linearized.krylov_solves": "count",
    "linearized.matvecs": "count",
    "linearized.matvec_share": "ratio",
    "linearized.precond_applies": "count",
    "linearized.precond_share": "ratio",
    "linearized.precond_build_share": "ratio",
    "linearized.matvecs_per_solve": "ratio",
    "linearized.solve_failures": "count",
    "linearized.rel_residual_max": "ratio",
    "linearized.self_s": "s",
    "grids.fft_calls": "count",
    "grids.fft_points": "count",
    "grids.fft_flops_computed": "flop",
    "grids.fft_bytes_computed": "B",
    "grids.fft_s": "s",
    "hamiltonians.evals": "count",
    "hamiltonians.eval_s": "s",
    "estimates.run_all_checks_s": "s",
    "estimates.mass_s": "s",
    "estimates.value_bounds_s": "s",
    "estimates.integral_estimates_s": "s",
    "estimates.inverse_m_s": "s",
    "estimates.uniqueness_integrand_s": "s",
    "estimates.gradient_bound_s": "s",
    "estimates.exponents_s": "s",
    "estimates.checks_failed": "count",
    "estimates.self_s": "s",
    "montecarlo.paths_per_s": "1/s",
    "montecarlo.max_l1": "ratio",
    "galerkin.assemble_share": "ratio",
    "galerkin.shooting_share": "ratio",
    "galerkin.sigma_min": "ratio",
    "fileio.load_s": "s",
    "fileio.write_s": "s",
    "fileio.read_s": "s",
    "fileio.bytes_written": "B",
    "fileio.self_s": "s",
    "cli.self_s": "s",
    "trace.solve_s": "s",
    "trace.plain_solve_s": "s",
    "trace.overhead": "ratio",
    "trace.self_sum_share": "ratio",
}

# Work counters that must repeat exactly from pipeline to pipeline and seed to seed.
DETERMINISTIC = (
    "continuation.steps_accepted", "continuation.steps_rejected",
    "continuation.newton_iters", "continuation.linesearch_backtracks",
    "system.residual_calls", "linearized.solves", "linearized.assemble_calls",
    "linearized.krylov_solves", "linearized.matvecs", "linearized.precond_applies",
    "grids.fft_calls", "hamiltonians.evals",
)


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the cores this process may use; before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tail_percentile(values: list):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, else None."""
    import numpy as np

    for p in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return None


def describe(values: list, unit: str) -> str:
    text = f"median={statistics.median(values):.6g} {unit} n={len(values)}"
    tail = tail_percentile(values)
    if tail is not None:
        text += f" p{tail[0]:g}={tail[1]:.6g} {unit}"
    return text


# ---------------------------------------------------------------------------
# set-up and one pipeline
# ---------------------------------------------------------------------------


def import_mfgcon() -> dict:
    """Import mfgcon afresh from the checkout's src/ (a missing module maps to None)."""
    for name in [k for k in sys.modules if k == "mfgcon" or k.startswith("mfgcon.")]:
        del sys.modules[name]
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"mfgcon.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"mfgcon.{name}":
                raise
            mods[name] = None
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"mfgcon was imported from {origin}, not from {SRC}")
    return mods


def setup_once(workload, seed: int, cfg_path: Path):
    """Import, config generation, config load, one residual and one linear solve.

    The solve is the first Newton step of the path at the lambda = 1 state; it
    fills the per-grid caches (spectra, dense operators) the pipelines reuse.
    """
    from workloads import seeded_input

    t0 = perf_counter()
    mods = import_mfgcon()
    seeded = seeded_input(workload, seed)
    cfg_path.write_text(seeded.config_text)
    cfg = mods["fileio"].load_config(str(cfg_path))
    problem = mods["fileio"].build_problem(cfg)
    state = mods["continuation"].trivial_solution(problem)
    lam_data = mods["system"].LambdaData.from_problem
    rhs = mods["system"].residual_full(
        problem, lam_data(problem, 1.0 - cfg.solver.dlambda_init), state.pair
    )
    mods["linearized"].solve_linearized(problem, lam_data(problem, 1.0), state.pair, rhs)
    return perf_counter() - t0, mods, seeded


def call_cli(main, argv: list):
    """Run one CLI command; returns (exit code or None, seconds, output, error)."""
    buf = io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            code = main(argv)
    except (Exception, SystemExit):
        code, error = None, traceback.format_exc()
    return code, perf_counter() - t0, buf.getvalue(), error


class Pipeline:
    """The closed-loop unit of work of one workload, with its output gate."""

    def __init__(self, workload, seeded, mods, cfg_path: Path, workdir: Path):
        self.workload = workload
        self.seeded = seeded
        self.mods = mods
        self.cfg = str(cfg_path)
        self.workdir = workdir
        self.reference = json.loads(REFERENCE.read_text()).get(workload.name)
        self.tol = 100.0 * workload.newton_tol

    def out(self, command: str) -> Path:
        return self.workdir / command

    def run(self, main) -> dict:
        """Run every command once; returns timings, failures and gate readings."""
        solve_out = self.out("solve")
        fields = [str(solve_out / "u.field"), str(solve_out / "m.field")]
        argv = {
            "solve": ["solve", "--config", self.cfg, "--out", str(solve_out)],
            "check": ["check", "--config", self.cfg, "--out", str(self.out("check"))] + fields,
            "mc": ["mc", "--config", self.cfg, "--out", str(self.out("mc")),
                   "--seed", str(self.seeded.mc_seed)] + fields,
        }
        result = {"times": [], "failures": [], "readings": {}}
        for command in self.workload.commands:
            shutil.rmtree(self.out(command), ignore_errors=True)
            code, seconds, text, error = call_cli(main, argv[command])
            result["times"].append((command, seconds))
            reason = error or (None if code == 0 else f"exit code {code}")
            if reason is None:
                try:
                    reason = getattr(self, f"gate_{command}")(text, result["readings"])
                except Exception:  # a missing or malformed output fails the operation
                    reason = "unreadable output\n" + traceback.format_exc()
            if reason is not None:
                result["failures"].append(f"{command}: {reason}")
        return result

    def gate_solve(self, text: str, readings: dict):
        out = self.out("solve")
        last = (out / "path.log").read_text().strip().splitlines()[-1]
        rec = dict(kv.split("=", 1) for kv in last.split() if "=" in kv)
        lam, res = float(rec.get("lambda", "nan")), float(rec.get("residual", "nan"))
        if not (lam == 0.0 and res <= self.workload.newton_tol):
            return f"last path.log record is not a certified lambda=0 state: {last!r}"
        reason = _estimates_failure(out)
        if reason:
            return reason
        read_field = self.mods["fileio"].read_field
        u, _ = read_field(str(out / "u.field"))
        m, _ = read_field(str(out / "m.field"))
        from workloads import fingerprint_mismatch, fingerprints

        got = fingerprints(u.values, m.values, self.workload, self.seeded.shift)
        if self.reference is None:
            return "no reference fingerprints recorded for this workload"
        bad = fingerprint_mismatch(got, self.reference, self.tol)
        if bad:
            return f"fingerprint {bad} differs from the reference by more than {self.tol:g}"
        if self.workload.galerkin_modes:
            import numpy as np

            sigma = np.loadtxt(out / "galerkin_spectrum.txt", ndmin=1)
            readings["galerkin.sigma_min"] = float(np.min(sigma))
        return None

    def gate_check(self, text: str, readings: dict):
        return _estimates_failure(self.out("check"))

    def gate_mc(self, text: str, readings: dict):
        from workloads import MC_L1_TOL

        found = re.search(r"max_l1=(\S+)", text)
        if found is None:
            return "mc printed no max_l1"
        max_l1 = float(found.group(1))
        readings["montecarlo.max_l1"] = max_l1
        return None if max_l1 <= MC_L1_TOL else f"max_l1={max_l1:g} > {MC_L1_TOL:g}"


def _estimates_failure(out: Path):
    report = json.loads((out / "estimates.json").read_text())
    failed = [r["name"] for r in report["records"] if not r["passed"]]
    return f"estimate FAIL: {', '.join(failed)}" if failed or not report["all_pass"] else None


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def keep_going(deadline: float, last: float) -> bool:
    """Start another pipeline unless less than half of the last one's time is left."""
    return perf_counter() + 0.5 * last < deadline


def plain_run(workload, seed: int, cfg_path: Path, workdir: Path, seconds: float):
    samples = {"setup_s": [], "solve_s": [], "check_s": [], "mc_s": [], "pipeline_s": []}
    attempted, failures = 0, []
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        for _ in range(SETUPS_PER_PIPELINE):
            setup_s, mods, seeded = setup_once(workload, seed, cfg_path)
            samples["setup_s"].append(setup_s)
        res = Pipeline(workload, seeded, mods, cfg_path, workdir).run(mods["cli"].main)
        attempted += len(res["times"])
        failures += res["failures"]
        for command, t in res["times"]:
            samples[f"{command}_s"].append(t)
        samples["pipeline_s"].append(sum(t for _, t in res["times"]))
        if not keep_going(deadline, perf_counter() - t0):
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, values in samples.items():
        if values:
            print(f"{name}: {describe(values, 's')} samples=" + ",".join(f"{v:.4g}" for v in values))
    print(f"peak_rss_mb: {peak:.6g} MB")
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END if name in samples}
    metrics["peak_rss_mb"] = peak
    return attempted, failures, metrics, True


def traced_run(workload, seed: int, cfg_path: Path, workdir: Path, seconds: float,
               trace_path: Path):
    from spans import Tracer, pipeline_layers

    _, mods, seeded = setup_once(workload, seed, cfg_path)
    pipeline = Pipeline(workload, seeded, mods, cfg_path, workdir)
    tracer = Tracer()
    cli = mods["cli"]
    attempted, failures = 0, []
    layer_runs, samples, plain_solve = [], {}, []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        traced = i % 2 == 0
        if traced:
            tracer.op = i
            tracer.install(mods)
            main = _root_spans(tracer, cli.main)
        else:
            main = cli.main
        t0 = perf_counter()
        try:
            res = pipeline.run(main)
        finally:
            tracer.remove()
        attempted += len(res["times"])
        failures += res["failures"]
        if traced:
            metrics, calls = pipeline_layers(tracer, i)
            metrics.update(res["readings"])
            layer_runs.append(metrics)
            for key, values in calls.items():
                samples.setdefault(key, []).extend(values)
        else:
            plain_solve += [t for command, t in res["times"] if command == "solve"]
        i += 1
        if i >= 2 and not keep_going(deadline, perf_counter() - t0):
            break
    tracer.write(str(trace_path))

    metrics = {}
    for name in PER_LAYER:
        values = [run.get(name, 0.0) for run in layer_runs]
        metrics[name] = statistics.median(values)
    for name, values in samples.items():
        metrics[name] = statistics.median(values) if values else 0.0
        if values:
            print(f"{name}: {describe(values, 'ms')}")
    simulate_s = statistics.median(run.get("montecarlo.simulate_s", 0.0) for run in layer_runs)
    if simulate_s:
        from workloads import MC_PATHS

        metrics["montecarlo.paths_per_s"] = MC_PATHS / simulate_s
    metrics["trace.plain_solve_s"] = statistics.median(plain_solve)
    metrics["trace.overhead"] = metrics["trace.solve_s"] / metrics["trace.plain_solve_s"]

    steady = True
    for name in DETERMINISTIC:
        seen = {run.get(name, 0.0) for run in layer_runs}
        if len(seen) > 1:
            print(f"counter {name} changed between pipelines: {sorted(seen)}")
            steady = False
    print(f"traced pipelines: {len(layer_runs)}, plain pipelines: {len(plain_solve)}, "
          f"spans: {len(tracer.spans)}, written to {trace_path.relative_to(ROOT)}")
    return attempted, failures, metrics, steady


def _root_spans(tracer, main):
    def traced_main(argv):
        return tracer.wrap(f"cli.{argv[0]}", main)(argv)

    return traced_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    if not (SRC / "mfgcon" / "__init__.py").is_file():
        print(f"perfbench: no mfgcon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    from workloads import WORKLOADS, seeded_input

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = HERE / "work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "input.cfg"
    seeded = seeded_input(workload, args.seed)
    print(f"workload {workload.name}: {workload.unknowns} unknowns, "
          f"shift {seeded.shift}, mc seed {seeded.mc_seed}; {workload.why}")
    try:
        if args.trace:
            traces = HERE / "traces"
            traces.mkdir(exist_ok=True)
            attempted, failures, metrics, steady = traced_run(
                workload, args.seed, cfg_path, workdir, args.seconds,
                traces / f"{workload.name}-seed{args.seed}.jsonl.gz",
            )
            units = PER_LAYER
        else:
            attempted, failures, metrics, steady = plain_run(
                workload, args.seed, cfg_path, workdir, args.seconds
            )
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("environment: " + json.dumps(environment(nproc)))

    for reason in failures:
        print(f"failed operation: {reason}")
    print(f"ops_failed: {len(failures)}/{attempted}")
    result = {
        "correct": not failures and steady,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
