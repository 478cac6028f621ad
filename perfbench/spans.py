"""Span tracing of one pipeline, from wrappers installed around mfgcon's layers.

Every wrapper replaces a name where its caller looks it up (a module or class
attribute), records a span ``[name, start, end, parent, op, excluded]`` and
counts at the same boundary, and is removed again after the traced pipeline.
``excluded`` is the benchmark's own work (counting, verification) done while
the span was open; it is taken out of the span's time and its parents'.  A name that no
longer exists is skipped, so its calls read as zero.  Spans stay in memory
until the run ends.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import gzip
import json
import math
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "cli", "fileio", "continuation", "system", "linearized", "grids",
    "hamiltonians", "estimates", "montecarlo", "galerkin",
)

# Metric that holds a layer's self time in the solve, where it is not "<layer>.self_s".
SELF_TIME = {"grids": "grids.fft_s", "hamiltonians": "hamiltonians.eval_s"}

ESTIMATE_CHECKS = (
    "check_mass", "check_value_bounds", "check_integral_estimates",
    "check_inverse_m", "check_uniqueness_integrand", "check_gradient_bound",
    "check_exponents",
)

_COMPLEX_FFTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
_REAL_IN_FFTS = ("rfft", "rfft2", "rfftn", "ihfft")     # real array is the input
_REAL_OUT_FFTS = ("irfft", "irfft2", "irfftn", "hfft")  # real array is the output
_ONE_AXIS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> name -> value
        self._installed: list = []
        self._newton: list = []  # open newton_correct calls: [solves, residuals]
        self.paused = False

    # -- spans -------------------------------------------------------------

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[self.op][name] += value

    def wrap(self, name: str, fn, after=None):
        """Time ``fn`` as span ``name``; ``after(args, kwargs, result, exc)`` counts."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if after is not None:
                    self.untimed(after, args, kwargs, result, exc)

        return wrapper

    def untimed(self, fn, *args):
        """Run bench-side work unrecorded and charge its time as excluded.

        The time goes to the innermost open span, so it is taken out of that
        span's and its parents' durations and self times.
        """
        t0 = perf_counter()
        was, self.paused = self.paused, True
        try:
            return fn(*args)
        finally:
            self.paused = was
            if self.stack:
                self.spans[self.stack[-1]][5] += perf_counter() - t0

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, span: str, after=None, wrap_fn=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        new = wrap_fn(original) if wrap_fn else self.wrap(span, original, after)
        setattr(owner, attr, new)
        self._installed.append((owner, attr, original))

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def install(self, mods: dict) -> None:
        """Wrap the layer boundaries of the freshly imported mfgcon modules."""
        cli, cont, lin = mods["cli"], mods["continuation"], mods["linearized"]
        import scipy.sparse.linalg as spla

        for attr in ("load_config", "build_problem"):
            self.patch(cli, attr, f"fileio.{attr}")
        for attr in ("write_field", "write_report", "write_plot_columns"):
            self.patch(cli, attr, f"fileio.{attr}", after=self._count_written)
        self.patch(cli, "read_field", "fileio.read_field")

        self.patch(cli, "solve_path", "continuation.solve_path")
        self.patch(cont, "newton_correct", "continuation.newton_correct",
                   wrap_fn=self._newton_hook)
        self.patch(cont, "residual_full", "system.residual_full", after=self._count_residual)
        self.patch(cont, "solve_linearized", "linearized.solve_linearized",
                   wrap_fn=lambda fn: self._solve_hook(fn, lin))
        self.patch(lin, "assemble_L", "linearized.assemble_L",
                   after=lambda *a: self.add("linearized.assemble_calls"))
        self.patch(lin, "_heat_chain_preconditioner", "linearized.precond_build")
        self.patch(spla, "splu", "linearized.splu")
        self.patch(spla, "lgmres", "linearized.lgmres", wrap_fn=self._krylov_hook)

        ham = getattr(mods["hamiltonians"], "HamiltonianModel", None)
        for attr in ("value", "grad", "hess_coeffs"):
            self.patch(ham, attr, f"hamiltonians.{attr}")

        self.patch(cli, "run_all_checks", "estimates.run_all_checks", after=self._count_checks)
        for attr in ESTIMATE_CHECKS:
            self.patch(mods["estimates"], attr, f"estimates.{attr}")
        self.patch(cli, "simulate_density", "montecarlo.simulate_density")
        gal = mods["galerkin"]
        self.patch(gal, "assemble_galerkin_system", "galerkin.assemble_galerkin_system")
        self.patch(gal, "shooting_matrix", "galerkin.shooting_matrix")

        for attr in _COMPLEX_FFTS + _REAL_IN_FFTS + _REAL_OUT_FFTS:
            self.patch(np.fft, attr, f"grids.{attr}", after=self._fft_counter(attr))

    # -- counting hooks ----------------------------------------------------

    def _count_written(self, args, kwargs, result, exc):
        path = args[0]
        for p in (path, path + ".json", path + ".txt"):
            if os.path.isfile(p):
                self.add("fileio.bytes_written", os.path.getsize(p))

    def _count_residual(self, args, kwargs, result, exc):
        self.add("system.residual_calls")
        if self._newton:
            self._newton[-1][1] += 1

    def _count_checks(self, args, kwargs, report, exc):
        records = getattr(report, "records", [])
        self.add("estimates.checks_failed", sum(1 for r in records if not r.passed))

    def _newton_hook(self, fn):
        inner = self.wrap("continuation.newton_correct", fn)

        def hook(*args, **kwargs):
            self._newton.append([0, 0])
            ok = False
            try:
                out = inner(*args, **kwargs)
                ok = True
                return out
            finally:
                solves, residuals = self._newton.pop()
                self.add("continuation.steps_accepted" if ok else "continuation.steps_rejected")
                self.add("continuation.newton_iters", solves)
                self.add("continuation.linesearch_backtracks", max(0, residuals - solves - 1))

        return hook

    def _solve_hook(self, fn, lin):
        inner = self.wrap("linearized.solve_linearized", fn)
        apply_l = getattr(lin, "apply_L", None)

        def hook(problem, lam_data, base, rhs, *args, **kwargs):
            if self._newton:
                self._newton[-1][0] += 1
            self.add("linearized.solves")
            try:
                w = inner(problem, lam_data, base, rhs, *args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "LinearSolveError":
                    self.add("linearized.solve_failures")
                raise
            if apply_l is not None:
                rel = self.untimed(_relative_residual, apply_l, problem, lam_data, base, w, rhs)
                c = self.counts[self.op]
                c["linearized.rel_residual_max"] = max(c["linearized.rel_residual_max"], rel)
            return w

        return hook

    def _krylov_hook(self, fn):
        import scipy.sparse.linalg as spla

        inner = self.wrap("linearized.lgmres", fn)

        def timed_operator(op, span, count):
            op = spla.aslinearoperator(op)
            matvec = self.wrap(span, op.matvec, after=lambda *a: self.add(count))
            return spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype if op.dtype is not None else np.float64)

        def hook(A, b, *args, M=None, **kwargs):
            self.add("linearized.krylov_solves")
            A = timed_operator(A, "linearized.matvec", "linearized.matvecs")
            if M is not None:
                M = timed_operator(M, "linearized.precond", "linearized.precond_applies")
            return inner(A, b, *args, M=M, **kwargs)

        return hook

    def _fft_counter(self, name: str):
        def after(args, kwargs, out, exc):
            if exc is not None:
                return
            a = np.asarray(args[0])
            real = a if name in _REAL_IN_FFTS else out
            if name in _ONE_AXIS:
                axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
            else:
                axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
                if axes is None:
                    axes = (-2, -1) if name.endswith("2") else tuple(range(real.ndim))
            length = math.prod(real.shape[ax] for ax in axes)
            batch = real.size // max(length, 1)
            flops = 5.0 * length * math.log2(length) * batch if length > 1 else 0.0
            if name not in _COMPLEX_FFTS:
                flops *= 0.5
            c = self.counts[self.op]
            c["grids.fft_calls"] += 1
            c["grids.fft_points"] += real.size
            c["grids.fft_flops_computed"] += flops
            c["grids.fft_bytes_computed"] += a.nbytes + out.nbytes

        return after

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _relative_residual(apply_l, problem, lam_data, base, w, rhs) -> float:
    got = apply_l(problem, lam_data, base, w)
    diff = np.concatenate([(got.fp.values - rhs.fp.values).ravel(),
                           (got.hjb.values - rhs.hjb.values).ravel()])
    ref = np.concatenate([rhs.fp.values.ravel(), rhs.hjb.values.ravel()])
    scale = float(np.linalg.norm(ref))
    return float(np.linalg.norm(diff)) / scale if scale > 0.0 else 0.0


def span_times(spans: list):
    """Per-span (duration without excluded time inside, self time, root index)."""
    n = len(spans)
    excluded = [s[5] for s in spans]
    for i in range(n - 1, -1, -1):  # a child always comes after its parent
        parent = spans[i][3]
        if parent >= 0:
            excluded[parent] += excluded[i]
    dur = [s[2] - s[1] - x for s, x in zip(spans, excluded)]
    child = [0.0] * n
    root = list(range(n))
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            child[parent] += dur[i]
            root[i] = root[parent]
    self_t = [d - c for d, c in zip(dur, child)]
    return dur, self_t, root


def pipeline_layers(tracer: Tracer, op: int) -> dict:
    """Layer metrics of one traced pipeline, from its spans and counts.

    Returns the metrics and the per-call duration samples (ms) of the layers
    whose calls are numerous enough for percentiles.
    """
    spans = tracer.spans
    samples = {"system.residual_ms": [], "linearized.solve_ms": []}
    dur, self_t, root = span_times(spans)
    out = defaultdict(float, tracer.counts[op])
    for i, (name, _, _, parent, sop, _) in enumerate(spans):
        if sop != op:
            continue
        layer, _, fn = name.partition(".")
        in_solve = spans[root[i]][0] == "cli.solve"
        if in_solve and layer in LAYERS:
            out[SELF_TIME.get(layer, f"{layer}.self_s")] += self_t[i]
        if name == "cli.solve":
            out["trace.solve_s"] += dur[i]
        key = _INCLUSIVE.get(name)
        if key is not None:
            out[key] += dur[i]
        if layer == "hamiltonians":
            if parent < 0 or not spans[parent][0].startswith("hamiltonians."):
                out["hamiltonians.evals"] += 1
        elif name == "continuation.newton_correct":
            out["continuation.newton_self_s"] += self_t[i]
        elif layer == "estimates" and fn.startswith("check_"):
            out[f"estimates.{fn[len('check_'):]}_s"] += dur[i]
        elif name in _SAMPLED:
            samples[_SAMPLED[name]].append(1e3 * dur[i])
    # cli is the entry, not a layer: its self time is what no layer wrapper covers
    layer_self = sum(out[SELF_TIME.get(layer, f"{layer}.self_s")]
                     for layer in LAYERS if layer != "cli")
    out["trace.self_sum_share"] = layer_self / out["trace.solve_s"] if out["trace.solve_s"] else 0.0
    attempts = out["continuation.steps_accepted"] + out["continuation.steps_rejected"]
    out["continuation.step_accept_ratio"] = (
        out["continuation.steps_accepted"] / attempts if attempts else 0.0
    )
    out["linearized.matvecs_per_solve"] = (
        out["linearized.matvecs"] / out["linearized.krylov_solves"]
        if out["linearized.krylov_solves"] else 0.0
    )
    path_s, solve_s = out["continuation.solve_path_s"], out["trace.solve_s"]
    for part in ("assemble", "factor", "matvec", "precond", "precond_build"):
        out[f"linearized.{part}_share"] = out[f"linearized.{part}_s"] / path_s if path_s else 0.0
    for part in ("assemble", "shooting"):
        out[f"galerkin.{part}_share"] = out[f"galerkin.{part}_s"] / solve_s if solve_s else 0.0
    return out, samples


_SAMPLED = {
    "system.residual_full": "system.residual_ms",
    "linearized.solve_linearized": "linearized.solve_ms",
}

# Inclusive span durations that feed a metric directly.
_INCLUSIVE = {
    "continuation.solve_path": "continuation.solve_path_s",
    "system.residual_full": "system.residual_s",
    "linearized.solve_linearized": "linearized.solve_s",
    "linearized.assemble_L": "linearized.assemble_s",
    "linearized.splu": "linearized.factor_s",
    "linearized.matvec": "linearized.matvec_s",
    "linearized.precond": "linearized.precond_s",
    "linearized.precond_build": "linearized.precond_build_s",
    "estimates.run_all_checks": "estimates.run_all_checks_s",
    "montecarlo.simulate_density": "montecarlo.simulate_s",
    "galerkin.assemble_galerkin_system": "galerkin.assemble_s",
    "galerkin.shooting_matrix": "galerkin.shooting_s",
    "fileio.load_config": "fileio.load_s",
    "fileio.build_problem": "fileio.load_s",
    "fileio.write_field": "fileio.write_s",
    "fileio.write_report": "fileio.write_s",
    "fileio.write_plot_columns": "fileio.write_s",
    "fileio.read_field": "fileio.read_s",
}
