"""Workload definitions, seeded config generation and output fingerprints.

Each workload is fixed problem data plus the CLI commands of one pipeline.
The benchmark seed picks a grid-aligned translation of the torus that is
applied to every data field, and the sampling seed of ``mfgcon mc``.  A
translation leaves the discrete problem the same up to roundoff, so the work
done (steps, Newton iterations, linear solves, FFT calls) does not depend on
the seed while the bytes the program sees do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Data of configs/reference.cfg at the commit that introduced the benchmark.
# Each field is a list of (coefficient, "cos" | "sin" | None, frequency) terms.
REFERENCE_DATA = {
    "weight": [(1.0, None, None)],
    "b_x": [(0.1, "sin", (1,))],
    "v1": [(0.05, "cos", (1,))],
    "psi": [(0.05, "cos", (1,))],
    "m0": [(1.0, None, None), (0.2, "cos", (1,))],
}

# Data of tests/test_cli.py::test_two_dimensional_config_solve.
GRID2D_DATA = {
    "weight": [(1.0, None, None)],
    "b_x": [(0.1, "sin", (1, 0))],
    "b_y": [(0.05, "sin", (0, 1))],
    "v1": [(0.05, "cos", (1, 1))],
    "psi": [(0.05, "cos", (1, 0))],
    "m0": [(1.0, None, None), (0.2, "cos", (1, 0)), (0.1, "cos", (0, 1))],
}

REFERENCE_SOLVER = {
    "newton_tol": "1e-10",
    "newton_max_iters": "12",
    "dlambda_init": "0.1",
    "dlambda_min": "1e-4",
    "dlambda_max": "0.25",
    "m_positivity_margin": "1e-6",
}

MC_PATHS = 100_000
MC_L1_TOL = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    n: int
    n_t: int
    horizon: float
    data: dict
    commands: tuple
    galerkin_modes: int = 0
    why: str = ""

    @property
    def unknowns(self) -> int:
        return 2 * (self.n_t + 1) * self.n**self.dim

    @property
    def newton_tol(self) -> float:
        return float(REFERENCE_SOLVER["newton_tol"])


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="ref1d",
            dim=1, n=64, n_t=64, horizon=0.05,
            data=REFERENCE_DATA,
            commands=("solve", "check", "mc"),
            galerkin_modes=6,
            why="reference pipeline with mc and the Galerkin spectrum; 8,320 "
                "unknowns, so auto takes the assembled LU path",
        ),
        Workload(
            name="stiff1d",
            dim=1, n=32, n_t=32, horizon=0.05,
            data={**REFERENCE_DATA, "psi": [(2.0, "cos", (1,))]},
            commands=("solve", "check"),
            why="hard terminal data: a rejected step, line-search backtracks and "
                "many small direct solves stress step control",
        ),
        Workload(
            name="grid2d",
            dim=2, n=32, n_t=64, horizon=0.05,
            data=GRID2D_DATA,
            commands=("solve", "check"),
            why="133,120 unknowns, so auto takes preconditioned lgmres: matvecs, "
                "preconditioner and FFTs dominate",
        ),
    ]
}


@dataclass(frozen=True)
class SeededInput:
    """What the seed decides: the node shift per axis and the mc sampling seed."""

    shift: tuple
    mc_seed: int
    config_text: str = field(repr=False)


def _fmt(x: float) -> str:
    return repr(float(x))


def translate_terms(terms, shift_frac: tuple) -> list:
    """Terms of f(x + s) for f given as a trigonometric polynomial.

    a*cos(2 pi k.x) becomes a*cos(phi)*cos(k.x) - a*sin(phi)*sin(k.x) and
    a*sin(2 pi k.x) becomes a*cos(phi)*sin(k.x) + a*sin(phi)*cos(k.x), with
    phi = 2 pi k.s, so every term turns into a cos/sin coefficient pair.
    """
    out = []
    for coef, fn, kvec in terms:
        if fn is None:
            out.append((coef, None, None))
            continue
        phi = 2.0 * math.pi * sum(k * s for k, s in zip(kvec, shift_frac))
        c, s = math.cos(phi), math.sin(phi)
        if fn == "cos":
            out += [(coef * c, "cos", kvec), (-coef * s, "sin", kvec)]
        else:
            out += [(coef * c, "sin", kvec), (coef * s, "cos", kvec)]
    return out


def _expr(terms) -> str:
    parts = []
    for coef, fn, kvec in terms:
        if fn is None:
            parts.append(_fmt(coef))
        else:
            parts.append(f"{_fmt(coef)}*{fn}({','.join(str(k) for k in kvec)})")
    return " + ".join(parts)


def seeded_input(workload: Workload, seed: int) -> SeededInput:
    rng = np.random.default_rng(seed)
    shift = tuple(int(j) for j in rng.integers(0, workload.n, size=workload.dim))
    mc_seed = int(rng.integers(0, 2**31 - 1))
    frac = tuple(j / workload.n for j in shift)
    lines = [
        "[problem]",
        f"d = {workload.dim}",
        f"n = {workload.n}",
        f"n_t = {workload.n_t}",
        f"t = {_fmt(workload.horizon)}",
        "gamma = 1.5",
        "alpha = 0.5",
        "v2 = arctan",
    ]
    for key, terms in workload.data.items():
        lines.append(f"{key} = {_expr(translate_terms(terms, frac))}")
    lines += ["", "[solver]"]
    lines += [f"{k} = {v}" for k, v in REFERENCE_SOLVER.items()]
    lines += [
        "",
        "[mc]",
        f"paths = {MC_PATHS}",
        "seed = 7",
        "substeps = 1",
        f"l1_tol = {MC_L1_TOL}",
        "",
        "[output]",
        "plots = false",
        f"galerkin_modes = {workload.galerkin_modes}",
        "",
    ]
    return SeededInput(shift=shift, mc_seed=mc_seed, config_text="\n".join(lines))


def unshift(values: np.ndarray, workload: Workload, shift: tuple) -> np.ndarray:
    """Undo the translation on (slices, nodes) values: u(x) = u_shifted(x - s)."""
    shaped = values.reshape((values.shape[0],) + (workload.n,) * workload.dim)
    back = np.roll(shaped, shift, axis=tuple(range(1, workload.dim + 1)))
    return back.reshape(values.shape)


def fingerprints(u: np.ndarray, m: np.ndarray, workload: Workload, shift: tuple) -> dict:
    """Seed-independent summary of the stored fields, after translating back.

    Per-slice mass, RMS norms of u and m, min m, and the first Fourier
    coefficient along x of u(., 0) and m(., T); the last two move if the
    translation is undone wrongly.
    """
    u, m = unshift(u, workload, shift), unshift(m, workload, shift)
    cell = (1.0 / workload.n) ** workload.dim
    x = np.arange(workload.n) / workload.n
    wave = np.exp(-2j * np.pi * x)
    if workload.dim == 2:
        wave = np.repeat(wave, workload.n)  # node index is x-major

    def mode(vals):
        c = np.sum(vals * wave) / vals.size
        return [float(c.real), float(c.imag)]

    return {
        "mass": [float(v) for v in cell * np.sum(m, axis=1)],
        "u_rms": float(np.sqrt(np.mean(u * u))),
        "m_rms": float(np.sqrt(np.mean(m * m))),
        "m_min": float(np.min(m)),
        "u0_mode1": mode(u[0]),
        "mT_mode1": mode(m[-1]),
    }


def fingerprint_mismatch(got: dict, ref: dict, tol: float) -> str | None:
    """Name of the first fingerprint that differs from ``ref`` by more than tol."""
    for key, ref_val in ref.items():
        a = np.atleast_1d(np.asarray(got.get(key, np.nan), dtype=float))
        b = np.atleast_1d(np.asarray(ref_val, dtype=float))
        if a.shape != b.shape or not np.all(np.abs(a - b) <= tol):
            return key
    return None
