"""Fourier-Galerkin reduction of the linearized system and its direct solve.

Projecting the residual rows of the linearization onto finitely many Fourier
modes gives rows in the coefficient vectors A (density direction) and B
(value direction) with the solver's own time scheme: the transport rows are
implicit in A, the value rows in B backward in time.  Half the boundary data
is initial (A at t = 0), half terminal (B at t = T), so all slices' rows are
solved at once: the system is block tridiagonal in the slice index, and block
elimination in time order solves it (Ascher, Mattheij & Russell, *Numerical
Solution of Boundary Value Problems for ODEs*, SIAM 1995, ch. 5).  Single
shooting from t = 0 would amplify mode k by (1 + dt 4 pi^2 k^2)^N_t (ch. 4
there); the whole-system solve does not, so it stays at the roundoff of the
blocks at every mode count.  The shooting map (A(0), B(0)) -> (A(0), B(T)) is
still what the injectivity argument behind uniqueness inverts, and
:func:`shooting_spectrum` reports its singular values from the same
elimination.  The blocks are projected from the frozen coefficient fields,
never from the operator apply, so this path cross-validates the monolithic
linear solve; it is not the production solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import PeriodicGrid, SpaceTimeField
from .linearized import Perturbation, _base_coefficients
from .system import LambdaData, MFGProblem, ResidualBundle, SolutionPair

__all__ = [
    "FourierBasis",
    "GalerkinSystem",
    "assemble_galerkin_system",
    "shooting_spectrum",
    "solve_linearized_galerkin",
]


@dataclass(frozen=True)
class FourierBasis:
    """First n real Fourier modes: the constant, then cos/sin pairs by frequency.

    Orthonormal in the discrete L2 inner product and orthogonal in H1; plane
    waves cos(2 pi k.x), sin(2 pi k.x) are used in every dimension, for the
    frequencies below the grid's Nyquist frequency in every component.
    """

    grid: PeriodicGrid
    values: np.ndarray   # (n, M)
    grads: np.ndarray    # (d, n, M)

    @classmethod
    def build(cls, grid: PeriodicGrid, n_modes: int) -> "FourierBasis":
        if n_modes < 1:
            raise ValueError("need at least one mode")
        kvecs = _frequency_order(grid)
        if n_modes > 1 + 2 * len(kvecs):
            raise ValueError(
                f"the grid resolves {1 + 2 * len(kvecs)} modes below its Nyquist frequency"
            )
        coords = grid.coordinates()
        modes = [np.ones(grid.num_nodes)]
        grads = [np.zeros((grid.dim, grid.num_nodes))]
        for kvec in kvecs[: n_modes // 2]:
            phase = 2.0 * np.pi * sum(k * c for k, c in zip(kvec, coords))
            root2 = np.sqrt(2.0)
            cos_m = (root2 * np.cos(phase)).ravel()
            sin_m = (root2 * np.sin(phase)).ravel()
            cos_g = np.stack(
                [(-root2 * 2.0 * np.pi * k * np.sin(phase)).ravel() for k in kvec]
            )
            sin_g = np.stack(
                [(root2 * 2.0 * np.pi * k * np.cos(phase)).ravel() for k in kvec]
            )
            modes.append(cos_m)
            grads.append(cos_g)
            if len(modes) < n_modes:
                modes.append(sin_m)
                grads.append(sin_g)
        values = np.stack(modes)
        basis = cls(grid=grid, values=values, grads=np.stack(grads, axis=1))
        gram = basis.gram()
        if np.max(np.abs(gram - np.eye(len(modes)))) > 1e-12:
            raise AssertionError("basis lost discrete orthonormality")
        return basis

    @property
    def n_modes(self) -> int:
        return self.values.shape[0]

    def gram(self) -> np.ndarray:
        vol = self.grid.cell_volume
        return vol * self.values @ self.values.T

    def project(self, field_values: np.ndarray) -> np.ndarray:
        """Coefficients <w, e_k>; accepts (..., M) stacks."""
        return self.grid.cell_volume * np.asarray(field_values) @ self.values.T

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(coeffs) @ self.values


def _frequency_order(grid: PeriodicGrid):
    """Frequency vectors below the grid's Nyquist frequency in every component,
    ordered by |k|^2, one representative per +-k pair."""
    half = grid.points_per_dim // 2
    if grid.dim == 1:
        cands = [(k,) for k in range(1, half)]
    else:
        cands = [
            (kx, ky) for kx in range(1 - half, half) for ky in range(half) if ky > 0 or kx > 0
        ]
    return sorted(cands, key=lambda kv: (sum(k * k for k in kv), kv))


@dataclass
class GalerkinSystem:
    """Per-slice coupling matrices of the projected linearized equations.

    With K the stiffness matrix, the slice-dependent blocks P, S, R, G and
    (r_fp, r_hjb) the residual rows projected onto the basis, the rows read

        (A^n - A^(n-1))/dt + (K + P_n) A^n + S_n B^n = r_fp^n     (n >= 1)
        (B^n - B^(n+1))/dt + (K + R_n) B^n + G_n A^n = r_hjb^n    (n < N_t)

    with the data rows A^0 = r_fp^0 and B^(N_t) = r_hjb^(N_t).  In the
    unknowns (A^0..A^N_t, B^0..B^N_t) the transport rows are block lower
    bidiagonal in A and the value rows block upper bidiagonal in B.
    """

    basis: FourierBasis
    dt: float
    stiffness: np.ndarray   # (n, n)
    p_blocks: np.ndarray    # (K+1, n, n) transport against De_k in the density rows
    s_blocks: np.ndarray    # (K+1, n, n) value-gradient coupling in the density rows
    r_blocks: np.ndarray    # (K+1, n, n) transport in the value rows
    g_blocks: np.ndarray    # (K+1, n, n) density coupling in the value rows


def assemble_galerkin_system(
    problem: MFGProblem,
    lam_data: LambdaData,
    base: SolutionPair,
    basis: FourierBasis,
) -> GalerkinSystem:
    """Project the linearized equations at ``base`` onto the basis, all slices at once."""
    if basis.grid != problem.grid:
        raise ValueError("basis and problem grids mismatch")
    coef = _base_coefficients(problem, lam_data, base)
    vol = problem.grid.cell_volume
    e, de = basis.values, basis.grads
    # coefficient of Dv in the density flux, flux_a I + flux_b q q^T, as (K+1, d, d, M)
    q = np.moveaxis(coef.q, 0, 1)
    flux_dv = coef.flux_b[:, None, None] * q[:, :, None] * q[:, None]
    flux_dv += np.eye(problem.grid.dim)[:, :, None] * coef.flux_a[:, None, None]
    return GalerkinSystem(
        basis=basis,
        dt=problem.time.dt,
        stiffness=vol * np.einsum("dkm,dlm->kl", de, de),
        p_blocks=vol * np.einsum("djm,lm,dkm->jkl", coef.drift_coef, e, de, optimize=True),
        s_blocks=vol * np.einsum("jdem,dkm,elm->jkl", flux_dv, de, de, optimize=True),
        r_blocks=vol * np.einsum("djm,km,dlm->jkl", coef.transport, e, de, optimize=True),
        g_blocks=vol * np.einsum("jm,km,lm->jkl", coef.zero_order_u, e, e, optimize=True),
    )


def _eliminate_rows(system: GalerkinSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve all slices' rows at once for a (K+1, 2n, p) stack of right-hand sides.

    Slice j's rows, transport then value, against its unknowns (A^j, B^j)
    form one dense 2n x 2n diagonal block; they reach A^(j-1) and B^(j+1)
    only through -I/dt.  Block LU in time order: the forward sweep folds
    slice j-1 into slice j's transport rows, leaving each slice's unknowns as
    ``y[j] - coupling[j] B^(j+1)``, and the backward pass substitutes B^(j+1).
    Returns the unknowns in the layout of ``rhs``.
    """
    k1, n = system.p_blocks.shape[:2]
    dt, k_mat, eye = system.dt, system.stiffness, np.eye(n)
    diag = np.zeros((k1, 2, n, 2, n))  # [slice, row half, row, unknown half, unknown]
    diag[0, 0, :, 0] = eye
    diag[1:, 0, :, 0] = eye / dt + k_mat + system.p_blocks[1:]
    diag[1:, 0, :, 1] = system.s_blocks[1:]
    diag[:-1, 1, :, 0] = system.g_blocks[:-1]
    diag[:-1, 1, :, 1] = eye / dt + k_mat + system.r_blocks[:-1]
    diag[-1, 1, :, 1] = eye
    diag = diag.reshape(k1, 2 * n, 2 * n)
    next_b = np.zeros((2 * n, n))  # the value rows' -I/dt on B^(j+1); none at the last slice
    next_b[n:] = -eye / dt
    coupling = np.zeros((k1, 2 * n, n))
    y = np.array(rhs, dtype=float)
    for j in range(k1):
        if j:  # the transport rows' -I/dt on A^(j-1), eliminated
            diag[j, :n, n:] += coupling[j - 1, :n] / dt
            y[j, :n] += y[j - 1, :n] / dt
        sol = np.linalg.solve(diag[j], np.concatenate([next_b, y[j]], axis=1))
        coupling[j], y[j] = sol[:, :n], sol[:, n:]
    for j in range(k1 - 2, -1, -1):
        y[j] -= coupling[j] @ y[j + 1, n:]
    return y


def shooting_spectrum(system: GalerkinSystem) -> np.ndarray:
    """Singular values, largest first, of the shooting map (A^0, B^0) -> (A^0, B^(N_t)).

    That map of the homogeneous rows is what the split initial/terminal data
    must invert, and its surjectivity is equivalent to injectivity.  Its
    inverse (A^0, B^(N_t)) -> (A^0, B^0) takes one elimination of all rows
    with the 2n unit data rows as right-hand sides, and its singular values
    are the reciprocals.
    """
    k1, n = system.p_blocks.shape[:2]
    units = np.zeros((k1, 2 * n, 2 * n))
    units[0, :n, :n] = np.eye(n)
    units[-1, n:, n:] = np.eye(n)
    inverse = _eliminate_rows(system, units)[0]
    return 1.0 / np.linalg.svd(inverse, compute_uv=False)[::-1]


def solve_linearized_galerkin(
    problem: MFGProblem,
    lam_data: LambdaData,
    base: SolutionPair,
    basis: FourierBasis,
    rhs: ResidualBundle,
) -> Perturbation:
    """Direct solve of the projected linearized rows L w = ``rhs``.

    ``rhs`` uses the residual row layout, as in ``solve_linearized``; its
    projection is the right-hand side of every row, data rows included.  The
    coefficient paths are ``basis.project`` of the perturbation's slices.
    """
    system = assemble_galerkin_system(problem, lam_data, base, basis)
    r_fp = basis.project(rhs.fp.values)   # (K+1, n)
    r_hjb = basis.project(rhs.hjb.values)
    coeffs = _eliminate_rows(system, np.concatenate([r_fp, r_hjb], axis=1)[:, :, None])[..., 0]
    n = basis.n_modes
    grid, time = problem.grid, problem.time
    return Perturbation(
        v=SpaceTimeField(grid, time, basis.reconstruct(coeffs[:, n:])),
        f=SpaceTimeField(grid, time, basis.reconstruct(coeffs[:, :n])),
    )
