"""Fourier-Galerkin reduction of the linearized system and its shooting solve.

Projecting the residual rows of the linearization onto finitely many Fourier
modes gives a recurrence in the coefficient vectors A (density direction) and
B (value direction) with the solver's own time scheme: the value rows step B
forward explicitly and the transport rows are implicit in A.  Half the
boundary data is initial (A at t = 0), half terminal (B at t = T), so the
solve is completed by the shooting map that sends initial coefficients to
(A(0), B(T)): its invertibility is exactly the injectivity argument behind
uniqueness, and its smallest singular value is monitored.  The blocks are
projected from the frozen coefficient fields, never from the operator apply,
so this path cross-validates the monolithic linear solve at small mode
counts; it is not the production solver.
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
    "ShootingSingularError",
    "assemble_galerkin_system",
    "shooting_matrix",
    "solve_linearized_galerkin",
]


# Smallest singular value of the shooting map below which the split data
# counts as unsolvable.
_SIGMA_TOL = 1e-12


class ShootingSingularError(RuntimeError):
    def __init__(self, sigma_min: float):
        self.sigma_min = sigma_min
        super().__init__(f"shooting matrix is numerically singular (sigma_min={sigma_min:.3e})")


@dataclass(frozen=True)
class FourierBasis:
    """First n real Fourier modes: the constant, then cos/sin pairs by frequency.

    Orthonormal in the discrete L2 inner product and orthogonal in H1; plane
    waves cos(2 pi k.x), sin(2 pi k.x) are used in every dimension.
    """

    grid: PeriodicGrid
    values: np.ndarray   # (n, M)
    grads: np.ndarray    # (d, n, M)
    freqs: tuple         # frequency vector per mode

    @classmethod
    def build(cls, grid: PeriodicGrid, n_modes: int) -> "FourierBasis":
        if n_modes < 1:
            raise ValueError("need at least one mode")
        coords = grid.coordinates()
        modes, grads, freqs = [], [], []
        modes.append(np.ones(grid.num_nodes))
        grads.append(np.zeros((grid.dim, grid.num_nodes)))
        freqs.append((0,) * grid.dim)
        for kvec in _frequency_order(grid.dim):
            if len(modes) >= n_modes:
                break
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
            freqs.append(kvec)
            if len(modes) < n_modes:
                modes.append(sin_m)
                grads.append(sin_g)
                freqs.append(kvec)
        values = np.stack(modes)
        max_freq = max(max(abs(k) for k in kv) for kv in freqs)
        if max_freq >= grid.points_per_dim // 2:
            raise ValueError("mode frequencies must stay below the grid Nyquist frequency")
        basis = cls(grid=grid, values=values, grads=np.stack(grads, axis=1), freqs=tuple(freqs))
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


def _frequency_order(dim: int):
    """Frequency vectors ordered by |k|^2, one representative per +-k pair."""
    limit = 64
    if dim == 1:
        cands = [(k,) for k in range(1, limit)]
    else:
        cands = []
        for kx in range(-limit, limit):
            for ky in range(0, limit):
                if ky == 0 and kx <= 0:
                    continue
                cands.append((kx, ky))
    return sorted(cands, key=lambda kv: (sum(k * k for k in kv), kv))


@dataclass
class GalerkinSystem:
    """Per-slice coupling matrices of the projected linearized equations.

    With K the stiffness matrix, the slice-dependent blocks P, S, R, G and
    (r_fp, r_hjb) the residual rows projected onto the basis, the rows read

        (A^n - A^(n-1))/dt + (K + P_n) A^n + S_n B^n = r_fp^n     (n >= 1)
        (B^n - B^(n+1))/dt + (K + R_n) B^n + G_n A^n = r_hjb^n    (n < N_t)

    with the data rows A^0 = r_fp^0 and B^(N_t) = r_hjb^(N_t).
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
    """Project the linearized equations at ``base`` onto the basis, slice by slice."""
    if basis.grid != problem.grid:
        raise ValueError("basis and problem grids mismatch")
    coef = _base_coefficients(problem, lam_data, base)
    vol = problem.grid.cell_volume
    e = basis.values
    de = basis.grads
    k_slices = problem.time.num_slices
    n = basis.n_modes

    stiffness = vol * np.einsum("dkm,dlm->kl", de, de)
    p_blocks = np.empty((k_slices, n, n))
    s_blocks = np.empty((k_slices, n, n))
    r_blocks = np.empty((k_slices, n, n))
    g_blocks = np.empty((k_slices, n, n))

    for j in range(k_slices):
        cp = coef.drift_coef[:, j, :]                      # (d, M)
        p_blocks[j] = vol * np.einsum("dm,lm,dkm->kl", cp, e, de)
        qde = np.einsum("dm,dnm->nm", coef.q[:, j, :], de)  # (n, M)
        s_blocks[j] = vol * (
            np.einsum("m,dkm,dlm->kl", coef.flux_a[j], de, de)
            + np.einsum("m,km,lm->kl", coef.flux_b[j], qde, qde)
        )
        r_blocks[j] = vol * np.einsum("dm,km,dlm->kl", coef.transport[:, j, :], e, de)
        g_blocks[j] = vol * np.einsum("m,km,lm->kl", coef.zero_order_u[j], e, e)

    return GalerkinSystem(
        basis=basis,
        dt=problem.time.dt,
        stiffness=stiffness,
        p_blocks=p_blocks,
        s_blocks=s_blocks,
        r_blocks=r_blocks,
        g_blocks=g_blocks,
    )


def _march(system: GalerkinSystem, a0, b0, r_fp, r_hjb):
    """Coefficient paths of the system's rows, marched forward from (A^0, B^0).

    Step n solves the value row of slice n-1 for B^n, then the transport row
    of slice n for A^n.  ``a0`` and ``b0`` are (n, c) stacks of columns and
    the projected rows ``r_fp``, ``r_hjb`` are (K+1, n, c) or (K+1, n, 1).
    Returns the (K+1, n, c) paths of A and B.
    """
    dt, k_mat = system.dt, system.stiffness
    implicit = np.eye(len(k_mat)) / dt + k_mat
    a = np.empty((len(system.p_blocks),) + np.shape(a0))
    b = np.empty_like(a)
    a[0], b[0] = a0, b0
    for n in range(1, len(a)):
        b[n] = b[n - 1] + dt * (
            (k_mat + system.r_blocks[n - 1]) @ b[n - 1]
            + system.g_blocks[n - 1] @ a[n - 1]
            - r_hjb[n - 1]
        )
        a[n] = np.linalg.solve(
            implicit + system.p_blocks[n],
            a[n - 1] / dt + r_fp[n] - system.s_blocks[n] @ b[n],
        )
    if not np.all(np.isfinite(b[-1])):
        raise FloatingPointError("the shooting march overflowed")
    return a, b


def shooting_matrix(system: GalerkinSystem) -> np.ndarray:
    """The linear map (A^0, B^0) -> (A^0, B^(N_t)) of the homogeneous rows.

    Columns come from marching the unit initial vectors; the first block
    row is the identity on A^0 by construction.  Surjectivity of this map is
    what makes the split initial/terminal data solvable, and it is equivalent
    to injectivity.
    """
    n = system.basis.n_modes
    eye = np.eye(2 * n)
    zero = np.zeros((len(system.p_blocks), n, 1))
    _, b = _march(system, eye[:n], eye[n:], zero, zero)
    phi = eye
    phi[n:] = b[-1]
    return phi


def solve_linearized_galerkin(
    problem: MFGProblem,
    lam_data: LambdaData,
    base: SolutionPair,
    basis: FourierBasis,
    rhs: ResidualBundle,
):
    """Shooting solve of the projected linearized rows L w = ``rhs``.

    ``rhs`` uses the residual row layout, as in ``solve_linearized``.  The
    particular path starts from zero coefficients; the homogeneous correction
    fixes A^0 to the projected initial row and shoots for the projected
    terminal row.  Returns (perturbation, info) with the smallest singular
    value of the shooting matrix in ``info``; the coefficient paths are
    ``basis.project`` of the perturbation's slices.
    """
    system = assemble_galerkin_system(problem, lam_data, base, basis)
    n = basis.n_modes
    r_fp = basis.project(rhs.fp.values)[..., None]   # (K+1, n, 1)
    r_hjb = basis.project(rhs.hjb.values)[..., None]

    phi = shooting_matrix(system)
    sigma_min = float(np.linalg.svd(phi, compute_uv=False)[-1])
    if sigma_min <= _SIGMA_TOL:
        raise ShootingSingularError(sigma_min)
    zero = np.zeros((n, 1))
    _, b_part = _march(system, zero, zero, r_fp, r_hjb)
    beta = np.linalg.solve(phi[n:, n:], r_hjb[-1] - b_part[-1] - phi[n:, :n] @ r_fp[0])

    a, b = _march(system, r_fp[0], beta, r_fp, r_hjb)
    grid, time = problem.grid, problem.time
    pert = Perturbation(
        v=SpaceTimeField(grid, time, basis.reconstruct(b[..., 0])),
        f=SpaceTimeField(grid, time, basis.reconstruct(a[..., 0])),
    )
    return pert, {"sigma_min": sigma_min}
