"""Fourier-Galerkin reduction of the linearized system and its shooting solve.

Projecting the linearized equations onto finitely many Fourier modes yields a
linear ODE system in the coefficient vectors A (density direction) and B
(value direction).  Half the boundary data is initial (A at t = 0), half
terminal (B at t = T), so the solve is completed by the shooting map that
sends initial coefficients to (A(0), B(T)): its invertibility is exactly the
injectivity argument behind uniqueness, and its smallest singular value is
monitored.  This path cross-validates the monolithic linear solve at small
mode counts; it is not the production solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import PeriodicGrid, SpaceTimeField
from .linearized import LinearizedRHS, Perturbation, _base_coefficients
from .system import LambdaData, MFGProblem, SolutionPair

__all__ = [
    "FourierBasis",
    "GalerkinSystem",
    "ShootingSingularError",
    "assemble_galerkin_system",
    "shooting_matrix",
    "solve_linearized_galerkin",
]


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

    With K the stiffness matrix and the slice-dependent blocks P, S, R, G,
    the coefficient ODE reads

        A' = h_k - (K + P(t)) A - S(t) B
        B' = g_k + (K + R(t)) B + G(t) A.
    """

    basis: FourierBasis
    times: np.ndarray
    stiffness: np.ndarray   # (n, n)
    p_blocks: np.ndarray    # (K+1, n, n) transport against De_k in the density rows
    s_blocks: np.ndarray    # (K+1, n, n) value-gradient coupling in the density rows
    r_blocks: np.ndarray    # (K+1, n, n) transport in the value rows
    g_blocks: np.ndarray    # (K+1, n, n) density coupling in the value rows

    def _interp(self, blocks: np.ndarray, t: float) -> np.ndarray:
        ts = self.times
        if t <= ts[0]:
            return blocks[0]
        if t >= ts[-1]:
            return blocks[-1]
        j = int(np.searchsorted(ts, t) - 1)
        w = (t - ts[j]) / (ts[j + 1] - ts[j])
        return (1.0 - w) * blocks[j] + w * blocks[j + 1]

    def rhs_matrix(self, t: float) -> np.ndarray:
        """Coefficient matrix of the stacked homogeneous system y' = M(t) y."""
        n = self.basis.n_modes
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = -(self.stiffness + self._interp(self.p_blocks, t))
        m[:n, n:] = -self._interp(self.s_blocks, t)
        m[n:, n:] = self.stiffness + self._interp(self.r_blocks, t)
        m[n:, :n] = self._interp(self.g_blocks, t)
        return m


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
        times=problem.time.times(),
        stiffness=stiffness,
        p_blocks=p_blocks,
        s_blocks=s_blocks,
        r_blocks=r_blocks,
        g_blocks=g_blocks,
    )


def _rk4_propagate(system: GalerkinSystem, y0: np.ndarray, forcing=None) -> np.ndarray:
    """Classical fixed-step RK4 over the solver slices; records y at every slice.

    ``y0`` may be a vector or a matrix of stacked columns.  ``forcing`` is an
    optional callable t -> vector added to the right-hand side.
    """
    ts = system.times
    y = np.array(y0, dtype=float)
    out = np.empty((len(ts),) + y.shape)
    out[0] = y

    def rhs(t, state):
        val = system.rhs_matrix(t) @ state
        if forcing is not None:
            add = forcing(t)
            val = val + (add if state.ndim == 1 else add[:, None])
        return val

    for j in range(len(ts) - 1):
        t, dt = ts[j], ts[j + 1] - ts[j]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise FloatingPointError(f"integrator produced non-finite values at t={ts[j+1]}")
        out[j + 1] = y
    return out


def shooting_matrix(system: GalerkinSystem) -> np.ndarray:
    """The linear map (A(0), B(0)) -> (A(0), B(T)) of the homogeneous system.

    Columns come from propagating the unit initial vectors; the first block
    row is the identity on A(0) by construction.  Surjectivity of this map is
    what makes the split initial/terminal data solvable, and it is equivalent
    to injectivity.
    """
    n = system.basis.n_modes
    traj = _rk4_propagate(system, np.eye(2 * n))
    phi = np.empty((2 * n, 2 * n))
    phi[:n] = np.eye(2 * n)[:n]
    phi[n:] = traj[-1][n:]
    return phi


def solve_linearized_galerkin(
    problem: MFGProblem,
    lam_data: LambdaData,
    base: SolutionPair,
    basis: FourierBasis,
    rhs: LinearizedRHS,
    sigma_tol: float = 1e-12,
):
    """Shooting solve of the projected linearized system with split data.

    The particular solution starts from zero coefficients; the homogeneous
    correction fixes A(0) to the projected initial data and shoots for the
    projected terminal data.  Returns (perturbation, info) with the smallest
    singular value of the shooting matrix in ``info``; the coefficient paths
    are ``basis.project`` of the perturbation's slices.
    """
    system = assemble_galerkin_system(problem, lam_data, base, basis)
    n = basis.n_modes
    hv = basis.project(rhs.h.values)   # (K+1, n)
    gv = basis.project(rhs.g.values)
    ts = system.times

    def forcing(t: float) -> np.ndarray:
        if t <= ts[0]:
            comp_h, comp_g = hv[0], gv[0]
        elif t >= ts[-1]:
            comp_h, comp_g = hv[-1], gv[-1]
        else:
            j = int(np.searchsorted(ts, t) - 1)
            w = (t - ts[j]) / (ts[j + 1] - ts[j])
            comp_h = (1.0 - w) * hv[j] + w * hv[j + 1]
            comp_g = (1.0 - w) * gv[j] + w * gv[j + 1]
        return np.concatenate([comp_h, comp_g])

    a_target = basis.project(rhs.f0.values)
    b_target = basis.project(rhs.vT.values)

    particular = _rk4_propagate(system, np.zeros(2 * n), forcing)
    phi = shooting_matrix(system)
    sigma_min = float(np.linalg.svd(phi, compute_uv=False)[-1])
    if sigma_min <= sigma_tol:
        raise ShootingSingularError(sigma_min)
    phi_ba = phi[n:, :n]
    phi_bb = phi[n:, n:]
    beta = np.linalg.solve(phi_bb, b_target - particular[-1][n:] - phi_ba @ a_target)

    y0 = np.concatenate([a_target, beta])
    traj = _rk4_propagate(system, y0, forcing)
    grid, time = problem.grid, problem.time
    pert = Perturbation(
        v=SpaceTimeField(grid, time, basis.reconstruct(traj[:, n:])),
        f=SpaceTimeField(grid, time, basis.reconstruct(traj[:, :n])),
    )
    return pert, {"sigma_min": sigma_min}
