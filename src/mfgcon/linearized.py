"""Exact linearization of the discrete residual operator.

The derivative is taken of the discrete equations themselves, so Newton
inherits quadratic local convergence and a finite-difference check of the
directional derivative is exact up to the quadratic remainder.  The operator
is applied matrix-free on the real half spectrum, with its coefficient fields
frozen once per solve.  Its rows split as L = H + N: H is the two decoupled
implicit heat chains, N the coupling rows, and one helper computes N for both
the plain apply and the solve.  Every linear solve is gmres on the right
preconditioned operator I + N H^-1, where H^-1 marches both chains on one
batched rfftn of all their time slices.  One apply of it takes 2d + 4 real
field transforms: that forward transform of the iterate, one inverse of
(Dv, f) from the chain spectra, and the flux divergence's forward and inverse
pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse.linalg as spla

from .grids import (
    SpaceTimeField,
    _apply_symbols,
    _div_spectrum,
    _grad_lap_stack,
    _irfft_stack,
    _rfft_stack,
    _spectra,
)
from .system import (
    LambdaData,
    MFGProblem,
    ResidualBundle,
    SolutionPair,
    _shared_terms,
)

__all__ = [
    "Perturbation",
    "LinearSolveError",
    "apply_L",
    "solve_linearized",
    "vector_to_perturbation",
    "bundle_to_vector",
]


class Perturbation(NamedTuple):
    """Direction (v, f) in value-function and density components."""

    v: SpaceTimeField
    f: SpaceTimeField

    def sup_norm(self) -> float:
        return max(self.v.sup_norm(), self.f.sup_norm())


class LinearSolveError(RuntimeError):
    """The inner linear solve did not reach the requested tolerance."""


@dataclass
class _BaseCoefficients:
    """Frozen per-slice coefficient fields of the linearization at a base pair."""

    q: np.ndarray             # (d, K, M) congestion ratio
    flux_a: np.ndarray        # (K, M) m^(1-alpha) times the isotropic Hessian coefficient
    flux_b: np.ndarray        # (K, M) m^(1-alpha) times the rank-one Hessian coefficient
    drift_coef: np.ndarray    # (d, K, M) flux coefficient in front of f
    transport: np.ndarray     # (d, K, M) D_pH(q) + b, the value equation's drift
    zero_order_u: np.ndarray  # (K, M) coefficient of f in the value equation


def _base_coefficients(
    problem: MFGProblem, lam_data: LambdaData, base: SolutionPair
) -> _BaseCoefficients:
    alpha = problem.alpha
    m = base.m.values
    q = _shared_terms(problem, base).q
    m_safe = np.maximum(m, problem.m_floor)
    ham = lam_data.hamiltonian
    h_val = ham.value(q)
    dp_h = ham.grad(q)
    hess_a, hess_b = ham.hess_coeffs(q)
    q_sq = np.sum(q * q, axis=0)
    hess_q = (hess_a + hess_b * q_sq) * q  # D^2H . q, radial for this family
    q_dot_dp = np.sum(q * dp_h, axis=0)
    zero_order_u = alpha * m_safe ** (alpha - 1.0) * (h_val - q_dot_dp) - lam_data.potential_dz(m)
    m_om = m_safe ** (1.0 - alpha)
    b = lam_data.b_values[:, None, :]
    return _BaseCoefficients(
        q=q,
        flux_a=m_om * hess_a,
        flux_b=m_om * hess_b,
        drift_coef=dp_h - alpha * hess_q + b,
        transport=dp_h + b,
        zero_order_u=zero_order_u,
    )


def apply_L(
    problem: MFGProblem,
    lam_data: LambdaData,
    base: SolutionPair,
    direction: Perturbation,
) -> ResidualBundle:
    """Directional derivative of the residual at ``base`` along ``direction``.

    Rows mirror the residual layout: transport rows first (slice 0 is the
    initial-data row f(., 0)), then value rows (last slice is the terminal
    row v(., T)).
    """
    coef = _base_coefficients(problem, lam_data, base)
    fp, hjb = _apply_rows(problem, coef, direction.v.values, direction.f.values)
    grid, time = problem.grid, problem.time
    return ResidualBundle(
        fp=SpaceTimeField(grid, time, fp), hjb=SpaceTimeField(grid, time, hjb)
    )


def _apply_rows(
    problem: MFGProblem, coef: _BaseCoefficients, v: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Transport and value rows of the linearization applied to (v, f).

    The rows are the two implicit heat chains plus the coupling rows of
    :func:`_coupling_rows`; v and f take one forward transform as a stack for
    the gradient of v and both Laplacians.
    """
    grid, dt = problem.grid, problem.time.dt
    d = grid.dim
    dv_lap = _grad_lap_stack(np.stack([v, f]), grid)
    dv, (lap_v, lap_f) = dv_lap[:d, 0], dv_lap[d]
    hjb, fp = _coupling_rows(problem, coef, dv, f)
    fp[1:] += (f[1:] - f[:-1]) / dt - lap_f[1:]
    fp[0] = f[0]
    hjb[:-1] += (v[:-1] - v[1:]) / dt - lap_v[:-1]
    hjb[-1] = v[-1]
    return fp, hjb


def _coupling_rows(
    problem: MFGProblem, coef: _BaseCoefficients, dv: np.ndarray, f: np.ndarray
) -> np.ndarray:
    """Coupling part N of the rows at (Dv, f): everything but the heat chains.

    Returns a (2, K, N**d) stack of value rows, ``zero_order_u f + transport .
    Dv``, then transport rows, ``-div(drift_coef f + flux_a Dv + flux_b (q .
    Dv) q)``; the terminal value row and the initial transport row are zero.
    The d flux components take one forward transform as a stack and their
    divergence one inverse.
    """
    grid = problem.grid
    q_dot_dv = np.sum(coef.q * dv, axis=0)
    flux = coef.drift_coef * f + coef.flux_a * dv + (coef.flux_b * q_dot_dv) * coef.q
    div_flux = _irfft_stack(_div_spectrum(_rfft_stack(flux, grid), grid), grid)
    rows = np.zeros((2,) + f.shape)
    rows[0, :-1] = coef.zero_order_u[:-1] * f[:-1] + np.sum(coef.transport * dv, axis=0)[:-1]
    rows[1, 1:] = -div_flux[1:]
    return rows


# ---------------------------------------------------------------------------
# vector packing: x = [v slices | f slices], rows = [value rows | transport rows]
# ---------------------------------------------------------------------------


def vector_to_perturbation(x: np.ndarray, problem: MFGProblem) -> Perturbation:
    k, mm = problem.time.num_slices, problem.grid.num_nodes
    half = k * mm
    v = SpaceTimeField(problem.grid, problem.time, x[:half].reshape(k, mm).copy())
    f = SpaceTimeField(problem.grid, problem.time, x[half:].reshape(k, mm).copy())
    return Perturbation(v=v, f=f)


def bundle_to_vector(bundle: ResidualBundle) -> np.ndarray:
    return np.concatenate([bundle.hjb.values.ravel(), bundle.fp.values.ravel()])


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------


# Default tolerance of a linear solve and the floor of Newton's forcing term.
# On the Galerkin cross-check's right-hand side gmres meets 1e-10 after 3
# applies at the lambda = 1 base and 8 at the solved lambda = 0 base, where
# L w = rhs then holds to 1.4e-12 and 3.7e-11 relative.  Tighter tolerances are
# reached (1e-14 after 118 applies at lambda = 0) but buy nothing: w = H^-1 y
# is formed apart from the apply, and the residual of L w = rhs levels off
# near 1.2e-12, the roundoff of the 1/dt heat rows.  Newton accepts a state on
# its own residual, so this bounds work, not the certificate.
_KRYLOV_RTOL = 1e-10
# gmres keeps restart + 1 basis vectors of the full unknown count; a solve on
# the benchmark workloads takes at most 8 applies, so 10 restarts none of them.
_GMRES_RESTART = 10
# Operator applies one solve may take before it fails: each restart cycle
# applies the operator restart times, plus once for its true residual.
_MAX_APPLIES = 400


def _heat_chain_preconditioner(problem: MFGProblem):
    """Inverse H^-1 of the two decoupled implicit heat chains, on half spectra.

    Returns ``chains(rows)``, which maps a row vector [value rows | transport
    rows] to the half spectra, a (2, K, M) stack, of the (v, f) that solves
    the heat rows.  The value chain runs backward from the terminal row, the
    density chain forward from the initial row; each step divides by
    1/dt + |omega|^2 mode by mode.  Both chains take one batched rfftn and
    march together, the value chain in reversed time.
    """
    grid, time = problem.grid, problem.time
    mm, k, dt = grid.num_nodes, time.num_slices, time.dt
    _, ksq = _spectra(grid.dim, grid.points_per_dim)
    sym = 1.0 / (1.0 / dt + ksq)

    def chains(rows: np.ndarray) -> np.ndarray:
        spec = _rfft_stack(rows.reshape(2, k, mm), grid)
        spec[0] = spec[0, ::-1]
        for n in range(1, k):  # the first row of each chain is a data row
            spec[:, n] = sym * (spec[:, n] + spec[:, n - 1] / dt)
        spec[0] = spec[0, ::-1]
        return spec

    return chains


def _right_preconditioned_apply(problem: MFGProblem, coef: _BaseCoefficients, chains):
    """Matvec of L H^-1 = I + N H^-1 on a row vector y, with H^-1 = ``chains``.

    (Dv, f) come back from the chain spectra by one irfftn, so N needs no
    forward transform of its own beyond the flux divergence's.
    """
    grid = problem.grid
    d = grid.dim
    ideriv, _ = _spectra(d, grid.points_per_dim)

    def apply(y: np.ndarray) -> np.ndarray:
        spec = chains(y)
        dv_f = _irfft_stack(np.concatenate([_apply_symbols(ideriv, spec[0]), spec[1:]]), grid)
        return y + _coupling_rows(problem, coef, dv_f[:d], dv_f[d]).ravel()

    return apply


def solve_linearized(
    problem: MFGProblem,
    lam_data: LambdaData,
    base: SolutionPair,
    rhs: ResidualBundle,
    rtol: float = _KRYLOV_RTOL,
) -> Perturbation:
    """Solve the linearized system L w = rhs for the direction w = (v, f).

    ``rhs`` uses the residual row layout.  The heat rows of L are the chains
    H, so L = H + N with N the coupling rows, and gmres solves the right
    preconditioned system (I + N H^-1) y = rhs to the relative tolerance
    ``rtol``; then w = H^-1 y.  Its residual is the true residual of L w =
    rhs.  One apply of I + N H^-1 takes 2d + 4 real field transforms: the
    chains' rfftn of y, one irfftn of (Dv, f) from the chain spectra, and the
    flux divergence's transform pair.  A solve that misses its tolerance
    raises :class:`LinearSolveError`.
    """
    k, mm = problem.time.num_slices, problem.grid.num_nodes
    n_dof = 2 * k * mm
    rhs_vec = bundle_to_vector(rhs)
    if not rhs_vec.any():
        return vector_to_perturbation(np.zeros(n_dof), problem)
    coef = _base_coefficients(problem, lam_data, base)
    chains = _heat_chain_preconditioner(problem)
    coupled = _right_preconditioned_apply(problem, coef, chains)
    op = spla.LinearOperator((n_dof, n_dof), matvec=coupled, dtype=float)
    y, info = spla.gmres(
        op,
        rhs_vec,
        rtol=rtol,
        restart=_GMRES_RESTART,
        maxiter=_MAX_APPLIES // (_GMRES_RESTART + 1),
    )
    if info != 0:
        raise LinearSolveError(f"Krylov solve did not converge (info={info})")
    return vector_to_perturbation(_irfft_stack(chains(y), problem.grid).ravel(), problem)
