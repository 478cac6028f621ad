"""Exact linearization of the discrete residual operator.

The derivative is taken of the discrete equations themselves, so Newton
inherits quadratic local convergence and a finite-difference check of the
directional derivative is exact up to the quadratic remainder.  The operator
is applied matrix-free on the real half spectrum, with its coefficient fields
frozen once per solve.  A Newton solve reads q, H(q) and D_pH(q) off the
``terms`` record of the residual bundle that is its right-hand side, when
that record was taken at the same pair under the same LambdaData; every
other caller evaluates them afresh.  Its rows split as L = H + N: H is the
two decoupled implicit heat chains, N the coupling rows, and one helper
computes N for both the plain apply and the solve.  Every linear solve is
one restarted GMRES loop of this module on the right preconditioned
operator I + N H^-1, where H^-1 marches both chains on one batched real
transform of all their time slices.  The loop stops on its Arnoldi residual
estimate, which with right preconditioning from a zero start is the
residual of L w = rhs in exact arithmetic, so it makes no closing apply to
recheck it.  Each chain's recurrence, rescaled by powers of its factor c,
is a prefix sum in time: one cumsum between two table multiplies, in blocks
short enough that no weight c^-j exceeds 1e100, so nothing overflows.  One
apply of it takes 2d + 4 real field transforms: that forward transform of
the iterate, one inverse of (Dv, f) from the chain spectra, and the flux
divergence's forward and inverse pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    _M_FLOOR,
    _pair_terms,
    _PairTerms,
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
    problem: MFGProblem,
    lam_data: LambdaData,
    base: SolutionPair,
    terms: _PairTerms | None = None,
) -> _BaseCoefficients:
    """The coefficient fields at ``base``.

    ``terms`` are used when they were taken at ``base`` under this very
    ``lam_data``, and evaluated afresh otherwise, so they can never come from
    another pair or another lambda.
    """
    if terms is None or not terms.taken_at(lam_data, base):
        terms = _pair_terms(problem, lam_data, base)
    alpha = problem.alpha
    m = base.m.values
    q, h_val, dp_h = terms.q, terms.h, terms.dp_h
    m_safe = np.maximum(m, _M_FLOOR)
    ham = lam_data.hamiltonian
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
# On the Galerkin cross-check's right-hand side the solve meets 1e-10 after 2
# applies at the lambda = 1 base and 7 at the solved lambda = 0 base, where
# L w = rhs then holds to 1.4e-12 and 3.7e-11 relative.  The Arnoldi estimate
# goes on falling below that (1e-14 after 9 applies at lambda = 0), but the
# true residual of L w = rhs levels off near 2e-12, the roundoff of the 1/dt
# heat rows, since w = H^-1 y is formed apart from the apply; solve_linearized
# refuses an rtol below this floor.  Newton accepts a state on its own
# residual, so this bounds work, not the certificate.
_KRYLOV_RTOL = 1e-10
# The loop keeps restart + 1 basis vectors of the full unknown count, written
# only as it reaches them; a solve on the benchmark workloads takes at most 7
# applies, so 10 restarts none of them.
_GMRES_RESTART = 10
# Operator applies one solve may take before it fails: each restart cycle
# applies the operator at most restart times, and once more for the true
# residual it restarts from when it ends unconverged.
_MAX_APPLIES = 400
# Bound on the largest weight c^-j in one block of the heat-chain march.  A
# block's partial sums then stay below B * 1e100 times its largest datum,
# which leaves about 1e200 of headroom for the data below float64's 1.8e308.
_CHAIN_WEIGHT_MAX = 1e100


def _heat_chain_preconditioner(problem: MFGProblem):
    """Inverse H^-1 of the two decoupled implicit heat chains, on half spectra.

    Returns ``chains(rows)``, which maps a row vector [value rows | transport
    rows] to the half spectra, a (2, K, M) stack, of the (v, f) that solves
    the heat rows.  The value chain runs backward from the terminal row, the
    density chain forward from the initial row; both take one batched real
    transform and march together, the value chain in reversed time.  Mode by
    mode each chain is the affine recurrence x_n = c x_(n-1) + t_n from x_0 =
    t_0 = r_0, with t_n = s r_n, s = 1 / (1/dt + |omega|^2) and c = s / dt in
    (0, 1].  Rescaled, the recurrence is a prefix sum (Kogge & Stone 1973;
    Blelloch 1990): x_j = c^j sum_(i <= j) c^-i t_i, one cumsum in time
    between a multiply by a (B, M) table of s c^-j and one by a table of c^j.
    The block length B is the largest B <= K whose largest weight
    c_min^-(B - 1) stays at or below ``_CHAIN_WEIGHT_MAX``, so no weight and
    no partial sum overflows: the benchmark grids (33 and 65 slices) march
    in one block, d = 1 with N = 256, n_t = 256 and T = 0.05 in blocks of
    48.  With several blocks every block sums from a zero carry at once, the
    block ends take the true carry through x -> c^B x, and each block adds
    c^(j+1) times the end of the block before it to its slice j.
    """
    grid, time = problem.grid, problem.time
    mm, k, dt = grid.num_nodes, time.num_slices, time.dt
    _, ksq = _spectra(grid.dim, grid.points_per_dim)
    sym = 1.0 / (1.0 / dt + ksq)
    c = sym / dt
    # log(1/c_min) > 0, but it rounds to 0 on a vanishing dt: never divide by it
    # unless one block would be too long
    growth = -np.log(np.min(c))
    limit = np.log(_CHAIN_WEIGHT_MAX)
    block = k if growth * (k - 1) <= limit else 1 + int(limit / growth)
    n_blocks = -(-k // block)
    j = np.arange(block).reshape((block,) + (1,) * c.ndim)
    post = c**j  # c^j, and c^(j+1) = post[j+1] for the carry
    pre = sym / post  # s c^-j; the data row t_0 = r_0 takes weight 1
    pre[0] = 1.0
    carry = post[-1] * c  # c^B

    def chains(rows: np.ndarray) -> np.ndarray:
        # the spectra go straight into an array padded to whole blocks
        x = np.empty((2, n_blocks * block) + sym.shape, dtype=complex)
        spec = _rfft_stack(rows.reshape(2, k, mm), grid, out=x[:, :k])
        spec[0] = spec[0, ::-1]
        x[:, k:] = 0.0  # the padding never reaches a real slice; zeroed to stay finite
        blocks = x.reshape((2, n_blocks, block) + sym.shape)
        blocks *= pre
        blocks[:, 1:, 0] *= sym  # only the chains' first row is a data row
        np.cumsum(blocks, axis=2, out=blocks)
        blocks *= post
        ends = blocks[:, :, -1]
        for b in range(1, n_blocks):
            ends[:, b] += carry * ends[:, b - 1]
        blocks[:, 1:, :-1] += post[1:] * ends[:, :-1, None]
        spec[0] = spec[0, ::-1]
        return spec

    return chains


def _right_preconditioned_apply(problem: MFGProblem, coef: _BaseCoefficients, chains):
    """Matvec of L H^-1 = I + N H^-1 on a row vector y, with H^-1 = ``chains``.

    (Dv, f) come back from the chain spectra by one inverse transform, so N
    needs no forward transform of its own beyond the flux divergence's.
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
    H, so L = H + N with N the coupling rows, and :func:`_gmres` solves the
    right preconditioned system (I + N H^-1) y = rhs from y = 0 until its
    Arnoldi residual estimate is at most ``rtol`` |rhs|; then w = H^-1 y.
    rhs - (I + N H^-1) y is rhs - L w, so in exact arithmetic that estimate
    is the residual of L w = rhs.  One apply of I + N H^-1 takes 2d + 4 real
    field transforms: the chains' forward transform of y, one inverse of
    (Dv, f) from the chain spectra, and the flux divergence's transform
    pair.  The coefficients of L read q, H(q) and D_pH(q) off ``rhs.terms``,
    the record of the :func:`residual_full` evaluation that made ``rhs``,
    when it was taken at this ``base`` under this ``lam_data`` (the Newton
    corrector's case), and evaluate them afresh otherwise.  A solve that
    misses its tolerance raises :class:`LinearSolveError`; ``rtol`` below
    ``_KRYLOV_RTOL`` raises ValueError.
    """
    if rtol < _KRYLOV_RTOL:
        raise ValueError(
            f"rtol {rtol:.1e} is below the Krylov floor _KRYLOV_RTOL = {_KRYLOV_RTOL:.0e}"
        )
    k, mm = problem.time.num_slices, problem.grid.num_nodes
    n_dof = 2 * k * mm
    rhs_vec = bundle_to_vector(rhs)
    if not rhs_vec.any():
        return vector_to_perturbation(np.zeros(n_dof), problem)
    coef = _base_coefficients(problem, lam_data, base, rhs.terms)
    chains = _heat_chain_preconditioner(problem)
    y = _gmres(_right_preconditioned_apply(problem, coef, chains), rhs_vec, rtol)
    return vector_to_perturbation(_irfft_stack(chains(y), problem.grid).ravel(), problem)


def _gmres(apply, rhs: np.ndarray, rtol: float) -> np.ndarray:
    """Restarted GMRES(``_GMRES_RESTART``) for apply(y) = rhs from y = 0.

    Arnoldi orthogonalizes each new vector by block classical Gram-Schmidt
    with one re-orthogonalization, and Givens rotations keep the least
    squares residual |g_(j+1)| of the cycle at hand (Saad & Schultz 1986).
    The solve stops as soon as that estimate is at most rtol * |rhs|, which
    an exact breakdown meets with a zero estimate.  Only a cycle that ends
    unconverged applies the operator to the iterate, for the true residual
    it restarts from.  Raises :class:`LinearSolveError` when
    ``_MAX_APPLIES`` applies did not reach the target, and as soon as the
    estimate is NaN.  ``apply`` must return a new array: the loop
    orthogonalizes it in place.
    """
    rhs_norm = math.sqrt(rhs @ rhs)
    target = rtol * rhs_norm
    basis = np.empty((_GMRES_RESTART + 1, rhs.size))
    tri = np.zeros((_GMRES_RESTART, _GMRES_RESTART))
    y = np.zeros(rhs.size)
    residual, estimate, applies = rhs, rhs_norm, 0
    while applies < _MAX_APPLIES:
        basis[0] = residual / estimate
        rotations, g = [], [estimate]
        for j in range(min(_GMRES_RESTART, _MAX_APPLIES - applies)):
            w = apply(basis[j])
            applies += 1
            v = basis[: j + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            w_norm = math.sqrt(w @ w)
            col = (h + h2).tolist()
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = math.hypot(col[j], w_norm)
            if rho == 0.0:  # singular on the Krylov space: this cycle is stuck
                break
            c, s = col[j] / rho, w_norm / rho
            rotations.append((c, s))
            col[j] = rho
            tri[: j + 1, j] = col
            g.append(-s * g[j])
            g[j] *= c
            estimate = abs(g[j + 1])
            if not estimate > target:  # met, or NaN
                break
            basis[j + 1] = w / w_norm
        k = len(rotations)
        y += np.linalg.solve(tri[:k, :k], g[:k]) @ basis[:k]
        if not estimate > target or applies == _MAX_APPLIES:
            break
        residual = rhs - apply(y)
        applies += 1
        estimate = math.sqrt(residual @ residual)
        if not estimate > target:
            break
    if not estimate <= target:
        raise LinearSolveError(
            f"Krylov solve did not converge: relative residual estimate "
            f"{estimate / rhs_norm:.2e} > rtol {rtol:.1e} after {applies} applies"
        )
    return y
