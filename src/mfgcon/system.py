"""Problem data and the discrete residual of the coupled forward-backward system.

The unknowns are the value function u (backward equation, terminal datum) and
the density m (forward transport equation, initial datum).  Both equations are
discretized with implicit Euler in their natural time direction and spectral
space operators; the transport term is kept in divergence (flux) form so that
its node sum vanishes identically and discrete mass conservation is exact.

The homotopy family blends the Hamiltonian, drift, potential, terminal cost
and initial density between the target data (lam = 0) and a trivially solvable
endpoint (lam = 1).
"""

from __future__ import annotations

import numpy as np

from .grids import (
    PeriodicGrid,
    SpaceTimeField,
    TimeGrid,
    _Frozen,
    _div_lap_stack,
    _grad_lap_stack,
    integrate,
)
from .hamiltonians import HamiltonianModel

# Floor under m in the powers m^alpha and m^(alpha-1).  It sits far below
# the default m_positivity_margin (1e-6) that the solver keeps every density
# above, so it leaves solver states alone; it keeps the powers finite where
# the estimate suite reads a stored density that reaches zero.
_M_FLOOR = 1e-10

__all__ = [
    "Potential",
    "MFGProblem",
    "SolutionPair",
    "LambdaData",
    "ResidualBundle",
    "NonpositiveDensityError",
    "residual_full",
]


class NonpositiveDensityError(ValueError):
    """A density sample was nonpositive; the residual and its linearization need m > 0."""

    def __init__(self, slice_index: int, node_index: int, value: float):
        self.slice_index = slice_index
        self.node_index = node_index
        self.value = value
        super().__init__(
            f"nonpositive density m={value:.3e} at slice {slice_index}, node {node_index}"
        )


class Potential(_Frozen):
    """Separable coupling V(x, z) = v1(x) + v2(z) with v2 strictly increasing.

    Built-in v2 choices: arctan(z), linear coef*z, and power coef*z**exponent.
    v1 holds the node values of v1(x), shape (N**d,), or is None for v1 = 0.
    """

    def __init__(
        self,
        v1: np.ndarray | None = None,
        v2_kind: str = "arctan",
        coef: float = 1.0,
        exponent: float = 2.0,
    ):
        if v2_kind not in ("arctan", "linear", "power"):
            raise ValueError(f"unknown v2 kind {v2_kind!r}")
        if v2_kind in ("linear", "power") and coef <= 0.0:
            raise ValueError("coef must be positive for an increasing coupling")
        if v2_kind == "power" and exponent < 1.0:
            raise ValueError("power coupling needs exponent >= 1")
        vars(self).update(v1=v1, v2_kind=v2_kind, coef=coef, exponent=exponent)

    def _v2(self, z: np.ndarray) -> np.ndarray:
        if self.v2_kind == "arctan":
            return np.arctan(z)
        if self.v2_kind == "linear":
            return self.coef * z
        return self.coef * np.power(z, self.exponent)

    def value(self, z: np.ndarray) -> np.ndarray:
        x_part = 0.0 if self.v1 is None else self.v1
        return x_part + self._v2(z)

    def dz(self, z: np.ndarray) -> np.ndarray:
        if self.v2_kind == "arctan":
            return 1.0 / (1.0 + z * z)
        if self.v2_kind == "linear":
            return np.full_like(np.asarray(z, dtype=float), self.coef)
        return self.coef * self.exponent * np.power(z, self.exponent - 1.0)

    def monotonicity_margin(self, z_lo: float, z_hi: float) -> float:
        """Smallest dV/dz on 256 points of [z_lo, z_hi]."""
        return float(np.min(self.dz(np.linspace(z_lo, z_hi, 256))))


class MFGProblem(_Frozen):
    """All data of the congestion system on one space-time grid.

    The data fields are float arrays of node values on ``grid``: the drift
    ``b`` has shape (d, N**d), the terminal cost ``psi`` and the initial
    density ``m0`` have shape (N**d,), and the Hamiltonian weight is a scalar
    or has shape (N**d,).
    """

    def __init__(
        self,
        grid: PeriodicGrid,
        time: TimeGrid,
        alpha: float,
        hamiltonian: HamiltonianModel,
        b: np.ndarray,
        potential: Potential,
        psi: np.ndarray,
        m0: np.ndarray,
    ):
        if alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        nodes = (grid.num_nodes,)
        v1, weight = potential.v1, hamiltonian.weight
        if (
            np.shape(b) != (grid.dim,) + nodes
            or np.shape(psi) != nodes
            or np.shape(m0) != nodes
            or (v1 is not None and np.shape(v1) != nodes)
            or (np.ndim(weight) and np.shape(weight) != nodes)
        ):
            raise ValueError("data fields must live on the problem grid")
        mass = integrate(m0, grid)
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"m0 must have unit mass, integral is {mass!r}")
        m_min = float(np.min(m0))
        if not m_min > 0.0:
            raise ValueError(f"m0 must be positive, min m0={m_min}")
        m_hi = float(np.max(m0)) * 2.0 + 1.0
        if potential.monotonicity_margin(0.5 * m_min, m_hi) <= 0.0:
            raise ValueError("potential coupling must be strictly increasing in the density")
        vars(self).update(
            grid=grid, time=time, alpha=alpha, hamiltonian=hamiltonian, b=b,
            potential=potential, psi=psi, m0=m0,
        )


class SolutionPair:
    """Candidate (u, m) on the problem's grids; the solver keeps m positive."""

    def __init__(self, u: SpaceTimeField, m: SpaceTimeField):
        self.u = u
        self.m = m

    def copy(self) -> "SolutionPair":
        return SolutionPair(self.u.copy(), self.m.copy())

    def min_density(self) -> float:
        return float(np.min(self.m.values))


class LambdaData(_Frozen):
    """Blended data at homotopy parameter lam in [0, 1].

    b -> (1-lam) b,  psi -> (1-lam) psi,  m0 -> (1-lam) m0 + lam,
    V -> (1-lam) V + lam arctan(z),  H -> the power model with weight
    (1-lam) c + lam.
    At lam = 0 everything reduces to the original data.
    """

    def __init__(
        self,
        lam: float,
        hamiltonian: HamiltonianModel,
        b_values: np.ndarray,
        psi_values: np.ndarray,
        m_init_values: np.ndarray,
        potential: Potential,
    ):
        vars(self).update(
            lam=lam, hamiltonian=hamiltonian, b_values=b_values, psi_values=psi_values,
            m_init_values=m_init_values, potential=potential,
        )

    @classmethod
    def from_problem(cls, problem: MFGProblem, lam: float) -> "LambdaData":
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {lam}")
        return cls(
            lam=lam,
            hamiltonian=HamiltonianModel.blend(problem.hamiltonian, lam),
            b_values=(1.0 - lam) * problem.b,
            psi_values=(1.0 - lam) * problem.psi,
            m_init_values=(1.0 - lam) * problem.m0 + lam,
            potential=problem.potential,
        )

    def potential_value(self, m: np.ndarray) -> np.ndarray:
        blended = (1.0 - self.lam) * self.potential.value(m)
        return blended + self.lam * np.arctan(m)

    def potential_dz(self, m: np.ndarray) -> np.ndarray:
        return (1.0 - self.lam) * self.potential.dz(m) + self.lam / (1.0 + m * m)


class ResidualBundle(_Frozen):
    """The residual rows: transport (slice 0 is the initial-data row), then
    value (the last slice is the terminal-data row).  ``terms`` is the
    evaluation that produced them, on the bundles :func:`residual_full`
    returns, and None on every other bundle."""

    def __init__(self, fp: SpaceTimeField, hjb: SpaceTimeField, terms: _PairTerms | None = None):
        vars(self).update(fp=fp, hjb=hjb, terms=terms)

    def sup_norm(self) -> float:
        return max(self.fp.sup_norm(), self.hjb.sup_norm())


def _check_positive_density(m: np.ndarray) -> None:
    if np.min(m) <= 0.0:
        k = int(np.argmin(m))
        n_slice, n_node = divmod(k, m.shape[1])
        raise NonpositiveDensityError(n_slice, n_node, float(m[n_slice, n_node]))


class _PairTerms(_Frozen):
    """The fields one evaluation computes at one pair under one LambdaData.

    The residual rows, the linearization's coefficients and the particle
    drift all read them.  The pair's arrays and the data are kept so that
    :meth:`taken_at` can tell by identity whether the terms belong to a given
    pair and data.
    """

    def __init__(
        self,
        lam_data: LambdaData,
        u: np.ndarray,
        m: np.ndarray,
        du: np.ndarray,     # (d, K, M) gradient of u
        lap_u: np.ndarray,  # (K, M)
        q: np.ndarray,      # (d, K, M) congestion ratio
        m_pow: np.ndarray,  # (K, M) max(m, floor)^alpha
        h: np.ndarray,      # (K, M) H(q)
        dp_h: np.ndarray,   # (d, K, M) D_pH(q)
    ):
        vars(self).update(
            lam_data=lam_data, u=u, m=m, du=du, lap_u=lap_u, q=q, m_pow=m_pow, h=h, dp_h=dp_h
        )

    def taken_at(self, lam_data: LambdaData, pair: SolutionPair) -> bool:
        return self.lam_data is lam_data and self.u is pair.u.values and self.m is pair.m.values


def _pair_terms(problem: MFGProblem, lam_data: LambdaData, pair: SolutionPair) -> _PairTerms:
    u, m = pair.u.values, pair.m.values
    _check_positive_density(m)
    d = problem.grid.dim
    du_lap = _grad_lap_stack(u, problem.grid)
    m_pow = np.maximum(m, _M_FLOOR) ** problem.alpha
    du = du_lap[:d]
    q = du / m_pow
    ham = lam_data.hamiltonian
    return _PairTerms(lam_data, u, m, du, du_lap[d], q, m_pow, ham.value(q), ham.grad(q))


def _hjb_rows(problem: MFGProblem, terms: _PairTerms) -> SpaceTimeField:
    dt = problem.time.dt
    lam_data, u, m = terms.lam_data, terms.u, terms.m
    drift = np.einsum("dm,dkm->km", lam_data.b_values, terms.du)
    out = np.empty_like(u)
    out[:-1] = (
        (u[:-1] - u[1:]) / dt
        - terms.lap_u[:-1]
        + terms.m_pow[:-1] * terms.h[:-1]
        + drift[:-1]
        - lam_data.potential_value(m[:-1])
    )
    out[-1] = u[-1] - lam_data.psi_values
    return SpaceTimeField(problem.grid, problem.time, out)


def _fp_rows(problem: MFGProblem, terms: _PairTerms) -> SpaceTimeField:
    grid, dt = problem.grid, problem.time.dt
    lam_data, m = terms.lam_data, terms.m
    flux_m = np.empty((grid.dim + 1,) + m.shape)
    np.multiply(terms.dp_h + lam_data.b_values[:, None, :], m, out=flux_m[: grid.dim])
    flux_m[grid.dim] = m
    lap_div = _div_lap_stack(flux_m, grid)  # Laplacian of m plus the flux divergence
    out = np.empty_like(m)
    out[1:] = (m[1:] - m[:-1]) / dt - lap_div[1:]
    out[0] = m[0] - lam_data.m_init_values
    return SpaceTimeField(grid, problem.time, out)


def residual_full(
    problem: MFGProblem, lam_data: LambdaData, pair: SolutionPair
) -> ResidualBundle:
    """The residual rows, transport first, then value.

    Transport slice n >= 1 carries (m^n - m^(n-1))/dt with the flux divergence
    on slice n, and slice 0 the initial mismatch m(., 0) - m_init; the node
    sum of the spatial part vanishes identically, so a zero residual conserves
    the initial mass exactly.  Value slice n < N_t carries (u^n - u^(n+1))/dt
    with all spatial terms on slice n, and the last slice the terminal
    mismatch u(., T) - psi.  The density check, the gradient and Laplacian of
    u, the congestion ratio, H(q) and D_pH(q) are computed once, by
    :func:`_pair_terms`, and both rows read them.  The bundle keeps that
    record as its ``terms``, so that a linear solve at the same pair and data
    need not evaluate them again.
    """
    terms = _pair_terms(problem, lam_data, pair)
    return ResidualBundle(fp=_fp_rows(problem, terms), hjb=_hjb_rows(problem, terms), terms=terms)
