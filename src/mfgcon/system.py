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

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .grids import (
    Field,
    PeriodicGrid,
    SpaceTimeField,
    TimeGrid,
    VectorField,
    _div_lap_stack,
    _grad_lap_stack,
    integrate,
)
from .hamiltonians import HamiltonianModel

__all__ = [
    "Potential",
    "MFGProblem",
    "SolutionPair",
    "LambdaData",
    "ResidualBundle",
    "NonpositiveDensityError",
    "congestion_ratio",
    "residual_hjb",
    "residual_fp",
    "residual_full",
]


class NonpositiveDensityError(ValueError):
    """A density sample was nonpositive where strict evaluation was requested."""

    def __init__(self, slice_index: int, node_index: int, value: float):
        self.slice_index = slice_index
        self.node_index = node_index
        self.value = value
        super().__init__(
            f"nonpositive density m={value:.3e} at slice {slice_index}, node {node_index}"
        )


@dataclass(frozen=True)
class Potential:
    """Separable coupling V(x, z) = v1(x) + v2(z) with v2 strictly increasing.

    Built-in v2 choices: arctan(z), linear coef*z, and power coef*z**exponent.
    """

    v1: Optional[Field] = None
    v2_kind: str = "arctan"
    coef: float = 1.0
    exponent: float = 2.0

    def __post_init__(self):
        if self.v2_kind not in ("arctan", "linear", "power"):
            raise ValueError(f"unknown v2 kind {self.v2_kind!r}")
        if self.v2_kind in ("linear", "power") and self.coef <= 0.0:
            raise ValueError("coef must be positive for an increasing coupling")
        if self.v2_kind == "power" and self.exponent < 1.0:
            raise ValueError("power coupling needs exponent >= 1")

    def _v2(self, z: np.ndarray) -> np.ndarray:
        if self.v2_kind == "arctan":
            return np.arctan(z)
        if self.v2_kind == "linear":
            return self.coef * z
        return self.coef * np.power(z, self.exponent)

    def _dv2(self, z: np.ndarray) -> np.ndarray:
        if self.v2_kind == "arctan":
            return 1.0 / (1.0 + z * z)
        if self.v2_kind == "linear":
            return np.full_like(np.asarray(z, dtype=float), self.coef)
        return self.coef * self.exponent * np.power(z, self.exponent - 1.0)

    def value(self, z: np.ndarray) -> np.ndarray:
        x_part = 0.0 if self.v1 is None else self.v1.values
        return x_part + self._v2(z)

    def dz(self, z: np.ndarray) -> np.ndarray:
        return self._dv2(z)

    def monotonicity_margin(self, z_lo: float, z_hi: float, n: int = 256) -> float:
        z = np.linspace(z_lo, z_hi, n)
        return float(np.min(self._dv2(z)))


@dataclass(frozen=True)
class MFGProblem:
    """All data of the congestion system on one space-time grid."""

    grid: PeriodicGrid
    time: TimeGrid
    alpha: float
    hamiltonian: HamiltonianModel
    b: VectorField
    potential: Potential
    psi: Field
    m0: Field
    k0: float = 0.0
    m_floor: float = 1e-10

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.b.grid != self.grid or self.psi.grid != self.grid or self.m0.grid != self.grid:
            raise ValueError("data fields must live on the problem grid")
        mass = integrate(self.m0)
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"m0 must have unit mass, integral is {mass!r}")
        m_min = float(np.min(self.m0.values))
        k0 = self.k0 if self.k0 > 0.0 else m_min
        if not 0.0 < k0 <= m_min:
            raise ValueError(f"need m0 >= k0 > 0, got k0={k0}, min m0={m_min}")
        object.__setattr__(self, "k0", k0)
        m_hi = float(np.max(self.m0.values)) * 2.0 + 1.0
        if self.potential.monotonicity_margin(0.5 * k0, m_hi) <= 0.0:
            raise ValueError("potential coupling must be strictly increasing in the density")
        if np.ndim(self.hamiltonian.weight) and (
            np.asarray(self.hamiltonian.weight).size != self.grid.num_nodes
        ):
            raise ValueError("Hamiltonian weight field does not match the grid")


@dataclass
class SolutionPair:
    """Candidate (u, m) on the problem's grids; the solver keeps m positive."""

    u: SpaceTimeField
    m: SpaceTimeField

    def copy(self) -> "SolutionPair":
        return SolutionPair(self.u.copy(), self.m.copy())

    def min_density(self) -> float:
        return float(np.min(self.m.values))


@dataclass(frozen=True)
class LambdaData:
    """Blended data at homotopy parameter lam in [0, 1].

    b -> (1-lam) b,  psi -> (1-lam) psi,  m0 -> (1-lam) m0 + lam,
    V -> (1-lam) V + lam arctan(z),  H -> the lambda blend of the model.
    At lam = 0 everything reduces to the original data.
    """

    lam: float
    hamiltonian: HamiltonianModel
    b_values: np.ndarray
    psi_values: np.ndarray
    m_init_values: np.ndarray
    potential: Potential

    @classmethod
    def from_problem(cls, problem: MFGProblem, lam: float) -> "LambdaData":
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {lam}")
        ham = problem.hamiltonian if lam == 0.0 else HamiltonianModel.blend(
            problem.hamiltonian, lam
        )
        return cls(
            lam=lam,
            hamiltonian=ham,
            b_values=(1.0 - lam) * problem.b.values,
            psi_values=(1.0 - lam) * problem.psi.values,
            m_init_values=(1.0 - lam) * problem.m0.values + lam,
            potential=problem.potential,
        )

    def potential_value(self, m: np.ndarray) -> np.ndarray:
        blended = (1.0 - self.lam) * self.potential.value(m)
        return blended + self.lam * np.arctan(m)

    def potential_dz(self, m: np.ndarray) -> np.ndarray:
        return (1.0 - self.lam) * self.potential.dz(m) + self.lam / (1.0 + m * m)


class ResidualBundle(NamedTuple):
    """The four rows of the residual operator: transport, value, initial, terminal."""

    fp: SpaceTimeField
    hjb: SpaceTimeField
    initial: Field
    terminal: Field

    def sup_norm(self) -> float:
        return max(
            self.fp.sup_norm(),
            self.hjb.sup_norm(),
            float(np.max(np.abs(self.initial.values))),
            float(np.max(np.abs(self.terminal.values))),
        )


def congestion_ratio(
    Du: VectorField, m, alpha: float, m_floor: float = 1e-10
) -> VectorField:
    """Rescaled momentum Q = Du / max(m, floor)^alpha entering every H evaluation."""
    m_values = m.values if isinstance(m, Field) else np.asarray(m, dtype=float)
    scale = np.maximum(m_values, m_floor) ** alpha
    return VectorField(Du.grid, Du.values / scale)


def _check_strict_density(m: np.ndarray, strict: bool) -> None:
    if strict and np.min(m) <= 0.0:
        k = int(np.argmin(m))
        n_slice, n_node = divmod(k, m.shape[1])
        raise NonpositiveDensityError(n_slice, n_node, float(m[n_slice, n_node]))


def _congestion_stack(du, m, alpha, m_floor):
    return du / np.maximum(m, m_floor) ** alpha


class _SharedTerms(NamedTuple):
    """Fields both residual rows evaluate at one pair."""

    du: np.ndarray      # (d, K, M) gradient of u
    lap_u: np.ndarray   # (K, M)
    q: np.ndarray       # (d, K, M) congestion ratio
    m_pow: np.ndarray   # (K, M) max(m, floor)^alpha


def _shared_terms(problem: MFGProblem, pair: SolutionPair, strict: bool) -> _SharedTerms:
    m = pair.m.values
    _check_strict_density(m, strict)
    d = problem.grid.dim
    du_lap = _grad_lap_stack(pair.u.values, problem.grid)
    m_pow = np.maximum(m, problem.m_floor) ** problem.alpha
    du = du_lap[:d]
    return _SharedTerms(du=du, lap_u=du_lap[d], q=du / m_pow, m_pow=m_pow)


def _hjb_rows(problem, lam_data, pair, terms: _SharedTerms) -> SpaceTimeField:
    dt = problem.time.dt
    u, m = pair.u.values, pair.m.values
    h_vals = lam_data.hamiltonian.value(terms.q)
    drift = np.einsum("dm,dkm->km", lam_data.b_values, terms.du)
    out = np.empty_like(u)
    out[:-1] = (
        (u[:-1] - u[1:]) / dt
        - terms.lap_u[:-1]
        + terms.m_pow[:-1] * h_vals[:-1]
        + drift[:-1]
        - lam_data.potential_value(m[:-1])
    )
    out[-1] = u[-1] - lam_data.psi_values
    return SpaceTimeField(problem.grid, problem.time, out)


def _fp_rows(problem, lam_data, pair, terms: _SharedTerms) -> SpaceTimeField:
    grid, dt = problem.grid, problem.time.dt
    m = pair.m.values
    dp_h = lam_data.hamiltonian.grad(terms.q)
    flux_m = np.empty((grid.dim + 1,) + m.shape)
    np.multiply(dp_h + lam_data.b_values[:, None, :], m, out=flux_m[: grid.dim])
    flux_m[grid.dim] = m
    lap_div = _div_lap_stack(flux_m, grid)  # Laplacian of m plus the flux divergence
    out = np.empty_like(m)
    out[1:] = (m[1:] - m[:-1]) / dt - lap_div[1:]
    out[0] = m[0] - lam_data.m_init_values
    return SpaceTimeField(grid, problem.time, out)


def residual_hjb(
    problem: MFGProblem, lam_data: LambdaData, pair: SolutionPair, strict: bool = True
) -> SpaceTimeField:
    """Backward-equation residual, slice by slice.

    Interior slice n carries (u^n - u^(n+1))/dt with all spatial terms on
    slice n; the last slice carries the terminal mismatch u(., T) - psi.
    """
    return _hjb_rows(problem, lam_data, pair, _shared_terms(problem, pair, strict))


def residual_fp(
    problem: MFGProblem, lam_data: LambdaData, pair: SolutionPair, strict: bool = True
) -> SpaceTimeField:
    """Forward transport residual in flux form.

    Interior slice n carries (m^n - m^(n-1))/dt with the flux divergence on
    slice n; slice 0 carries the initial mismatch m(., 0) - m_init.  The node
    sum of the spatial part vanishes identically, so a zero residual implies
    exact conservation of the initial mass.
    """
    return _fp_rows(problem, lam_data, pair, _shared_terms(problem, pair, strict))


def residual_full(
    problem: MFGProblem, lam_data: LambdaData, pair: SolutionPair, strict: bool = True
) -> ResidualBundle:
    """All four residual rows: transport first, then value, then the data rows.

    The density check, the gradient and Laplacian of u and the congestion
    ratio are computed once and shared by both rows.
    """
    terms = _shared_terms(problem, pair, strict)
    fp = _fp_rows(problem, lam_data, pair, terms)
    hjb = _hjb_rows(problem, lam_data, pair, terms)
    initial = Field(problem.grid, fp.values[0].copy())
    terminal = Field(problem.grid, hjb.values[-1].copy())
    return ResidualBundle(fp=fp, hjb=hjb, initial=initial, terminal=terminal)
