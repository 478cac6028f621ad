"""Uniform periodic grids on the unit torus and spectral calculus over them.

All spatial operators (gradient, divergence, Laplacian, heat propagator) act
in Fourier space.  On band-limited data they are exact up to roundoff, which
provides the discrete identities the rest of the package leans on: summation
by parts between gradient and divergence, exact mass conservation of the heat
flow, and Laplacian == divergence(gradient).

Fields are real, so the spectral layer works on the half spectrum: rfftn
keeps the N//2 + 1 nonnegative frequencies of the last axis, and every
symbol is stored cut to that half.  Stacks of fields (time slices, vector
components) go through one batched transform.  The fused kernels give each
field a single forward transform per evaluation: _grad_lap_stack returns
gradient and Laplacian from one spectrum, and _div_lap_stack forms
Laplacian plus flux divergence in spectral space before one inverse.

Fields store their node samples as flat float64 arrays of length N**d in
row-major node order; shaped views are taken internally for the FFTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PeriodicGrid",
    "TimeGrid",
    "Field",
    "VectorField",
    "SpaceTimeField",
    "gradient",
    "divergence",
    "laplacian",
    "integrate",
    "heat_step",
    "heat_smoothing_norm",
    "fourier_interpolate",
]


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on [0, 1)^d with periodic identification, d in {1, 2}.

    Nodes sit at x_i = i * h with h = 1/N; x + 1 is identified with x.
    N is restricted to powers of two for FFT simplicity.
    """

    dim: int
    points_per_dim: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        n = self.points_per_dim
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_dim must be a power of two >= 4, got {n}")

    @property
    def spacing(self) -> float:
        return 1.0 / self.points_per_dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * self.dim

    @property
    def num_nodes(self) -> int:
        return self.points_per_dim**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of shape ``self.shape``, one per axis."""
        x = np.arange(self.points_per_dim) * self.spacing
        if self.dim == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with N_t steps, so N_t + 1 slices."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def num_slices(self) -> int:
        return self.steps + 1

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


@dataclass
class Field:
    """Scalar node samples on a periodic grid (flat array of length N**d)."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.grid.num_nodes)

    @classmethod
    def constant(cls, grid: PeriodicGrid, value: float) -> "Field":
        return cls(grid, np.full(grid.num_nodes, float(value)))

    @classmethod
    def from_function(cls, grid: PeriodicGrid, fn) -> "Field":
        """Sample ``fn(*coords)`` on the grid nodes."""
        return cls(grid, np.asarray(fn(*grid.coordinates()), dtype=float).ravel())

    def shaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


@dataclass
class VectorField:
    """d scalar components on one grid, stored as a (d, N**d) array."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(
            self.grid.dim, self.grid.num_nodes
        )

    @classmethod
    def zero(cls, grid: PeriodicGrid) -> "VectorField":
        return cls(grid, np.zeros((grid.dim, grid.num_nodes)))

    @classmethod
    def from_components(cls, comps: list[Field]) -> "VectorField":
        grid = comps[0].grid
        if any(c.grid != grid for c in comps):
            raise ValueError("component grids mismatch")
        if len(comps) != grid.dim:
            raise ValueError(f"expected {grid.dim} components, got {len(comps)}")
        return cls(grid, np.stack([c.values for c in comps]))

    def component(self, axis: int) -> Field:
        return Field(self.grid, self.values[axis])


@dataclass
class SpaceTimeField:
    """Time-indexed stack of fields: values has shape (N_t + 1, N**d)."""

    grid: PeriodicGrid
    time: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(
            self.time.num_slices, self.grid.num_nodes
        )

    @classmethod
    def zeros(cls, grid: PeriodicGrid, time: TimeGrid) -> "SpaceTimeField":
        return cls(grid, time, np.zeros((time.num_slices, grid.num_nodes)))

    @classmethod
    def from_slice_function(cls, grid, time, fn) -> "SpaceTimeField":
        """Sample ``fn(t, *coords)`` at every slice time."""
        coords = grid.coordinates()
        rows = [np.asarray(fn(t, *coords), dtype=float).ravel() for t in time.times()]
        return cls(grid, time, np.stack(rows))

    def slice(self, n: int) -> Field:
        return Field(self.grid, self.values[n])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def copy(self) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self.time, self.values.copy())


# ---------------------------------------------------------------------------
# spectral machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _spectra(dim: int, n: int):
    """Half-spectrum symbols for an N^d grid on the unit torus.

    Real fields are transformed with rfftn, which keeps the n//2 + 1
    nonnegative frequencies of the last axis.  Returns (ideriv, ksq):
    per-axis first-derivative symbols i*omega_a with the Nyquist mode dropped
    (an odd derivative has no real representative there), and the |omega|^2
    Laplacian symbol, each broadcastable against a half spectrum.
    """
    w = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    d1 = w.copy()
    d1[n // 2] = 0.0
    half = n // 2 + 1
    if dim == 1:
        return (1j * d1[:half],), w[:half] ** 2
    ideriv = (1j * d1[:, None], 1j * d1[None, :half])
    ksq = w[:, None] ** 2 + w[None, :half] ** 2
    return ideriv, ksq


def _fft_axes(dim: int) -> tuple[int, ...]:
    return tuple(range(-dim, 0))


def _rfft_stack(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Half spectrum of a (..., N**d) stack of real fields."""
    shaped = values.reshape(values.shape[:-1] + grid.shape)
    return np.fft.rfftn(shaped, axes=_fft_axes(grid.dim))


def _irfft_stack(spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Real (..., N**d) stack of fields with the given half spectra."""
    out = np.fft.irfftn(spec, s=grid.shape, axes=_fft_axes(grid.dim))
    return out.reshape(out.shape[: out.ndim - grid.dim] + (grid.num_nodes,))


def _apply_symbols(symbols: tuple, spec: np.ndarray) -> np.ndarray:
    """Stack of symbol * spec, one leading component per symbol."""
    out = np.empty((len(symbols),) + spec.shape, dtype=complex)
    for a, sym in enumerate(symbols):
        np.multiply(sym, spec, out=out[a])
    return out


def _div_spectrum(comps: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Divergence of the first d components of a half-spectrum stack."""
    ideriv, _ = _spectra(grid.dim, grid.points_per_dim)
    acc = ideriv[0] * comps[0]
    for a in range(1, grid.dim):
        acc += ideriv[a] * comps[a]
    return acc


def _grad_stack(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Gradient of a (..., N**d) stack, returned as (d, ..., N**d)."""
    ideriv, _ = _spectra(grid.dim, grid.points_per_dim)
    return _irfft_stack(_apply_symbols(ideriv, _rfft_stack(values, grid)), grid)


def _div_stack(comps: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Divergence of a (d, ..., N**d) stack, returned as (..., N**d)."""
    return _irfft_stack(_div_spectrum(_rfft_stack(comps, grid), grid), grid)


def _lap_stack(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    _, ksq = _spectra(grid.dim, grid.points_per_dim)
    return _irfft_stack(-ksq * _rfft_stack(values, grid), grid)


def _grad_lap_stack(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Gradient and Laplacian of a (..., N**d) stack from one forward transform.

    Returns (d + 1, ..., N**d): the d gradient components, then the Laplacian,
    all brought back by one inverse transform.
    """
    ideriv, ksq = _spectra(grid.dim, grid.points_per_dim)
    return _irfft_stack(_apply_symbols(ideriv + (-ksq,), _rfft_stack(values, grid)), grid)


def _div_lap_stack(stack: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """div(stack[:d]) + laplacian(stack[d]) of a (d + 1, ..., N**d) stack.

    One forward transform of the whole stack; the sum is formed in spectral
    space and brought back by one inverse transform.
    """
    _, ksq = _spectra(grid.dim, grid.points_per_dim)
    spec = _rfft_stack(stack, grid)
    acc = _div_spectrum(spec, grid)
    acc -= ksq * spec[grid.dim]
    return _irfft_stack(acc, grid)


def _heat_stack(values: np.ndarray, grid: PeriodicGrid, dt: float) -> np.ndarray:
    _, ksq = _spectra(grid.dim, grid.points_per_dim)
    return _irfft_stack(np.exp(-ksq * dt) * _rfft_stack(values, grid), grid)


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite values in {what}")


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------


def gradient(f: Field) -> VectorField:
    """Spectral gradient; exact on band-limited fields."""
    _require_finite(f.values, "gradient input")
    return VectorField(f.grid, _grad_stack(f.values, f.grid))


def divergence(F: VectorField) -> Field:
    """Spectral divergence, the negative adjoint of :func:`gradient`."""
    _require_finite(F.values, "divergence input")
    return Field(F.grid, _div_stack(F.values, F.grid))


def laplacian(f: Field) -> Field:
    """Spectral Laplacian; equals divergence(gradient(f)) on resolved modes."""
    _require_finite(f.values, "laplacian input")
    return Field(f.grid, _lap_stack(f.values, f.grid))


def integrate(f: Field) -> float:
    """Integral over the torus: h^d times the node sum (spectrally accurate)."""
    return float(np.sum(f.values) * f.grid.cell_volume)


def heat_step(f: Field, dt: float) -> Field:
    """Exact heat propagator over time dt: mode k decays by exp(-4 pi^2 |k|^2 dt).

    Conserves the integral exactly (the constant mode is untouched) and
    contracts every other mode.
    """
    if dt < 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    _require_finite(f.values, "heat_step input")
    return Field(f.grid, _heat_stack(f.values, f.grid, dt))


def heat_smoothing_norm(
    phi: Field, tau: float, horizon: float, q: float, n_time: int = 128
) -> float:
    """Mixed norm of the heat flow started from phi at time tau.

    Computes int_tau^horizon (int rho^q dx)^(1/q) dt with rho the exact
    spectral heat evolution of phi, using the trapezoid rule in time.  Used
    as a finiteness and grid-stability check of the smoothing estimate for
    unit-mass nonnegative data.
    """
    if q <= 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    if np.min(phi.values) < -1e-12:
        raise ValueError("phi must be nonnegative")
    if integrate(phi) > 1.0 + 1e-9:
        raise ValueError("phi must carry at most unit mass")
    if not tau <= horizon:
        raise ValueError("need tau <= horizon")
    vol = phi.grid.cell_volume
    ts = np.linspace(tau, horizon, n_time + 1)
    inner = np.empty(ts.size)
    for j, t in enumerate(ts):
        rho = _heat_stack(phi.values, phi.grid, t - tau)
        inner[j] = (np.sum(np.clip(rho, 0.0, None) ** q) * vol) ** (1.0 / q)
    return float(np.trapezoid(inner, ts))


def _pad_spectrum_axis(spec: np.ndarray, axis: int, n_old: int, n_new: int) -> np.ndarray:
    """Zero-pad one FFT axis from n_old to n_new, splitting the Nyquist bin."""
    shape = list(spec.shape)
    shape[axis] = n_new
    out = np.zeros(shape, dtype=complex)
    half = n_old // 2

    def sl(a, b):
        idx = [slice(None)] * spec.ndim
        idx[axis] = slice(a, b)
        return tuple(idx)

    def at(i):
        idx = [slice(None)] * spec.ndim
        idx[axis] = i
        return tuple(idx)

    out[sl(0, half)] = spec[sl(0, half)]
    out[sl(n_new - half + 1, n_new)] = spec[sl(half + 1, n_old)]
    out[at(half)] = 0.5 * spec[at(half)]
    out[at(n_new - half)] = 0.5 * spec[at(half)]
    return out


def fourier_interpolate(f: Field, points_per_dim: int) -> Field:
    """Resample onto a finer grid by zero-padding the spectrum."""
    n_old = f.grid.points_per_dim
    if points_per_dim < n_old:
        raise ValueError("target grid must be at least as fine")
    if points_per_dim == n_old:
        return f.copy()
    fine = PeriodicGrid(f.grid.dim, points_per_dim)
    spec = np.fft.fftn(f.shaped())
    for axis in range(f.grid.dim):
        spec = _pad_spectrum_axis(spec, axis, n_old, points_per_dim)
    scale = fine.num_nodes / f.grid.num_nodes
    out = np.fft.ifftn(spec).real * scale
    return Field(fine, out.ravel())
