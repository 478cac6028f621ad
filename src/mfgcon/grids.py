"""Uniform periodic grids on the unit torus and spectral calculus over them.

All spatial operators (gradient, divergence, Laplacian) act in Fourier
space.  On band-limited data they are exact up to roundoff, which provides
the discrete identities the rest of the package leans on: summation by parts
between gradient and divergence, mean-free divergences (so the transport
rows conserve mass exactly), and Laplacian == divergence(gradient).

Fields are real, so the spectral layer works on the half spectrum: rfftn
(rfft in d = 1) keeps the N//2 + 1 nonnegative frequencies of the last
axis, and every symbol is stored cut to that half.  Stacks of fields (time slices, vector
components) go through one batched transform.  The fused kernels give each
field a single forward transform per evaluation: _grad_lap_stack returns
gradient and Laplacian from one spectrum, and _div_lap_stack forms
Laplacian plus flux divergence in spectral space before one inverse.

A field is a flat float64 array of its node values, of length N**d in
row-major node order ((d, N**d) for a vector field); shaped views are taken
internally for the FFTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PeriodicGrid",
    "TimeGrid",
    "SpaceTimeField",
    "integrate",
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


def _rfft_stack(values: np.ndarray, grid: PeriodicGrid, out=None) -> np.ndarray:
    """Half spectrum of a (..., N**d) stack of real fields, written into ``out`` if given.

    In d = 1 the one-axis rfft gives rfftn's bits without its n-d argument
    handling, a few microseconds per call on the small stacks of a d = 1 solve.
    """
    if grid.dim == 1:
        return np.fft.rfft(values, axis=-1, out=out)
    shaped = values.reshape(values.shape[:-1] + grid.shape)
    return np.fft.rfftn(shaped, axes=_fft_axes(grid.dim), out=out)


def _irfft_stack(spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Real (..., N**d) stack of fields with the given half spectra."""
    if grid.dim == 1:
        return np.fft.irfft(spec, n=grid.points_per_dim, axis=-1)
    out = np.fft.irfftn(spec, s=grid.shape, axes=_fft_axes(grid.dim))
    return out.reshape(out.shape[: out.ndim - grid.dim] + (grid.num_nodes,))


def _apply_symbols(symbols: tuple, spec: np.ndarray) -> np.ndarray:
    """Stack of symbol * spec along a new leading axis, one entry per symbol."""
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


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------


def integrate(values: np.ndarray, grid: PeriodicGrid) -> float:
    """Integral over the torus of node values on ``grid``: h^d times the node
    sum (spectrally accurate)."""
    return float(np.sum(values) * grid.cell_volume)


def _pad_spectrum(spec: np.ndarray, grid: PeriodicGrid, points_per_dim: int) -> np.ndarray:
    """Half spectra of a stack on ``grid`` zero-padded onto a finer grid.

    The finer grid has ``points_per_dim`` > N nodes per axis, and the
    inverse transform there samples the same trigonometric interpolant: each
    axis's Nyquist coefficient is split evenly between the frequencies +N/2
    and -N/2 of the finer grid (on the half-spectrum axis the -N/2 twin is
    the implicit conjugate), and the coefficients are scaled by the ratio of
    node counts, a power of two, so the scaling is exact.
    """
    n = grid.points_per_dim
    half = n // 2
    spec = spec * (points_per_dim // n) ** grid.dim
    if grid.dim == 2:  # the full axis keeps both signs of frequency
        nyquist = 0.5 * spec[..., half : half + 1, :]
        gap = np.zeros(spec.shape[:-2] + (points_per_dim - n - 1, spec.shape[-1]), complex)
        spec = np.concatenate(
            [spec[..., :half, :], nyquist, gap, nyquist, spec[..., half + 1 :, :]], axis=-2
        )
    spec = np.pad(spec, [(0, 0)] * (spec.ndim - 1) + [(0, points_per_dim // 2 - half)])
    spec[..., half] *= 0.5
    return spec
