"""Particle check of the transport equation: simulate the controlled diffusion.

Paths follow dX = drift dt + sqrt(2) dW on the torus with the feedback drift
-DpH(x, Q) - b read off a solved pair, started from the pair's initial
density.  The empirical slice densities (periodic cloud-in-cell deposition,
each normalized to unit mass) are compared against the solved m in L1.
Each solver step is one step of the simplified weak Euler scheme: the move
is drift dt plus +-sqrt(2 dt) per axis, each sign with probability 1/2.  It
has the weak order 1 of Gaussian Euler-Maruyama, which is all a comparison
of densities needs (Kloeden & Platen, *Numerical Solution of Stochastic
Differential Equations*, 1992, section 14.1), and it draws one random bit
per path and axis instead of a normal.  The paths run in batches of
a fixed size, each drawing from its own generator spawned off one seed, and
the batches run at the same time on the usable cores.  Each batch deposits
into its own array and the arrays are summed in batch order, so the
densities depend on the seed only, bit for bit, never on the core count or
on scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grids import SpaceTimeField
from .system import LambdaData, MFGProblem, SolutionPair, _pair_terms

__all__ = [
    "NonfiniteDriftError",
    "SDEConfig",
    "simulate_density",
    "l1_distance",
    "sampling_l1_error",
]


# paths per batch, each batch with its own generator
_BATCH_PATHS = 50_000


class NonfiniteDriftError(ValueError):
    """The feedback drift read off a pair is not finite at some node."""


@dataclass(frozen=True)
class SDEConfig:
    paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError(f"paths must be at least 1, got {self.paths}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _sample_initial(m0_values: np.ndarray, grid, rng, n: int) -> np.ndarray:
    """Draw positions in [-h/2, 1 - h/2)^d from the piecewise-constant density of node values.

    Node i's value holds on the cell of width h centred on it, so the draw
    has no phase bias against the nodal m0.  The cell counts are one
    multinomial draw, so the paths come out sorted by cell; each path then
    gets a uniform offset within its cell.
    """
    h = grid.spacing
    counts = rng.multinomial(n, m0_values / np.sum(m0_values))
    cells = np.repeat(np.arange(m0_values.size), counts)
    nodes = np.stack(np.unravel_index(cells, grid.shape)) * h  # (d, n)
    return nodes + rng.uniform(-0.5 * h, 0.5 * h, size=(grid.dim, n))


# the axes differenced in each multilinear term, in the order of the stencil's monomials
_TERMS = {1: ((), (0,)), 2: ((), (0,), (1,), (0, 1))}


def _cell_coefficients(values: np.ndarray, grid) -> np.ndarray:
    """Per-cell multilinear coefficients (2^d, ..., M) of node values (..., M).

    Term S of the cell with lower node i is the forward difference of the
    values along the axes in S, taken at i (periodically), so the value at
    offsets f in [0, 1]^d within the cell is the sum over S of term S times
    the product of f_a over a in S.
    """
    block = values.reshape(values.shape[:-1] + grid.shape)
    terms = []
    for axes in _TERMS[grid.dim]:
        term = block
        for axis in axes:
            term = np.roll(term, -1, axis=axis - grid.dim) - term
        terms.append(term.reshape(values.shape))
    return np.stack(terms)


def _node_weights(moments: np.ndarray, grid) -> np.ndarray:
    """Cloud-in-cell node sums (..., M) of per-cell moments (2^d, ..., M).

    The adjoint of :func:`_cell_coefficients`: moment S of a cell sums the
    product of f_a over a in S over the particles in it, and each forward
    difference turns into a backward one.
    """
    total = np.zeros(moments.shape[1:-1] + grid.shape)
    for moment, axes in zip(moments, _TERMS[grid.dim]):
        term = moment.reshape(total.shape)
        for axis in axes:
            term = np.roll(term, 1, axis=axis - grid.dim) - term
        total += term
    return total.reshape(moments.shape[1:])


class _Stencil:
    """Cloud-in-cell stencil of a batch of n particles, kept per cell.

    Positions are in grid units (x N) and never wrapped.  :meth:`locate`
    finds each particle's cell once per position: its flat index (``cell``,
    n), floor(x) per axis taken modulo N by a bitwise and (N is a power of
    two), and the monomials of its offsets x - floor(x) within the cell
    (``monomials``, (2^d - 1, n): f in 1d, then fx, fy, fx fy in 2d).  A
    coordinate of exactly N (the unit coordinate 1.0) is cell 0 at offset 0,
    and one in [-1/2, 0), where initial draws around node 0 fall, is cell N - 1.
    The multilinear weights of the 2^d corners are polynomials in those
    offsets, so the drift interpolation reads the per-cell coefficients of
    :func:`_cell_coefficients` and the deposition sums the monomials per cell
    (:func:`_node_weights` spreads the sums onto the nodes).  The deposition
    at the end of a step and the interpolation at the start of the next read
    the same stencil.  The arrays are reused from step to step, so a step
    allocates almost nothing.
    """

    def __init__(self, grid, n: int):
        dim = grid.dim
        self.grid = grid
        self.monomials = np.empty((2**dim - 1, n))
        self._lower = np.empty((dim, n), dtype=np.intp)
        self.cell = self._lower[0]  # flat cell ix * N + iy, as grid.shape ravels
        self._term = np.empty((dim, n))
        self._values = np.empty((dim, n))

    def locate(self, pos: np.ndarray) -> None:
        """Recompute the stencil at positions (d, n) in grid units."""
        n_pts = self.grid.points_per_dim
        frac, lower = self.monomials[: self.grid.dim], self._lower
        np.floor(pos, out=frac)
        np.copyto(lower, frac, casting="unsafe")
        np.subtract(pos, frac, out=frac)
        lower &= n_pts - 1
        if self.grid.dim == 2:
            lower[0] *= n_pts
            lower[0] += lower[1]
            np.multiply(frac[0], frac[1], out=self.monomials[2])

    def interpolate(self, coefficients: np.ndarray) -> np.ndarray:
        """Interpolate (2^d, d, M) coefficients of d node rows: a reused (d, n) array."""
        # the indices are in range; mode "raise" would copy through a temporary
        values, term = self._values, self._term
        np.take(coefficients[0], self.cell, axis=1, out=values, mode="clip")
        for table, monomial in zip(coefficients[1:], self.monomials):
            np.take(table, self.cell, axis=1, out=term, mode="clip")
            term *= monomial
            values += term
        return values

    def deposit(self, out: np.ndarray) -> None:
        """Write the (2^d, M) cell moments: the particle count, then each monomial's sum."""
        size = out.shape[1]
        out[0] = np.bincount(self.cell, minlength=size)
        for row, monomial in zip(out[1:], self.monomials):
            row[:] = np.bincount(self.cell, monomial, minlength=size)


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _simulate_batch(coefficients, m_init, grid, time, seed, n: int) -> np.ndarray:
    """Unnormalized (K, M) deposits of one batch of n paths drawn from its own generator.

    ``coefficients`` (2^d, K - 1, d, M) interpolate (drift dt - sigma) N, so
    a step adds that plus 2 sigma N times one random bit per axis: a move of
    drift dt +- sigma, in the stencil's grid units.
    """
    rng = np.random.default_rng(seed)
    pos = _sample_initial(m_init, grid, rng, n)
    pos *= grid.points_per_dim
    stencil = _Stencil(grid, n)
    moments = np.empty((2**grid.dim, time.num_slices, grid.num_nodes))
    two_sigma = 2.0 * np.sqrt(2.0 * time.dt) * grid.points_per_dim
    n_bits = pos.size
    jump = np.empty_like(pos)
    stencil.locate(pos)
    stencil.deposit(moments[:, 0])
    for k in range(time.steps):
        pos += stencil.interpolate(coefficients[:, k])
        bits = np.unpackbits(np.frombuffer(rng.bytes((n_bits + 7) // 8), np.uint8), count=n_bits)
        np.multiply(bits.reshape(pos.shape), two_sigma, out=jump)
        pos += jump
        stencil.locate(pos)
        stencil.deposit(moments[:, k + 1])
    return _node_weights(moments, grid)


def simulate_density(
    problem: MFGProblem,
    lam_data: LambdaData,
    pair: SolutionPair,
    cfg: SDEConfig,
) -> SpaceTimeField:
    """Empirical slice densities of the feedback diffusion under ``pair``.

    One two-point weak Euler step per solver step (Kloeden & Platen 1992,
    section 14.1): the drift, read on the current solver slice and
    interpolated linearly in space, times dt, plus +-sqrt(2 dt) per axis
    with a fair coin.  Every returned slice integrates to one, to rounding.
    A pair with a nonpositive density sample raises NonpositiveDensityError,
    and one whose drift is not finite somewhere (say, a gradient that
    overflows) raises NonfiniteDriftError before any path is drawn.

    The paths are split into batches of ``_BATCH_PATHS`` (the last one takes
    the rest), each with its own generator spawned off ``seed``.  The batches
    run on the usable cores: the calling thread and ``workers - 1`` pool
    threads each take every ``workers``-th batch.  Each batch deposits into
    its own array and the arrays are summed in batch order, so the result
    depends on ``seed`` only.  An exception in any batch reaches the caller
    unchanged.
    """
    grid, time = problem.grid, problem.time
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        drift = -(_pair_terms(problem, lam_data, pair).dp_h + lam_data.b_values[:, None, :])
    finite = np.isfinite(drift).all(axis=0)
    if not finite.all():
        n_slice, n_node = divmod(int(np.argmin(finite)), grid.num_nodes)
        raise NonfiniteDriftError(f"drift not finite at slice {n_slice}, node {n_node}")

    # each step's move minus sigma, in grid units: the batches add 2 sigma N times a bit
    low = np.moveaxis(drift[:, :-1], 0, 1) * time.dt - np.sqrt(2.0 * time.dt)  # (K - 1, d, M)
    coefficients = _cell_coefficients(low * grid.points_per_dim, grid)

    n_batches = (cfg.paths + _BATCH_PATHS - 1) // _BATCH_PATHS
    children = np.random.SeedSequence(cfg.seed).spawn(n_batches)
    sizes = [min(_BATCH_PATHS, cfg.paths - b * _BATCH_PATHS) for b in range(n_batches)]
    batches: list = [None] * n_batches
    workers = min(n_batches, _usable_cores())

    def run_share(first: int) -> None:
        # one batch at a time, so only ``workers`` batches' particles are alive
        for b in range(first, n_batches, workers):
            batches[b] = _simulate_batch(
                coefficients, lam_data.m_init_values, grid, time, children[b], sizes[b]
            )

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_share, first) for first in range(1, workers)]
        run_share(0)
        for future in futures:
            future.result()

    deposits = batches[0]
    for more in batches[1:]:
        deposits += more
    densities = deposits / (cfg.paths * grid.cell_volume)
    return SpaceTimeField(grid, time, densities)


def l1_distance(empirical: SpaceTimeField, m: SpaceTimeField) -> np.ndarray:
    """Per-slice integral of |empirical - m|."""
    if empirical.grid != m.grid or empirical.time != m.time:
        raise ValueError("fields live on different grids")
    vol = empirical.grid.cell_volume
    return vol * np.sum(np.abs(empirical.values - m.values), axis=1)


def sampling_l1_error(m_slice_values: np.ndarray, grid, paths: int) -> float:
    """Expected L1 error of the binned empirical density against a smooth one.

    Cloud-in-cell node values fluctuate with variance about
    m * (2/3)^d / (paths * h^d); summing the expected absolute deviations
    over nodes gives the estimate used as the Monte-Carlo error scale.
    """
    var_scale = (2.0 / 3.0) ** grid.dim / (paths * grid.cell_volume)
    sigma = np.sqrt(np.maximum(m_slice_values, 0.0) * var_scale)
    return float(np.sqrt(2.0 / np.pi) * grid.cell_volume * np.sum(sigma))
