"""Particle check of the transport equation: simulate the controlled diffusion.

Paths follow dX = drift dt + sqrt(2) dW on the torus with the feedback drift
-DpH(x, Q) - b read off a solved pair, started from the pair's initial
density.  The empirical slice densities (periodic cloud-in-cell deposition,
each normalized to unit mass) are compared against the solved m in L1.
The paths run in fixed-size batches, each drawing from its own generator
spawned off one seed, and the batches run at the same time on the usable
cores.  Each batch deposits into its own array and the arrays are summed in
batch order, so the densities depend on the seed and the batch size only,
bit for bit, never on the core count or on scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grids import SpaceTimeField
from .system import LambdaData, MFGProblem, SolutionPair, _shared_terms

__all__ = [
    "NonfiniteDriftError",
    "SDEConfig",
    "simulate_density",
    "l1_distance",
    "sampling_l1_error",
]


class NonfiniteDriftError(ValueError):
    """The feedback drift read off a pair is not finite at some node."""


@dataclass(frozen=True)
class SDEConfig:
    paths: int = 100_000
    seed: int = 0
    substeps: int = 1
    batch_size: int = 50_000

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("need at least one path")
        if self.substeps < 1:
            raise ValueError("substeps must divide the solver step at least once")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least one path, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _sample_initial(m0_values: np.ndarray, grid, rng, n: int) -> np.ndarray:
    """Draw positions from the piecewise-constant density given by node values."""
    h = grid.spacing
    probs = m0_values / np.sum(m0_values)
    if grid.dim == 1:
        cells = rng.choice(m0_values.size, size=n, p=probs)
        return (cells * h + rng.uniform(0.0, h, size=n))[None, :] % 1.0
    cells = rng.choice(m0_values.size, size=n, p=probs)
    ix, iy = np.divmod(cells, grid.points_per_dim)
    x = ix * h + rng.uniform(0.0, h, size=n)
    y = iy * h + rng.uniform(0.0, h, size=n)
    return np.stack([x, y]) % 1.0


class _Stencil:
    """Cloud-in-cell stencil of a batch of n particles on the periodic grid.

    :meth:`locate` finds each particle's cell once per position: the flat node
    indices of its 2^d corners (``idx``) and their multilinear weights
    (``wts``), both (2^d, n).  The deposition at the end of a step and the
    drift interpolation at the start of the next read the same stencil.  The
    arrays are reused from step to step, so a step allocates almost nothing.
    """

    def __init__(self, grid, n: int):
        corners = 2**grid.dim
        self.grid = grid
        self.idx = np.empty((corners, n), dtype=np.intp)
        self.wts = np.empty((corners, n))
        self._frac = np.empty((grid.dim, n))
        # lower and upper node per axis; in 1d these are the two corners themselves
        if grid.dim == 1:
            self._axis = self.idx[:, None, :]
        else:
            self._axis = np.empty((2, grid.dim, n), dtype=np.intp)
        self._term = np.empty((grid.dim, n))
        self._values = np.empty((grid.dim, n))

    def locate(self, pos: np.ndarray) -> None:
        """Recompute the stencil at positions (d, n) in [0, 1]^d."""
        n_pts = self.grid.points_per_dim
        frac, (lo, hi) = self._frac, self._axis
        np.divide(pos, self.grid.spacing, out=frac)
        np.copyto(lo, frac, casting="unsafe")  # truncation is the floor: frac >= 0
        frac -= lo
        # positions lie in [0, 1], so each wrap is a single node: n_pts -> 0
        lo[lo == n_pts] = 0
        np.add(lo, 1, out=hi)
        hi[hi == n_pts] = 0
        if self.grid.dim == 1:
            np.subtract(1.0, frac[0], out=self.wts[0])
            self.wts[1] = frac[0]
            return
        (ix0, iy0), (ix1, iy1), (wx, wy) = lo, hi, frac
        ix0 *= n_pts  # flat node ix * n + iy, as grid.shape ravels
        ix1 *= n_pts
        for c, (ix, iy) in enumerate(((ix0, iy0), (ix1, iy0), (ix0, iy1), (ix1, iy1))):
            np.add(ix, iy, out=self.idx[c])
        ox, oy = 1.0 - frac
        for c, (a, b) in enumerate(((ox, oy), (wx, oy), (ox, wy), (wx, wy))):
            np.multiply(a, b, out=self.wts[c])

    def interpolate(self, field_stack: np.ndarray) -> np.ndarray:
        """Linear interpolation of the d rows of (d, M) node values: a reused (d, n) array."""
        # the indices are in range; mode "raise" would copy through a temporary
        values, term = self._values, self._term
        np.take(field_stack, self.idx[0], axis=1, out=values, mode="wrap")
        values *= self.wts[0]
        for idx, wts in zip(self.idx[1:], self.wts[1:]):
            np.take(field_stack, idx, axis=1, out=term, mode="wrap")
            term *= wts
            values += term
        return values

    def deposit(self, out: np.ndarray) -> None:
        """Accumulate the stencil weights onto the flat nodes of ``out``."""
        np.add.at(out, self.idx.ravel(), self.wts.ravel())


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _simulate_batch(drift, m_init, grid, time, substeps: int, seed, n: int) -> np.ndarray:
    """Unnormalized (K, M) deposits of one batch of n paths drawn from its own generator."""
    deposits = np.zeros((time.num_slices, grid.num_nodes))
    dt_sub = time.dt / substeps
    rng = np.random.default_rng(seed)
    pos = _sample_initial(m_init, grid, rng, n)
    noise = np.empty_like(pos)
    stencil = _Stencil(grid, n)
    stencil.locate(pos)
    stencil.deposit(deposits[0])
    for k in range(time.steps):
        for sub in range(substeps):
            if sub > 0:
                stencil.locate(pos)
            vel = stencil.interpolate(drift[:, k])
            rng.standard_normal(out=noise)
            vel *= dt_sub
            noise *= np.sqrt(2.0 * dt_sub)
            pos += vel
            pos += noise
            # the same bits as pos %= 1.0, without its cost; noise is redrawn next
            pos -= np.floor(pos, out=noise)
        stencil.locate(pos)
        stencil.deposit(deposits[k + 1])
    return deposits


def simulate_density(
    problem: MFGProblem,
    lam_data: LambdaData,
    pair: SolutionPair,
    cfg: SDEConfig,
) -> SpaceTimeField:
    """Empirical slice densities of the feedback diffusion under ``pair``.

    Euler-Maruyama with the solver step split into ``substeps``; the drift is
    held on the current solver slice and interpolated linearly in space.
    Every returned slice integrates to one exactly.  A pair with a
    nonpositive density sample raises NonpositiveDensityError, and one whose
    drift is not finite somewhere (say, a gradient that overflows) raises
    NonfiniteDriftError before any path is drawn.

    The paths are split into batches of ``batch_size`` (the last one takes
    the rest), each with its own generator spawned off ``seed``.  The batches
    run on the usable cores: the calling thread and ``workers - 1`` pool
    threads each take every ``workers``-th batch.  Each batch deposits into
    its own array and the arrays are summed in batch order, so the result
    depends on ``seed`` and ``batch_size`` only.  An exception in any batch
    reaches the caller unchanged.
    """
    grid, time = problem.grid, problem.time
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        q = _shared_terms(problem, pair).q
        drift = -(lam_data.hamiltonian.grad(q) + lam_data.b_values[:, None, :])  # (d, K, M)
    finite = np.isfinite(drift).all(axis=0)
    if not finite.all():
        n_slice, n_node = divmod(int(np.argmin(finite)), grid.num_nodes)
        raise NonfiniteDriftError(f"drift not finite at slice {n_slice}, node {n_node}")

    n_batches = (cfg.paths + cfg.batch_size - 1) // cfg.batch_size
    children = np.random.SeedSequence(cfg.seed).spawn(n_batches)
    sizes = [min(cfg.batch_size, cfg.paths - b * cfg.batch_size) for b in range(n_batches)]
    batches: list = [None] * n_batches
    workers = min(n_batches, _usable_cores())

    def run_share(first: int) -> None:
        # one batch at a time, so only ``workers`` batches' particles are alive
        for b in range(first, n_batches, workers):
            batches[b] = _simulate_batch(
                drift, lam_data.m_init_values, grid, time, cfg.substeps, children[b], sizes[b]
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
