"""Particle check of the transport equation: simulate the controlled diffusion.

Paths follow dX = drift dt + sqrt(2) dW on the torus with the feedback drift
-DpH(x, Q) - b read off a solved pair, started from the pair's initial
density.  The empirical slice densities (periodic cloud-in-cell deposition,
each normalized to unit mass) are compared against the solved m in L1.
Batches draw from generators spawned off one seed, so results are
reproducible bit for bit and independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import SpaceTimeField, _grad_stack
from .system import (
    LambdaData,
    MFGProblem,
    SolutionPair,
    _check_strict_density,
    _congestion_stack,
)

__all__ = [
    "SDEConfig",
    "simulate_density",
    "l1_distance",
    "sampling_l1_error",
]


@dataclass(frozen=True)
class SDEConfig:
    paths: int = 100_000
    seed: int = 0
    substeps: int = 1
    batch_size: int = 250_000

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("need at least one path")
        if self.substeps < 1:
            raise ValueError("substeps must divide the solver step at least once")


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


def _interp_periodic(field_values: np.ndarray, grid, pos: np.ndarray) -> np.ndarray:
    """Periodic linear interpolation of node values at positions (d, n)."""
    n_pts = grid.points_per_dim
    h = grid.spacing
    if grid.dim == 1:
        s = pos[0] / h
        i0 = np.floor(s).astype(int) % n_pts
        w = s - np.floor(s)
        i1 = (i0 + 1) % n_pts
        return (1.0 - w) * field_values[i0] + w * field_values[i1]
    shaped = field_values.reshape(grid.shape)
    sx, sy = pos[0] / h, pos[1] / h
    ix0 = np.floor(sx).astype(int) % n_pts
    iy0 = np.floor(sy).astype(int) % n_pts
    wx, wy = sx - np.floor(sx), sy - np.floor(sy)
    ix1, iy1 = (ix0 + 1) % n_pts, (iy0 + 1) % n_pts
    return (
        (1.0 - wx) * (1.0 - wy) * shaped[ix0, iy0]
        + wx * (1.0 - wy) * shaped[ix1, iy0]
        + (1.0 - wx) * wy * shaped[ix0, iy1]
        + wx * wy * shaped[ix1, iy1]
    )


def _deposit(grid, pos: np.ndarray, out: np.ndarray) -> None:
    """Accumulate cloud-in-cell weights of positions (d, n) onto flat nodes."""
    n_pts = grid.points_per_dim
    h = grid.spacing
    if grid.dim == 1:
        s = pos[0] / h
        i0 = np.floor(s).astype(int) % n_pts
        w = s - np.floor(s)
        np.add.at(out, i0, 1.0 - w)
        np.add.at(out, (i0 + 1) % n_pts, w)
        return
    sx, sy = pos[0] / h, pos[1] / h
    ix0 = np.floor(sx).astype(int) % n_pts
    iy0 = np.floor(sy).astype(int) % n_pts
    wx, wy = sx - np.floor(sx), sy - np.floor(sy)
    ix1, iy1 = (ix0 + 1) % n_pts, (iy0 + 1) % n_pts
    shaped_idx = np.ravel_multi_index
    np.add.at(out, shaped_idx((ix0, iy0), grid.shape), (1.0 - wx) * (1.0 - wy))
    np.add.at(out, shaped_idx((ix1, iy0), grid.shape), wx * (1.0 - wy))
    np.add.at(out, shaped_idx((ix0, iy1), grid.shape), (1.0 - wx) * wy)
    np.add.at(out, shaped_idx((ix1, iy1), grid.shape), wx * wy)


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
    nonpositive density sample raises NonpositiveDensityError.
    """
    grid, time = problem.grid, problem.time
    _check_strict_density(pair.m.values, strict=True)
    du = _grad_stack(pair.u.values, grid)
    q = _congestion_stack(du, pair.m.values, problem.alpha, problem.m_floor)
    drift = -(lam_data.hamiltonian.grad(q) + lam_data.b_values[:, None, :])  # (d, K, M)

    deposits = np.zeros((time.num_slices, grid.num_nodes))
    dt_sub = time.dt / cfg.substeps
    root = np.random.SeedSequence(cfg.seed)
    n_batches = (cfg.paths + cfg.batch_size - 1) // cfg.batch_size
    children = root.spawn(n_batches)

    done = 0
    for b in range(n_batches):
        n = min(cfg.batch_size, cfg.paths - done)
        done += n
        rng = np.random.default_rng(children[b])
        pos = _sample_initial(lam_data.m_init_values, grid, rng, n)
        _deposit(grid, pos, deposits[0])
        for k in range(time.steps):
            for _ in range(cfg.substeps):
                vel = np.stack(
                    [_interp_periodic(drift[a, k], grid, pos) for a in range(grid.dim)]
                )
                noise = rng.standard_normal(pos.shape)
                pos = (pos + vel * dt_sub + np.sqrt(2.0 * dt_sub) * noise) % 1.0
            _deposit(grid, pos, deposits[k + 1])

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
