from dataclasses import replace

import numpy as np
import pytest

from mfgcon import linearized
from mfgcon.grids import (
    PeriodicGrid,
    SpaceTimeField,
    TimeGrid,
    _apply_symbols,
    _irfft_stack,
    _pad_spectrum,
    _rfft_stack,
    _spectra,
)
from mfgcon.hamiltonians import HamiltonianModel
from mfgcon.system import MFGProblem, Potential, ResidualBundle


def grad_stack(values, grid):
    """Gradient of a (..., N**d) stack as (d, ..., N**d): one transform each
    way, the reference for the package's fused spectral kernels."""
    ideriv, _ = _spectra(grid.dim, grid.points_per_dim)
    return _irfft_stack(_apply_symbols(ideriv, _rfft_stack(values, grid)), grid)


def congestion_stack(du, m, alpha, m_floor):
    """Rescaled momentum Q = Du / max(m, floor)^alpha, the reference for the
    package's shared residual terms."""
    return du / np.maximum(m, m_floor) ** alpha


def fourier_interpolate(f, points_per_dim, grid=None):
    """A SpaceTimeField, or node values on ``grid``, resampled onto the finer
    grid with ``points_per_dim`` nodes per axis by zero-padding its half
    spectrum."""
    if grid is not None:
        fine = PeriodicGrid(grid.dim, points_per_dim)
        return _irfft_stack(_pad_spectrum(_rfft_stack(f, grid), grid, points_per_dim), fine)
    fine_values = fourier_interpolate(f.values, points_per_dim, f.grid)
    return replace(f, grid=PeriodicGrid(f.grid.dim, points_per_dim), values=fine_values)


def band_limited(grid, rng, k_max=3, amp=1.0):
    """Node values of a random trig polynomial with frequencies up to k_max per axis."""
    coords = grid.coordinates()
    out = np.zeros(grid.shape)
    if grid.dim == 1:
        freqs = [(k,) for k in range(1, k_max + 1)]
    else:
        freqs = [(kx, ky) for kx in range(0, k_max + 1) for ky in range(0, k_max + 1)
                 if (kx, ky) != (0, 0)]
    for kvec in freqs:
        phase = 2 * np.pi * sum(k * c for k, c in zip(kvec, coords))
        out = out + amp * rng.normal() * np.cos(phase) + amp * rng.normal() * np.sin(phase)
    return out.ravel()


def band_limited_spacetime(grid, time, rng, k_max=3, amp=1.0):
    rows = []
    profile = 1.0 + 0.5 * np.sin(np.linspace(0.0, 2.0, time.num_slices))
    base = band_limited(grid, rng, k_max, amp)
    second = band_limited(grid, rng, k_max, amp)
    for j in range(time.num_slices):
        rows.append(profile[j] * base + (1 - profile[j]) * second)
    return SpaceTimeField(grid, time, np.stack(rows))


def random_bundle(problem, rng, amp=1.0):
    """Band-limited residual rows: sources on the equation rows, half the
    amplitude on the initial transport row and the terminal value row."""
    grid, time = problem.grid, problem.time
    fp = band_limited_spacetime(grid, time, rng, amp=amp).values
    hjb = band_limited_spacetime(grid, time, rng, amp=amp).values
    fp[0] = band_limited_spacetime(grid, time, rng, amp=0.5 * amp).values[0]
    hjb[-1] = band_limited_spacetime(grid, time, rng, amp=0.5 * amp).values[-1]
    return ResidualBundle(
        fp=SpaceTimeField(grid, time, fp), hjb=SpaceTimeField(grid, time, hjb)
    )


def data_norm(bundle):
    """L2 norms in time and space of the source rows (transport slices 1..N_t,
    value slices 0..N_t-1), plus the L2 norms of the two data rows."""
    vol, dt = bundle.fp.grid.cell_volume, bundle.fp.time.dt
    fp, hjb = bundle.fp.values, bundle.hjb.values

    def norm(rows, weight):
        return float(np.sqrt(weight * vol * np.sum(rows**2)))

    return norm(fp[1:], dt) + norm(hjb[:-1], dt) + norm(fp[0], 1.0) + norm(hjb[-1], 1.0)


def sup_gap(a, b):
    return max(
        float(np.max(np.abs(a.v.values - b.v.values))),
        float(np.max(np.abs(a.f.values - b.f.values))),
    )


def span_tail(basis, pert):
    """Sup norm of the part of (v, f) outside the span of the basis."""
    return max(
        float(np.max(np.abs(x - basis.reconstruct(basis.project(x)))))
        for x in (pert.v.values, pert.f.values)
    )


def slice_l2_norms(pert):
    """Per-slice L2 norm of (v, f); by Parseval, sqrt(|A|^2 + |B|^2) of its
    Galerkin coefficients when the perturbation lies in the basis span."""
    vol = pert.v.grid.cell_volume
    return np.sqrt(vol * np.sum(pert.v.values**2 + pert.f.values**2, axis=1))


def count_krylov_work(monkeypatch, limits=None) -> dict:
    """Count Krylov solves and their operator applies from here on, per grid:
    ``counts[(N, n_t)]`` holds the solves and applies of the problems on N
    nodes per axis and n_t time steps.  ``limits``, if given, maps each grid
    to its apply bound; an apply past it, or on a grid it does not name,
    fails the test instead of running on."""
    counts = {}
    real = linearized._right_preconditioned_apply

    def counting_operator(problem, *args):
        grid = (problem.grid.points_per_dim, problem.time.steps)
        tally = counts.setdefault(grid, {"solves": 0, "applies": 0})
        limit = None if limits is None else limits.get(grid, 0)
        tally["solves"] += 1
        apply = real(problem, *args)

        def counted(y):
            tally["applies"] += 1
            assert limit is None or tally["applies"] <= limit, (
                f"more than {limit} applies on the {grid} grid"
            )
            return apply(y)

        return counted

    monkeypatch.setattr(linearized, "_right_preconditioned_apply", counting_operator)
    return counts


def make_problem(
    n=32,
    n_t=16,
    horizon=0.04,
    dim=1,
    gamma=1.5,
    alpha=0.5,
    b_amp=0.1,
    psi_amp=0.05,
    m0_amp=0.2,
    v1_amp=0.05,
    v2_kind="arctan",
    weight=1.0,
):
    grid = PeriodicGrid(dim, n)
    time = TimeGrid(horizon, n_t)
    coords = grid.coordinates()
    phase = 2 * np.pi * coords[0]
    ham = HamiltonianModel(gamma, weight)
    b_vals = np.zeros((dim, grid.num_nodes))
    b_vals[0] = b_amp * np.sin(phase).ravel()
    pot = Potential(v1=(v1_amp * np.cos(phase)).ravel(), v2_kind=v2_kind)
    return MFGProblem(
        grid=grid,
        time=time,
        alpha=alpha,
        hamiltonian=ham,
        b=b_vals,
        potential=pot,
        psi=(psi_amp * np.cos(phase)).ravel(),
        m0=(1.0 + m0_amp * np.cos(phase)).ravel(),
    )


@pytest.fixture(scope="session")
def small_problem():
    return make_problem()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
