import sys

import numpy as np
import pytest

from mfgcon import montecarlo
from mfgcon.continuation import solve_path, trivial_solution
from mfgcon.grids import PeriodicGrid, SpaceTimeField
from mfgcon.montecarlo import (
    SDEConfig,
    l1_distance,
    sampling_l1_error,
    simulate_density,
)
from mfgcon.system import LambdaData

from conftest import congestion_stack, grad_stack, make_problem


@pytest.fixture(scope="module")
def mc_problem():
    return make_problem(n=32, n_t=8, horizon=0.02)


def test_l1_distance_basic(mc_problem):
    grid, time = mc_problem.grid, mc_problem.time
    a = SpaceTimeField.zeros(grid, time)
    b = SpaceTimeField.zeros(grid, time)
    assert np.max(l1_distance(a, b)) == 0.0
    half = grid.num_nodes // 2
    b.values[:, :half] = 0.25
    b.values[:, half:] = -0.25
    d = l1_distance(a, b)
    assert np.allclose(d, 0.25)
    assert np.allclose(l1_distance(b, a), d)
    other = SpaceTimeField.zeros(PeriodicGrid(1, 16), time)
    with pytest.raises(ValueError):
        l1_distance(a, other)


def test_empirical_slices_have_unit_mass(mc_problem):
    state = trivial_solution(mc_problem)
    lam = LambdaData.from_problem(mc_problem, 1.0)
    emp = simulate_density(mc_problem, lam, state.pair, SDEConfig(paths=5000, seed=1))
    masses = mc_problem.grid.cell_volume * np.sum(emp.values, axis=1)
    assert np.max(np.abs(masses - 1.0)) < 1e-12


def test_fixed_seed_is_bit_identical(mc_problem):
    state = trivial_solution(mc_problem)
    lam = LambdaData.from_problem(mc_problem, 1.0)
    cfg = SDEConfig(paths=20_000, seed=42)
    a = simulate_density(mc_problem, lam, state.pair, cfg)
    b = simulate_density(mc_problem, lam, state.pair, cfg)
    assert np.array_equal(a.values, b.values)
    c = simulate_density(mc_problem, lam, state.pair, SDEConfig(paths=20_000, seed=43))
    assert not np.array_equal(a.values, c.values)


def test_uniform_start_stays_uniform_within_noise(mc_problem):
    state = trivial_solution(mc_problem)
    lam = LambdaData.from_problem(mc_problem, 1.0)
    paths = 40_000
    emp = simulate_density(mc_problem, lam, state.pair, SDEConfig(paths=paths, seed=5))
    dists = l1_distance(emp, state.pair.m)
    scale = sampling_l1_error(state.pair.m.values[0], mc_problem.grid, paths)
    assert np.max(dists) <= 3.0 * scale


def test_monte_carlo_rate(mc_problem):
    state = trivial_solution(mc_problem)
    lam = LambdaData.from_problem(mc_problem, 1.0)
    errors = []
    for paths in (10_000, 40_000, 160_000):
        emp = simulate_density(mc_problem, lam, state.pair, SDEConfig(paths=paths, seed=11))
        errors.append(float(np.mean(l1_distance(emp, state.pair.m))))
    for e_coarse, e_fine in zip(errors, errors[1:]):
        ratio = e_coarse / e_fine
        assert 1.0 < ratio < 4.0  # M^(-1/2) scaling within a factor of two


def test_paths_validated():
    with pytest.raises(ValueError):
        SDEConfig(paths=0)


def test_two_dimensional_uniform_smoke():
    problem = make_problem(n=16, n_t=4, horizon=0.01, dim=2, b_amp=0.0)
    state = trivial_solution(problem)
    lam = LambdaData.from_problem(problem, 1.0)
    paths = 30_000
    emp = simulate_density(problem, lam, state.pair, SDEConfig(paths=paths, seed=3))
    masses = problem.grid.cell_volume * np.sum(emp.values, axis=1)
    assert np.max(np.abs(masses - 1.0)) < 1e-12
    dists = l1_distance(emp, state.pair.m)
    scale = sampling_l1_error(state.pair.m.values[0], problem.grid, paths)
    assert np.max(dists) <= 3.0 * scale


def test_drifted_density_tracked_on_solved_pair(mc_problem):
    # exercised against the solved pair in the acceptance suite at scale;
    # here only the plumbing at lam = 0 with the initial pair of the path
    states = solve_path(mc_problem)
    lam = LambdaData.from_problem(mc_problem, 0.0)
    emp = simulate_density(mc_problem, lam, states[-1].pair, SDEConfig(paths=40_000, seed=2))
    dists = l1_distance(emp, states[-1].pair.m)
    assert np.max(dists) < 0.1


def _two_pass_density(problem, lam, pair, cfg):
    """The particle simulation with the cell index and weight computed twice per step.

    Each step interpolates the drift with its own floor / wrap pass and
    deposits with another, as the simulation did before it shared one
    stencil between the two.  Same generators, same draws.
    """
    from mfgcon.montecarlo import _sample_initial

    grid, time = problem.grid, problem.time
    n_pts, h, dim = grid.points_per_dim, grid.spacing, grid.dim
    du = grad_stack(pair.u.values, grid)
    q = congestion_stack(du, pair.m.values, problem.alpha, problem.m_floor)
    drift = -(lam.hamiltonian.grad(q) + lam.b_values[:, None, :])

    def corners(pos):
        s = pos / h
        i0 = np.floor(s).astype(int) % n_pts
        w = s - np.floor(s)
        i1 = (i0 + 1) % n_pts
        if dim == 1:
            return [(i0[0], 1.0 - w[0]), (i1[0], w[0])]
        shape = grid.shape
        return [
            (np.ravel_multi_index((i0[0], i0[1]), shape), (1.0 - w[0]) * (1.0 - w[1])),
            (np.ravel_multi_index((i1[0], i0[1]), shape), w[0] * (1.0 - w[1])),
            (np.ravel_multi_index((i0[0], i1[1]), shape), (1.0 - w[0]) * w[1]),
            (np.ravel_multi_index((i1[0], i1[1]), shape), w[0] * w[1]),
        ]

    def deposit(pos, out):
        for idx, wt in corners(pos):
            np.add.at(out, idx, wt)

    def interp(values, pos):
        return sum(wt * values[idx] for idx, wt in corners(pos))

    deposits = np.zeros((time.num_slices, grid.num_nodes))
    batch = montecarlo._BATCH_PATHS
    n_batches = (cfg.paths + batch - 1) // batch
    children = np.random.SeedSequence(cfg.seed).spawn(n_batches)
    done = 0
    for b in range(n_batches):
        n = min(batch, cfg.paths - done)
        done += n
        rng = np.random.default_rng(children[b])
        pos = _sample_initial(lam.m_init_values, grid, rng, n)
        deposit(pos, deposits[0])
        for k in range(time.steps):
            vel = np.stack([interp(drift[a, k], pos) for a in range(dim)])
            noise = rng.standard_normal(pos.shape)
            pos = (pos + vel * time.dt + np.sqrt(2.0 * time.dt) * noise) % 1.0
            deposit(pos, deposits[k + 1])
    return deposits / (cfg.paths * grid.cell_volume)


@pytest.fixture(scope="module", params=[1, 2])
def drifted(request):
    """A drifted solved pair at lam = 0, in d = 1 and d = 2."""
    problem = make_problem(n=16, n_t=4, horizon=0.02, dim=request.param, psi_amp=0.5)
    final = solve_path(problem)[-1]
    return problem, LambdaData.from_problem(problem, 0.0), final.pair


def test_one_stencil_pass_matches_the_two_pass_reference(drifted, monkeypatch):
    # a drifted solved pair and several batches, the last one short
    problem, lam, pair = drifted
    monkeypatch.setattr(montecarlo, "_BATCH_PATHS", 2_000)
    cfg = SDEConfig(paths=5_000, seed=9)
    got = simulate_density(problem, lam, pair, cfg).values
    want = _two_pass_density(problem, lam, pair, cfg)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_densities_do_not_depend_on_the_worker_count(drifted, monkeypatch):
    # four batches, the last one short; four workers are more threads than
    # cores, switching as often as they can
    problem, lam, pair = drifted
    monkeypatch.setattr(montecarlo, "_BATCH_PATHS", 2_000)
    cfg = SDEConfig(paths=7_000, seed=4)
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 4):
            monkeypatch.setattr(montecarlo, "_usable_cores", lambda: workers)
            got[workers] = simulate_density(problem, lam, pair, cfg).values
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got[1], got[2])
    assert np.array_equal(got[1], got[4])


@pytest.mark.parametrize("failing", [1, 2])
def test_batch_exception_reaches_the_caller(mc_problem, monkeypatch, failing):
    # on two workers, batch 1 runs in the pool thread and batch 2 is the calling
    # thread's second batch
    state = trivial_solution(mc_problem)
    lam = LambdaData.from_problem(mc_problem, 1.0)
    monkeypatch.setattr(montecarlo, "_BATCH_PATHS", 2_000)
    cfg = SDEConfig(paths=5_000, seed=4)
    boom = RuntimeError("batch failed")
    sample = montecarlo._sample_initial

    def failing_sample(m0_values, grid, rng, n):
        if rng.bit_generator.seed_seq.spawn_key == (failing,):
            raise boom
        return sample(m0_values, grid, rng, n)

    monkeypatch.setattr(montecarlo, "_sample_initial", failing_sample)
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: workers)
        with pytest.raises(RuntimeError) as caught:
            simulate_density(mc_problem, lam, state.pair, cfg)
        assert caught.value is boom
