import numpy as np
import pytest

from mfgcon.continuation import trivial_solution
from mfgcon.grids import PeriodicGrid, SpaceTimeField, TimeGrid, integrate
from mfgcon.hamiltonians import HamiltonianModel
from mfgcon.linearized import Perturbation, apply_L
from mfgcon.system import (
    LambdaData,
    MFGProblem,
    NonpositiveDensityError,
    Potential,
    SolutionPair,
    residual_full,
)

from conftest import band_limited_spacetime, congestion_stack, make_problem


def test_congestion_ratio_values():
    nodes = PeriodicGrid(1, 16).num_nodes

    def ratio(du, m, alpha):
        return congestion_stack(np.full((1, nodes), du), np.full(nodes, m), alpha, 1e-10)

    assert np.max(np.abs(ratio(0.0, 0.7, 0.5))) == 0.0
    assert np.max(np.abs(ratio(0.3, 1.0, 0.8) - 0.3)) < 1e-15
    assert np.max(np.abs(ratio(1.0, 0.5, 0.5) - np.sqrt(2.0))) < 1e-14


def test_lambda_data_identities(small_problem):
    at_zero = LambdaData.from_problem(small_problem, 0.0)
    assert np.array_equal(at_zero.b_values, small_problem.b)
    assert np.array_equal(at_zero.psi_values, small_problem.psi)
    assert np.array_equal(at_zero.m_init_values, small_problem.m0)
    assert at_zero.hamiltonian is small_problem.hamiltonian

    at_one = LambdaData.from_problem(small_problem, 1.0)
    assert np.max(np.abs(at_one.b_values)) == 0.0
    assert np.max(np.abs(at_one.psi_values)) == 0.0
    assert np.max(np.abs(at_one.m_init_values - 1.0)) == 0.0
    for lam in (0.0, 0.25, 0.7, 1.0):
        data = LambdaData.from_problem(small_problem, lam)
        mass = integrate(data.m_init_values, small_problem.grid)
        assert mass == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValueError):
        LambdaData.from_problem(small_problem, 1.5)


def test_trivial_pair_residuals_vanish(small_problem):
    state = trivial_solution(small_problem)
    lam_data = LambdaData.from_problem(small_problem, 1.0)
    rows = residual_full(small_problem, lam_data, state.pair)
    assert rows.hjb.sup_norm() <= 1e-12
    assert rows.fp.sup_norm() <= 1e-12


def test_terminal_row_tracks_terminal_condition(small_problem):
    lam_data = LambdaData.from_problem(small_problem, 0.3)
    state = trivial_solution(small_problem)
    pair = state.pair.copy()
    pair.u.values[-1] = lam_data.psi_values
    r_u = residual_full(small_problem, lam_data, pair).hjb
    assert np.max(np.abs(r_u.values[-1])) == 0.0


def test_constant_shift_of_u_only_moves_terminal_row(small_problem, rng):
    lam_data = LambdaData.from_problem(small_problem, 0.4)
    grid, time = small_problem.grid, small_problem.time
    u = band_limited_spacetime(grid, time, rng, amp=0.05)
    m = SpaceTimeField(grid, time, 1.0 + 0.1 * band_limited_spacetime(grid, time, rng, amp=1.0).values / 10)
    pair = SolutionPair(u=u, m=m)
    shifted = SolutionPair(
        u=SpaceTimeField(grid, time, u.values + 0.37), m=m.copy()
    )
    r_base = residual_full(small_problem, lam_data, pair).hjb
    r_shift = residual_full(small_problem, lam_data, shifted).hjb
    diff = np.abs(r_shift.values - r_base.values)
    assert np.max(diff[:-1]) < 1e-12
    assert np.max(diff[-1]) == pytest.approx(0.37, rel=1e-12)


def test_fp_spatial_part_is_mean_free(small_problem, rng):
    lam_data = LambdaData.from_problem(small_problem, 0.2)
    grid, time = small_problem.grid, small_problem.time
    pair = SolutionPair(
        u=band_limited_spacetime(grid, time, rng, amp=0.1),
        m=SpaceTimeField(
            grid, time, 1.0 + 0.2 * band_limited_spacetime(grid, time, rng, amp=0.5).values
        ),
    )
    r_m = residual_full(small_problem, lam_data, pair).fp
    vol = grid.cell_volume
    dt = time.dt
    masses = vol * np.sum(pair.m.values, axis=1)
    for n in range(1, time.num_slices):
        spatial_integral = vol * np.sum(r_m.values[n]) - (masses[n] - masses[n - 1]) / dt
        assert abs(spatial_integral) < 1e-12


def test_fp_residual_consistent_with_heat_flow():
    # with zero drift data the transport equation reduces to the heat equation,
    # whose flow from m0 = 1 + 0.2 cos(2 pi x) is 1 + 0.2 exp(-4 pi^2 t) cos(2 pi x)
    problem = make_problem(n=64, n_t=16, horizon=0.04, b_amp=0.0)
    x = problem.grid.coordinates()[0]
    lam_data = LambdaData.from_problem(problem, 0.0)
    grid = problem.grid

    def residual_scale(n_t):
        time = TimeGrid(problem.time.horizon, n_t)
        prob = MFGProblem(
            grid=grid,
            time=time,
            alpha=problem.alpha,
            hamiltonian=problem.hamiltonian,
            b=problem.b,
            potential=problem.potential,
            psi=problem.psi,
            m0=problem.m0,
        )
        decay = np.exp(-4 * np.pi**2 * time.times())[:, None]
        m = SpaceTimeField(grid, time, 1.0 + 0.2 * decay * np.cos(2 * np.pi * x)[None, :])
        u = SpaceTimeField.zeros(grid, time)
        r = residual_full(prob, LambdaData.from_problem(prob, 0.0), SolutionPair(u, m)).fp
        return np.max(np.abs(r.values[1:]))

    coarse = residual_scale(16)
    fine = residual_scale(32)
    assert coarse / fine == pytest.approx(2.0, rel=0.15)


def test_residual_full_bundle_structure(small_problem, rng):
    state = trivial_solution(small_problem)
    lam_data = LambdaData.from_problem(small_problem, 1.0)
    bundle = residual_full(small_problem, lam_data, state.pair)
    assert bundle.sup_norm() <= 1e-12
    assert bundle.fp.values.shape == state.pair.m.values.shape
    assert bundle.hjb.values.shape == state.pair.u.values.shape

    noisy = SolutionPair(
        u=band_limited_spacetime(small_problem.grid, small_problem.time, rng, amp=0.2),
        m=SpaceTimeField(
            small_problem.grid,
            small_problem.time,
            1.0 + 0.1 * band_limited_spacetime(small_problem.grid, small_problem.time, rng).values,
        ),
    )
    noisy_bundle = residual_full(small_problem, lam_data, noisy)
    assert np.isfinite(noisy_bundle.sup_norm())
    assert noisy_bundle.sup_norm() > 1e-6


def test_strict_mode_flags_nonpositive_density(small_problem):
    state = trivial_solution(small_problem)
    pair = state.pair.copy()
    pair.m.values[3, 7] = -0.2
    lam_data = LambdaData.from_problem(small_problem, 1.0)
    with pytest.raises(NonpositiveDensityError) as err:
        residual_full(small_problem, lam_data, pair)
    assert err.value.slice_index == 3
    assert err.value.node_index == 7
    with pytest.raises(NonpositiveDensityError):
        apply_L(small_problem, lam_data, pair, Perturbation(v=pair.u, f=pair.m))


def test_problem_validation():
    grid = PeriodicGrid(1, 16)
    time = TimeGrid(0.05, 8)
    x = grid.coordinates()[0]
    ham = HamiltonianModel(1.5, 1.0)
    b = np.zeros((1, grid.num_nodes))
    pot = Potential(v2_kind="arctan")
    psi = np.zeros(grid.num_nodes)
    good_m0 = np.ones(grid.num_nodes)

    with pytest.raises(ValueError):
        MFGProblem(grid, time, 0.5, ham, b, pot, psi, np.full(grid.num_nodes, 2.0))
    bad_m0 = 1.0 + 1.5 * np.cos(2 * np.pi * x)
    with pytest.raises(ValueError):
        MFGProblem(grid, time, 0.5, ham, b, pot, psi, bad_m0)
    with pytest.raises(ValueError):
        MFGProblem(grid, time, -0.5, ham, b, pot, psi, good_m0)
    with pytest.raises(ValueError):
        Potential(v2_kind="linear", coef=-1.0)
    with pytest.raises(ValueError):
        Potential(v2_kind="unknown")


def test_potential_kinds_monotone():
    for pot in (
        Potential(v2_kind="arctan"),
        Potential(v2_kind="linear", coef=0.5),
        Potential(v2_kind="power", coef=0.1, exponent=2.0),
    ):
        assert pot.monotonicity_margin(0.4, 2.0) > 0.0
    z = np.linspace(0.5, 2.0, 9)
    assert np.allclose(Potential(v2_kind="arctan").dz(z), 1.0 / (1.0 + z * z))
