import numpy as np
import pytest

from mfgcon.continuation import trivial_solution
from mfgcon.galerkin import (
    FourierBasis,
    assemble_galerkin_system,
    shooting_spectrum,
    solve_linearized_galerkin,
)
from mfgcon.grids import PeriodicGrid, SpaceTimeField
from mfgcon.linearized import solve_linearized
from mfgcon.system import LambdaData, ResidualBundle, SolutionPair

from conftest import (
    band_limited_spacetime,
    data_norm,
    make_problem,
    random_bundle,
    slice_l2_norms,
    span_tail,
    sup_gap,
)


def test_basis_orthonormal_and_h1_orthogonal(small_problem):
    basis = FourierBasis.build(small_problem.grid, 9)
    gram = basis.gram()
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12
    vol = small_problem.grid.cell_volume
    stiff = vol * np.einsum("dkm,dlm->kl", basis.grads, basis.grads)
    off = stiff - np.diag(np.diag(stiff))
    assert np.max(np.abs(off)) < 1e-9
    # frequencies 0,1,1,2,2,3,3,4,4 -> stiffness 4 pi^2 k^2
    freqs = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4])
    assert np.allclose(np.diag(stiff), 4 * np.pi**2 * freqs**2, rtol=1e-12)


def test_basis_parseval(small_problem, rng):
    basis = FourierBasis.build(small_problem.grid, 9)
    coeffs = rng.normal(size=9)
    values = basis.reconstruct(coeffs)
    vol = small_problem.grid.cell_volume
    assert vol * np.sum(values**2) == pytest.approx(np.sum(coeffs**2), rel=1e-12)


def test_basis_frequency_cap():
    grid_small = make_problem(n=8).grid
    with pytest.raises(ValueError):
        FourierBasis.build(grid_small, 9)  # would need frequency 4 = Nyquist
    # the frequencies reach up to the Nyquist frequency of any grid
    assert FourierBasis.build(PeriodicGrid(1, 512), 200).n_modes == 200


def test_trivial_base_blocks_are_diagonal_heat(small_problem):
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 1.0)
    basis = FourierBasis.build(small_problem.grid, 7)
    system = assemble_galerkin_system(small_problem, lam, state.pair, basis)
    freqs = np.array([0, 1, 1, 2, 2, 3, 3])
    assert np.allclose(np.diag(system.stiffness), 4 * np.pi**2 * freqs**2)
    assert np.max(np.abs(system.p_blocks)) < 1e-12
    assert np.max(np.abs(system.r_blocks)) < 1e-12
    # value rows couple to the density direction through alpha - 1/2
    expected_g = (small_problem.alpha - 0.5) * np.eye(7)
    assert np.max(np.abs(system.g_blocks[0] - expected_g)) < 1e-12
    # the gradient coupling block is gamma * stiffness for the unit Hessian
    assert np.allclose(system.s_blocks[0], 1.5 * system.stiffness, atol=1e-10)


def test_projected_data_zero_for_zero_sources(small_problem):
    basis = FourierBasis.build(small_problem.grid, 5)
    zeros = SpaceTimeField.zeros(small_problem.grid, small_problem.time)
    assert np.max(np.abs(basis.project(zeros.values))) == 0.0


def test_gradient_coupling_block_symmetric(small_problem, rng):
    # isotropic scalar Hessian coefficient makes the value-gradient block symmetric
    grid, time = small_problem.grid, small_problem.time
    base = SolutionPair(
        u=band_limited_spacetime(grid, time, rng, amp=0.3),
        m=SpaceTimeField(grid, time, 1.0 + 0.2 * band_limited_spacetime(grid, time, rng).values / 3),
    )
    lam = LambdaData.from_problem(small_problem, 0.4)
    basis = FourierBasis.build(grid, 7)
    system = assemble_galerkin_system(small_problem, lam, base, basis)
    for j in (0, time.num_slices // 2, time.num_slices - 1):
        block = system.s_blocks[j]
        assert np.max(np.abs(block - block.T)) < 1e-12


def _marched_shooting_map(system):
    """(A^0, B^0) -> (A^0, B^(N_t)) of the homogeneous rows, marched slice by
    slice from t = 0.  The march amplifies roundoff with the mode count, so it
    is a reference at few modes only."""
    n, dt, k_mat = system.basis.n_modes, system.dt, system.stiffness
    phi = np.eye(2 * n)
    a, b = phi[:n], phi[n:]
    for j in range(1, len(system.p_blocks)):
        b = b + dt * ((k_mat + system.r_blocks[j - 1]) @ b + system.g_blocks[j - 1] @ a)
        a = np.linalg.solve(
            np.eye(n) / dt + k_mat + system.p_blocks[j], a / dt - system.s_blocks[j] @ b
        )
    phi[n:] = b
    return phi


def test_shooting_spectrum_matches_the_marched_map(small_problem, rng):
    grid, time = small_problem.grid, small_problem.time
    perturbed = SolutionPair(
        u=band_limited_spacetime(grid, time, rng, amp=0.3),
        m=SpaceTimeField(grid, time, 1.0 + 0.2 * band_limited_spacetime(grid, time, rng).values / 3),
    )
    cases = [(trivial_solution(small_problem).pair, 1.0, 4),
             (trivial_solution(small_problem).pair, 1.0, 8),
             (perturbed, 0.4, 8)]
    for base, lam_value, n_modes in cases:
        lam = LambdaData.from_problem(small_problem, lam_value)
        basis = FourierBasis.build(grid, n_modes)
        system = assemble_galerkin_system(small_problem, lam, base, basis)
        sigma = shooting_spectrum(system)
        expected = np.linalg.svd(_marched_shooting_map(system), compute_uv=False)
        assert sigma.shape == (2 * n_modes,)
        assert np.all(sigma > 0.0) and np.all(np.diff(sigma) <= 0.0)
        assert np.allclose(sigma, expected, rtol=1e-9, atol=0.0)


def _dense_rows(system):
    """All slices' projected rows as one dense matrix, read off the rows in
    :class:`GalerkinSystem`'s docstring; the unknowns are (A^j, B^j) slice by
    slice, and each slice's transport rows come before its value rows."""
    k1, n = system.p_blocks.shape[:2]
    dt, eye = system.dt, np.eye(n)
    heat = eye / dt + system.stiffness
    rows = np.zeros((k1, 2, n, k1, 2, n))  # [slice, half, row, slice, half, unknown]
    rows[0, 0, :, 0, 0] = eye
    rows[-1, 1, :, -1, 1] = eye
    for j in range(1, k1):
        rows[j, 0, :, j, 0] = heat + system.p_blocks[j]
        rows[j, 0, :, j, 1] = system.s_blocks[j]
        rows[j, 0, :, j - 1, 0] = -eye / dt
    for j in range(k1 - 1):
        rows[j, 1, :, j, 0] = system.g_blocks[j]
        rows[j, 1, :, j, 1] = heat + system.r_blocks[j]
        rows[j, 1, :, j + 1, 1] = -eye / dt
    return rows.reshape(k1 * 2 * n, k1 * 2 * n)


@pytest.mark.parametrize("dim, n, n_t, n_modes", [(1, 32, 16, 8), (2, 8, 8, 9)], ids=["d1", "d2"])
def test_direct_solve_matches_the_dense_rows(dim, n, n_t, n_modes):
    problem = make_problem(n=n, n_t=n_t, dim=dim)
    grid, time = problem.grid, problem.time
    rng = np.random.default_rng(21)
    base = SolutionPair(
        u=band_limited_spacetime(grid, time, rng, amp=0.3),
        m=SpaceTimeField(grid, time, 1.0 + 0.2 * band_limited_spacetime(grid, time, rng).values / 3),
    )
    lam = LambdaData.from_problem(problem, 0.4)
    basis = FourierBasis.build(grid, n_modes)
    dense = _dense_rows(assemble_galerkin_system(problem, lam, base, basis))
    for _ in range(3):
        rhs = random_bundle(problem, rng)
        data = np.concatenate([basis.project(rhs.fp.values), basis.project(rhs.hjb.values)], axis=1)
        expected = np.linalg.solve(dense, data.ravel()).reshape(data.shape)
        pert = solve_linearized_galerkin(problem, lam, base, basis, rhs)
        coeffs = np.concatenate([basis.project(pert.f.values), basis.project(pert.v.values)], axis=1)
        assert np.max(np.abs(coeffs - expected)) <= 1e-12 * np.max(np.abs(expected))
    zeros = SpaceTimeField.zeros(grid, time)
    pert = solve_linearized_galerkin(problem, lam, base, basis, ResidualBundle(fp=zeros, hjb=zeros))
    assert pert.sup_norm() == 0.0


@pytest.mark.parametrize("n_modes", [6, 8])
def test_homogeneous_zero_data_gives_zero_trajectory(small_problem, n_modes):
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 1.0)
    basis = FourierBasis.build(small_problem.grid, n_modes)
    zeros = SpaceTimeField.zeros(small_problem.grid, small_problem.time)
    rhs = ResidualBundle(fp=zeros, hjb=zeros)
    pert = solve_linearized_galerkin(small_problem, lam, state.pair, basis, rhs)
    assert pert.v.sup_norm() == 0.0
    assert pert.f.sup_norm() == 0.0


def test_cross_validation_against_monolithic_solve():
    # both paths discretize in time alike, so on the trivial base, whose
    # linearization is diagonal in Fourier, they agree to the Krylov
    # tolerance at every time resolution
    for n_t in (32, 64):
        problem = make_problem(n=64, n_t=n_t, horizon=0.05)
        state = trivial_solution(problem)
        lam = LambdaData.from_problem(problem, 1.0)
        basis = FourierBasis.build(problem.grid, 8)
        rhs = random_bundle(problem, np.random.default_rng(3))
        pert_gal = solve_linearized_galerkin(problem, lam, state.pair, basis, rhs)
        pert_mono = solve_linearized(problem, lam, state.pair, rhs)
        assert sup_gap(pert_gal, pert_mono) <= 1e-8

    # on a perturbed base the modes couple: the gap is the monolithic
    # solution's part outside the span, and nothing inside it beyond the
    # roundoff of the two solves, at every mode count.  The base with u
    # perturbed stays blunt: the Hessian of |p|^1.5 is singular at p = 0,
    # which a periodic Du must cross, so its coefficients are not smooth
    # there and the span tail is still 4.0e-2 at 32 modes.  With m alone
    # perturbed Du = 0, and the tail falls to 2.6e-8 at 32 modes, where a
    # 1e-5 relative error in flux_a or drift_coef of the monolithic solve
    # fails the gate
    rng = np.random.default_rng(4)
    grid, time = problem.grid, problem.time
    du = band_limited_spacetime(grid, time, rng, amp=0.05).values
    m = SpaceTimeField(grid, time, 1.0 + 0.1 * band_limited_spacetime(grid, time, rng).values / 3)
    lam = LambdaData.from_problem(problem, 0.4)
    for u in (state.pair.u.values + du, state.pair.u.values):
        base = SolutionPair(u=SpaceTimeField(grid, time, u), m=m)
        pert_mono = solve_linearized(problem, lam, base, rhs)
        assert span_tail(FourierBasis.build(grid, 8), pert_mono) > 1e-6
        for n_modes in (8, 16, 32):
            basis = FourierBasis.build(grid, n_modes)
            pert_gal = solve_linearized_galerkin(problem, lam, base, basis, rhs)
            assert sup_gap(pert_gal, pert_mono) <= 1.1 * span_tail(basis, pert_mono) + 1e-9


def test_energy_bound_single_constant(small_problem):
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 1.0)
    basis = FourierBasis.build(small_problem.grid, 8)
    rng = np.random.default_rng(12)
    ratios = []
    for _ in range(20):
        rhs = random_bundle(small_problem, rng)
        pert = solve_linearized_galerkin(small_problem, lam, state.pair, basis, rhs)
        ratios.append(np.max(slice_l2_norms(pert)) / data_norm(rhs))
    achieved = max(ratios)
    assert np.isfinite(achieved) and achieved < 10.0


@pytest.mark.parametrize("n_modes", [4, 8, 16])
def test_stepwise_energy_inequalities_uniform_in_modes(n_modes):
    # the two differential inequalities behind the energy estimate, evaluated
    # with the coefficient derivative the projected rows give at every slice
    # that carries a source; the required constant must not grow with the
    # mode count
    problem = make_problem(n=64, n_t=32, horizon=0.05)
    state = trivial_solution(problem)
    lam = LambdaData.from_problem(problem, 1.0)
    basis = FourierBasis.build(problem.grid, n_modes)
    system = assemble_galerkin_system(problem, lam, state.pair, basis)
    rng = np.random.default_rng(8)
    rhs = random_bundle(problem, rng)
    pert = solve_linearized_galerkin(problem, lam, state.pair, basis, rhs)
    a_coeffs = basis.project(pert.f.values)  # (K+1, n)
    b_coeffs = basis.project(pert.v.values)
    hv = basis.project(rhs.fp.values)
    gv = -basis.project(rhs.hjb.values)
    k_mat = system.stiffness
    needed_f, needed_v = 0.0, 0.0
    for n in range(problem.time.num_slices):
        a, bb = a_coeffs[n], b_coeffs[n]
        df2 = a @ k_mat @ a
        dv2 = bb @ k_mat @ bb
        if n > 0:  # transport source rows
            adot = hv[n] - (k_mat + system.p_blocks[n]) @ a - system.s_blocks[n] @ bb
            lhs_f = 2 * a @ adot + df2
            rhs_f = np.sum(hv[n] ** 2) + dv2 + np.sum(a**2)
            if rhs_f > 1e-12:
                needed_f = max(needed_f, lhs_f / rhs_f)
        if n < problem.time.steps:  # value source rows
            bdot = gv[n] + (k_mat + system.r_blocks[n]) @ bb + system.g_blocks[n] @ a
            lhs_v = 2 * bb @ bdot - dv2
            rhs_v = np.sum(gv[n] ** 2) + np.sum(bb**2) + np.sum(a**2)
            if rhs_v > 1e-12:
                needed_v = max(needed_v, -lhs_v / rhs_v)
    # analytic constants at this base: C_f <= max(1, 2 gamma^2), C_v ~ 2
    assert needed_f <= 4.6
    assert needed_v <= 3.0
