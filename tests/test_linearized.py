import os

import numpy as np
import pytest

from mfgcon.continuation import solve_path, trivial_solution
from mfgcon import linearized, system
from mfgcon.fileio import build_problem, load_config
from mfgcon.grids import (
    SpaceTimeField,
    _grad_lap_stack,
    _irfft_stack,
    _rfft_stack,
    _spectra,
)
from mfgcon.linearized import (
    LinearSolveError,
    Perturbation,
    _base_coefficients,
    _gmres,
    _heat_chain_preconditioner,
    _right_preconditioned_apply,
    apply_L,
    bundle_to_vector,
    solve_linearized,
    vector_to_perturbation,
)
from mfgcon.system import (
    LambdaData,
    ResidualBundle,
    SolutionPair,
    _PairTerms,
    residual_full,
)

from conftest import (
    band_limited_spacetime,
    congestion_stack,
    grad_stack,
    make_problem,
    random_bundle,
)

REFERENCE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.cfg")


def perturbed_base(problem, rng, amp=0.05):
    grid, time = problem.grid, problem.time
    u = band_limited_spacetime(grid, time, rng, amp=amp)
    m = SpaceTimeField(
        grid, time, 1.0 + 0.3 * amp * band_limited_spacetime(grid, time, rng, amp=1.0).values
    )
    return SolutionPair(u=u, m=m)


def random_direction(problem, rng, amp=1.0):
    return Perturbation(
        v=band_limited_spacetime(problem.grid, problem.time, rng, amp=amp),
        f=band_limited_spacetime(problem.grid, problem.time, rng, amp=amp),
    )


def test_zero_direction_maps_to_zero(small_problem):
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 1.0)
    zero = Perturbation(
        v=SpaceTimeField.zeros(small_problem.grid, small_problem.time),
        f=SpaceTimeField.zeros(small_problem.grid, small_problem.time),
    )
    out = apply_L(small_problem, lam, state.pair, zero)
    assert out.sup_norm() == 0.0


def test_linearity(small_problem, rng):
    base = perturbed_base(small_problem, rng)
    lam = LambdaData.from_problem(small_problem, 0.4)
    d1 = random_direction(small_problem, rng)
    d2 = random_direction(small_problem, rng)
    a, b = 0.7, -1.3
    combo = Perturbation(
        v=SpaceTimeField(
            small_problem.grid, small_problem.time, a * d1.v.values + b * d2.v.values
        ),
        f=SpaceTimeField(
            small_problem.grid, small_problem.time, a * d1.f.values + b * d2.f.values
        ),
    )
    lhs = bundle_to_vector(apply_L(small_problem, lam, base, combo))
    rhs = a * bundle_to_vector(apply_L(small_problem, lam, base, d1)) + b * bundle_to_vector(
        apply_L(small_problem, lam, base, d2)
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_directional_derivative_first_order(small_problem):
    rng = np.random.default_rng(77)
    lam = LambdaData.from_problem(small_problem, 0.5)
    for trial in range(5):
        base = perturbed_base(small_problem, rng)
        direction = random_direction(small_problem, rng)
        exact = bundle_to_vector(apply_L(small_problem, lam, base, direction))
        r0 = bundle_to_vector(residual_full(small_problem, lam, base))
        errors = []
        for eps in (1e-3, 1e-4, 1e-5):
            moved = SolutionPair(
                u=SpaceTimeField(
                    small_problem.grid,
                    small_problem.time,
                    base.u.values + eps * direction.v.values,
                ),
                m=SpaceTimeField(
                    small_problem.grid,
                    small_problem.time,
                    base.m.values + eps * direction.f.values,
                ),
            )
            fd = (bundle_to_vector(residual_full(small_problem, lam, moved)) - r0) / eps
            errors.append(np.max(np.abs(fd - exact)))
        assert errors[0] > errors[1] > errors[2]
        order = np.log10(errors[0] / errors[2]) / 2.0
        assert order >= 1.0 - 1e-3


def test_constant_coefficient_symbol_at_trivial_base():
    # hand-computed response at the explicit endpoint: a pure cosine density
    # direction feeds the transport rows through the Laplacian only and the
    # value rows through alpha m^(alpha-1) (H - Q.DpH) - dV/dz = alpha - 1/2
    problem = make_problem(alpha=0.3)
    state = trivial_solution(problem)
    lam = LambdaData.from_problem(problem, 1.0)
    x = problem.grid.coordinates()[0]
    cos_x = np.cos(2 * np.pi * x)
    ones_t = np.ones((problem.time.num_slices, 1))
    direction = Perturbation(
        v=SpaceTimeField.zeros(problem.grid, problem.time),
        f=SpaceTimeField(problem.grid, problem.time, ones_t * cos_x[None, :]),
    )
    out = apply_L(problem, lam, state.pair, direction)
    expect_fp = 4 * np.pi**2 * cos_x
    for n in range(1, problem.time.num_slices):
        assert np.max(np.abs(out.fp.values[n] - expect_fp)) < 1e-10
    assert np.max(np.abs(out.fp.values[0] - cos_x)) < 1e-15
    expect_hjb = (0.3 - 0.5) * cos_x
    for n in range(problem.time.num_slices - 1):
        assert np.max(np.abs(out.hjb.values[n] - expect_hjb)) < 1e-12
    assert np.max(np.abs(out.hjb.values[-1])) == 0.0


def test_single_mode_stays_single_mode_at_trivial_base(small_problem):
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 1.0)
    grid, time = small_problem.grid, small_problem.time
    x = grid.coordinates()[0]
    for k in (1, 3):
        mode = np.sin(2 * np.pi * k * x)
        direction = Perturbation(
            v=SpaceTimeField(grid, time, np.outer(np.linspace(1, 2, time.num_slices), mode)),
            f=SpaceTimeField(grid, time, np.outer(np.linspace(2, 1, time.num_slices), mode)),
        )
        out = apply_L(small_problem, lam, state.pair, direction)
        for rows in (out.fp.values, out.hjb.values):
            spec = np.fft.fft(rows, axis=1)
            mask = np.ones(grid.num_nodes, dtype=bool)
            mask[[k, grid.num_nodes - k]] = False
            assert np.max(np.abs(spec[:, mask])) < 1e-9 * max(np.max(np.abs(spec)), 1.0)


@pytest.mark.parametrize(
    "dim, lam_value",
    [(1, 0.0), (1, 0.3), (1, 0.6), (2, 0.6)],
    ids=["d1-lam0.0", "d1-lam0.3", "d1-lam0.6", "d2-lam0.6"],
)
def test_krylov_solve_inverts_the_operator(small_problem, dim, lam_value):
    # d = 2 on 32x32 nodes x 33 slices: 67,584 unknowns
    problem = small_problem if dim == 1 else make_problem(n=32, n_t=32, dim=2)
    rng = np.random.default_rng(21)
    base = perturbed_base(problem, rng)
    lam = LambdaData.from_problem(problem, lam_value)
    known = random_direction(problem, rng, amp=0.3)
    rhs = apply_L(problem, lam, base, known)  # consistent right-hand side
    sol = solve_linearized(problem, lam, base, rhs)
    rhs_vec = bundle_to_vector(rhs)
    achieved = bundle_to_vector(apply_L(problem, lam, base, sol)) - rhs_vec
    assert np.linalg.norm(achieved) <= 1e-9 * np.linalg.norm(rhs_vec)
    assert np.max(np.abs(sol.v.values - known.v.values)) < 1e-8
    assert np.max(np.abs(sol.f.values - known.f.values)) < 1e-8


def _counted(matrix):
    """Matvec by ``matrix`` and the list whose length counts its calls."""
    calls = []

    def apply(y):
        calls.append(None)
        return matrix @ y

    return apply, calls


def test_gmres_matches_a_dense_solve():
    rng = np.random.default_rng(3)
    matrix = np.eye(8) + 0.4 * rng.normal(size=(8, 8))  # nonsymmetric
    rhs = rng.normal(size=8)
    apply, calls = _counted(matrix)
    y = _gmres(apply, rhs, 1e-12)
    assert len(calls) <= 8
    assert np.max(np.abs(y - np.linalg.solve(matrix, rhs))) <= 1e-12


def test_gmres_restarts_and_meets_rtol_in_its_true_residual():
    # a spread spectrum keeps GMRES(10) well short of 1e-8 after one cycle
    matrix = np.diag(np.linspace(1.0, 50.0, 60))
    matrix[0, 1] = 1.0
    rhs = np.random.default_rng(4).normal(size=60)
    apply, calls = _counted(matrix)
    y = _gmres(apply, rhs, 1e-8)
    assert len(calls) > 2 * linearized._GMRES_RESTART
    assert np.linalg.norm(matrix @ y - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_gmres_stops_on_an_exact_breakdown():
    # A v_0 = v_0 exactly, so Arnoldi breaks down after one apply; the zero
    # estimate meets even rtol = 0
    rhs = np.zeros(6)
    rhs[3] = 4.0
    apply, calls = _counted(np.eye(6))
    y = _gmres(apply, rhs, 0.0)
    assert len(calls) == 1
    assert np.array_equal(y, rhs)


@pytest.mark.parametrize("kind", ["cyclic_shift", "zero"])
def test_gmres_that_cannot_converge_raises_after_the_apply_cap(kind):
    # the cyclic shift stagnates: every Krylov space of dimension below 40
    # leaves the residual of e_0 at its full norm; the zero operator breaks
    # down with a singular Hessenberg matrix
    matrix = np.roll(np.eye(40), 1, axis=0) if kind == "cyclic_shift" else np.zeros((40, 40))
    rhs = np.zeros(40)
    rhs[0] = 1.0
    apply, calls = _counted(matrix)
    with pytest.raises(LinearSolveError) as err:
        _gmres(apply, rhs, 1e-6)
    assert len(calls) == linearized._MAX_APPLIES
    assert str(err.value) == (
        "Krylov solve did not converge: relative residual estimate 1.00e+00 > "
        f"rtol 1.0e-06 after {linearized._MAX_APPLIES} applies"
    )


def test_gmres_fails_at_once_on_a_nan_apply():
    def nan_apply(y):
        out = y.copy()
        out[0] = np.nan
        return out

    with pytest.raises(LinearSolveError, match="estimate nan > rtol 1.0e-10 after 1 applies"):
        _gmres(nan_apply, np.ones(20), 1e-10)


@pytest.fixture(scope="module")
def reference_zero_state():
    cfg = load_config(REFERENCE_CFG)
    problem = build_problem(cfg)
    states = solve_path(problem, cfg.solver)
    assert states[-1].lam == 0.0
    return problem, states[-1].pair


@pytest.mark.parametrize("rtol", [1e-1, 1e-4, 1e-8, 1e-10])
def test_estimate_stop_keeps_the_true_residual_at_rtol(reference_zero_state, rtol):
    # the solve stops on the Arnoldi estimate; at the solved reference state
    # the true relative residual of L w = rhs must follow it
    problem, pair = reference_zero_state
    lam = LambdaData.from_problem(problem, 0.0)
    rhs = random_bundle(problem, np.random.default_rng(31))
    w = solve_linearized(problem, lam, pair, rhs, rtol=rtol)
    rhs_vec = bundle_to_vector(rhs)
    achieved = bundle_to_vector(apply_L(problem, lam, pair, w)) - rhs_vec
    assert np.linalg.norm(achieved) <= 2.0 * rtol * np.linalg.norm(rhs_vec)


def test_solve_rejects_an_rtol_below_the_krylov_floor(reference_zero_state):
    # below about 1e-12 the Arnoldi estimate goes on falling after the true
    # residual has levelled off, so such a solve would report false success
    problem, pair = reference_zero_state
    lam = LambdaData.from_problem(problem, 0.0)
    rhs = random_bundle(problem, np.random.default_rng(31))
    floor = r"rtol 1\.0e-14 is below the Krylov floor _KRYLOV_RTOL = 1e-10"
    with pytest.raises(ValueError, match=floor):
        solve_linearized(problem, lam, pair, rhs, rtol=1e-14)


@pytest.mark.parametrize("dim, n", [(1, 32), (2, 16)], ids=["d1", "d2"])
def test_heat_chain_preconditioner_inverts_decoupled_chains(dim, n):
    problem = make_problem(n=n, n_t=12, dim=dim)
    grid, dt = problem.grid, problem.time.dt
    rng = np.random.default_rng(3)
    v = rng.normal(size=(problem.time.num_slices, grid.num_nodes))
    f = rng.normal(size=v.shape)
    # implicit heat rows of the value chain (backward, terminal row last) and
    # the density chain (forward, initial row first)
    rows_v = v.copy()
    rows_v[:-1] = (v[:-1] - v[1:]) / dt - _grad_lap_stack(v[:-1], grid)[dim]
    rows_f = f.copy()
    rows_f[1:] = (f[1:] - f[:-1]) / dt - _grad_lap_stack(f[1:], grid)[dim]
    chains = _heat_chain_preconditioner(problem)
    back = _irfft_stack(chains(np.concatenate([rows_v.ravel(), rows_f.ravel()])), grid).ravel()
    assert np.max(np.abs(back - np.concatenate([v.ravel(), f.ravel()]))) < 1e-12


def march_and_recurrence(problem):
    """The chains' march of random rows, and the same chains marched slice by slice."""
    grid, k, dt = problem.grid, problem.time.num_slices, problem.time.dt
    rng = np.random.default_rng(5)
    rows = rng.normal(size=2 * k * grid.num_nodes)
    spec = _rfft_stack(rows.reshape(2, k, grid.num_nodes), grid)
    sym = 1.0 / (1.0 / dt + _spectra(grid.dim, grid.points_per_dim)[1])
    spec[0] = spec[0, ::-1]  # the value chain runs backward from its terminal row
    for n in range(1, k):
        spec[:, n] = sym * (spec[:, n] + spec[:, n - 1] / dt)
    spec[0] = spec[0, ::-1]
    chains = _heat_chain_preconditioner(problem)
    chains(rng.normal(size=rows.shape))  # an earlier march leaves nothing behind
    return chains(rows), spec


def smallest_chain_factor(problem):
    dt = problem.time.dt
    return np.min(1.0 / (1.0 + dt * _spectra(problem.grid.dim, problem.grid.points_per_dim)[1]))


@pytest.mark.parametrize("n_t", [1, 2, 3, 4, 5, 12, 32])
@pytest.mark.parametrize("dim", [1, 2], ids=["d1", "d2"])
def test_blocked_chain_march_matches_the_per_slice_recurrence(dim, n_t):
    # n_t + 1 slices, each grid in a single block under the default weight bound
    problem = make_problem(n=32 if dim == 1 else 16, n_t=n_t, dim=dim)
    got, ref = march_and_recurrence(problem)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("block", [1, 4, 11, 32])
@pytest.mark.parametrize("dim", [1, 2], ids=["d1", "d2"])
def test_chain_march_in_several_blocks_matches_the_recurrence(dim, block, monkeypatch):
    # 33 slices: blocks of one slice, ragged last blocks (4 and 32) and whole
    # blocks (11), from a weight bound just above c_min^-(block - 1)
    problem = make_problem(n=32 if dim == 1 else 16, n_t=32, dim=dim)
    weight_max = 1.5 * smallest_chain_factor(problem) ** -(block - 1.0)
    monkeypatch.setattr(linearized, "_CHAIN_WEIGHT_MAX", weight_max)
    got, ref = march_and_recurrence(problem)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_fine_grid_chain_march_stays_finite():
    # one block of all 257 slices would weigh its last slice by c_min^-256,
    # past the float64 range; the weight bound splits it instead
    problem = make_problem(n=256, n_t=256, horizon=0.05)
    k = problem.time.num_slices
    assert -(k - 1) * np.log(smallest_chain_factor(problem)) > np.log(np.finfo(float).max)
    got, ref = march_and_recurrence(problem)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _count_pair_terms(monkeypatch):
    # residual_full calls the system module's name, a fresh linearization its own
    calls = []
    real = system._pair_terms

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(system, "_pair_terms", counting)
    monkeypatch.setattr(linearized, "_pair_terms", counting)
    return calls


def _without_terms(bundle):
    return ResidualBundle(fp=bundle.fp, hjb=bundle.hjb)


@pytest.mark.parametrize("dim", [1, 2], ids=["d1", "d2"])
def test_newton_solve_reuses_the_residual_terms_exactly(small_problem, dim, monkeypatch):
    problem = small_problem if dim == 1 else make_problem(n=16, n_t=12, dim=2)
    base = perturbed_base(problem, np.random.default_rng(12))
    lam = LambdaData.from_problem(problem, 0.6)
    rhs = residual_full(problem, lam, base)
    calls = _count_pair_terms(monkeypatch)
    reused = solve_linearized(problem, lam, base, rhs, rtol=1e-3)
    assert calls == []
    fresh = solve_linearized(problem, lam, base, _without_terms(rhs), rtol=1e-3)
    assert len(calls) == 1
    assert np.array_equal(reused.v.values, fresh.v.values)
    assert np.array_equal(reused.f.values, fresh.f.values)


def test_terms_of_another_evaluation_are_never_reused(monkeypatch):
    # perfbench's set-up solves at lambda = 1 on a residual taken at 0.9; with a
    # nonunit weight H differs between the two, so stale terms would show
    problem = make_problem(weight=2.0)
    pair = trivial_solution(problem).pair
    lam_one = LambdaData.from_problem(problem, 1.0)
    rhs = residual_full(problem, LambdaData.from_problem(problem, 0.9), pair)
    stale = _PairTerms(**{**vars(rhs.terms), "lam_data": lam_one})
    assert not np.array_equal(
        _base_coefficients(problem, lam_one, pair, stale).zero_order_u,
        _base_coefficients(problem, lam_one, pair).zero_order_u,
    )
    calls = _count_pair_terms(monkeypatch)
    got = solve_linearized(problem, lam_one, pair, rhs)
    expect = solve_linearized(problem, lam_one, pair, _without_terms(rhs))
    assert len(calls) == 2
    assert np.array_equal(got.v.values, expect.v.values)
    assert np.array_equal(got.f.values, expect.f.values)
    # equal data in another LambdaData, or a copy of the pair, is another evaluation
    same_lam = residual_full(problem, LambdaData.from_problem(problem, 1.0), pair)
    assert not same_lam.terms.taken_at(lam_one, pair)
    assert not residual_full(problem, lam_one, pair).terms.taken_at(lam_one, pair.copy())


@pytest.mark.parametrize(
    "dim, lam_value",
    [(1, 0.0), (1, 0.6), (2, 0.6)],
    ids=["d1-lam0.0", "d1-lam0.6", "d2-lam0.6"],
)
def test_right_preconditioned_apply_is_L_after_the_chain_inverse(small_problem, dim, lam_value):
    # the fused apply is I + N H^-1; it must equal L applied to H^-1 y
    problem = small_problem if dim == 1 else make_problem(n=16, n_t=12, dim=2)
    grid = problem.grid
    rng = np.random.default_rng(8)
    base = perturbed_base(problem, rng)
    lam = LambdaData.from_problem(problem, lam_value)
    y = rng.normal(size=2 * problem.time.num_slices * grid.num_nodes)
    chains = _heat_chain_preconditioner(problem)
    fused = _right_preconditioned_apply(problem, _base_coefficients(problem, lam, base), chains)(y)
    w = vector_to_perturbation(_irfft_stack(chains(y), grid).ravel(), problem)
    expect = bundle_to_vector(apply_L(problem, lam, base, w))
    assert np.max(np.abs(fused - expect)) <= 1e-12 * np.max(np.abs(expect))


def energy_identity_sides(problem, lam, base, direction):
    """Discrete pairing of the homogeneous rows against the direction versus
    the quadrature of the uniqueness integrand (zero-momentum centered)."""
    grid, time = problem.grid, problem.time
    rows = apply_L(problem, lam, base, direction)
    v, f = direction.v.values, direction.f.values
    dt, vol = time.dt, grid.cell_volume
    lhs = dt * vol * (
        np.sum(rows.fp.values[1:] * v[1:]) - np.sum(rows.hjb.values[:-1] * f[:-1])
    )
    alpha = problem.alpha
    du = grad_stack(base.u.values, grid)
    m = np.maximum(base.m.values, system._M_FLOOR)
    q = congestion_stack(du, base.m.values, alpha, system._M_FLOOR)
    ham = lam.hamiltonian
    h = ham.value(q)
    h0 = ham.value(np.zeros_like(q))
    dph = ham.grad(q)
    a_c, b_c = ham.hess_coeffs(q)
    qn2 = np.sum(q * q, axis=0)
    dv = grad_stack(v, grid)
    raw = np.sum(q * dph, axis=0) - h - 0.25 * alpha * (a_c + b_c * qn2) * qn2
    s1 = alpha * m ** (alpha - 1.0) * f**2 * raw
    s1_centered = s1 + alpha * m ** (alpha - 1.0) * f**2 * h0
    w = m ** (1.0 - alpha) * dv - 0.5 * alpha * f * q
    hw = a_c * w + b_c * np.sum(q * w, axis=0) * q
    s2 = m ** (alpha - 1.0) * np.sum(w * hw, axis=0)
    s3 = lam.potential_dz(base.m.values) * f**2
    rhs = vol * np.trapezoid(np.sum(s1 + s2 + s3, axis=1), dx=dt)
    return lhs, rhs, s1_centered, s2, s3


@pytest.mark.parametrize("n_t_pair", [(16, 64)])
def test_energy_identity_reproduces_uniqueness_integrand(n_t_pair):
    gaps = []
    for n_t in n_t_pair:
        problem = make_problem(n=32, n_t=n_t, horizon=0.04)
        rng = np.random.default_rng(10)
        base = perturbed_base(problem, rng, amp=0.05)
        lam = LambdaData.from_problem(problem, 0.3)
        v = band_limited_spacetime(problem.grid, problem.time, rng, amp=1.0)
        f = band_limited_spacetime(problem.grid, problem.time, rng, amp=1.0)
        v.values[-1] = 0.0  # boundary rows drop out of the pairing
        f.values[0] = 0.0
        direction = Perturbation(v=v, f=f)
        lhs, rhs, s1c, s2, s3 = energy_identity_sides(problem, lam, base, direction)
        gaps.append(abs(lhs - rhs) / abs(rhs))
        # the three summands of the integrand keep their sign node by node
        assert np.min(s1c) >= -1e-12
        assert np.min(s2) >= -1e-13
        assert np.min(s3) >= 0.0
    assert gaps[0] < 0.06
    assert gaps[0] / gaps[1] > 2.0  # first-order shrink under time refinement


def test_vector_roundtrip(small_problem, rng):
    direction = random_direction(small_problem, rng)
    x = np.concatenate([direction.v.values.ravel(), direction.f.values.ravel()])
    back = vector_to_perturbation(x, small_problem)
    assert np.array_equal(back.v.values, direction.v.values)
    assert np.array_equal(back.f.values, direction.f.values)
