import numpy as np
import pytest

from mfgcon import estimates
from mfgcon.continuation import solve_path, trivial_solution
from mfgcon.estimates import (
    check_exponents,
    check_gradient_bound,
    check_hypotheses,
    check_integral_estimates,
    check_inverse_m,
    check_mass,
    check_uniqueness_integrand,
    check_value_bounds,
    run_all_checks,
    _spectral_pass,
)
from mfgcon.grids import PeriodicGrid, SpaceTimeField, integrate
from mfgcon.system import _M_FLOOR, LambdaData, Potential, SolutionPair

from conftest import congestion_stack, fourier_interpolate, grad_stack, make_problem


@pytest.fixture(scope="module")
def solved(small_problem):
    states = solve_path(small_problem)
    return states[-1]


def test_derived_exponents():
    rec = check_exponents(make_problem(gamma=1.5, alpha=0.5))
    assert rec.passed
    assert rec.values["alpha_bar"] == pytest.approx(0.25, abs=1e-15)
    assert rec.values["q_of_2"] == pytest.approx(3.0, abs=1e-12)
    # (gamma-1)*alpha >= 1 leaves the integrability ladder undefined
    rec = check_exponents(make_problem(gamma=1.9, alpha=1.2))
    assert not rec.passed
    assert rec.values["alpha_bar"] == pytest.approx(1.08, abs=1e-12)
    assert np.isnan(rec.values["q_of_2"])


def test_mass_check_trivial_and_corrupted(small_problem):
    state = trivial_solution(small_problem)
    rec = check_mass(state.pair)
    assert rec.passed and rec.values["max_deviation"] <= 1e-14

    corrupted = state.pair.copy()
    corrupted.m.values[5, 3] += 1e-3
    rec = check_mass(corrupted)
    assert not rec.passed
    assert rec.location == {"slice": 5}


def test_value_bound_on_trivial_pair(small_problem):
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 1.0)
    rec = check_value_bounds(state.pair, lam)
    # u = (1 - pi/4)(t - T) sits above -(T - t) * arctan(1) since 1 - pi/4 < pi/4;
    # the terminal slice attains the bound exactly, so the margin is zero there
    assert rec.passed
    assert rec.values["v_max"] == pytest.approx(np.pi / 4.0, rel=1e-12)
    assert rec.values["margin"] >= 0.0
    slope_gap = np.pi / 4.0 - (1.0 - np.pi / 4.0)
    assert slope_gap > 0.0
    # and below (T - t) * arctan(1), which it also meets at the terminal slice
    assert rec.values["upper_margin"] == 0.0


def test_value_bound_fails_above_the_upper_bound(small_problem):
    # one interior node 1e-6 above (T - t) Vmax + Psimax fails the record
    # while the lower margin stays what it was
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 1.0)
    clean = check_value_bounds(state.pair, lam)
    time = small_problem.time
    u = state.pair.u.values.copy()
    bound = (time.horizon - time.times()[3]) * clean.values["v_max"] + clean.values["psi_max"]
    u[3, 5] = bound + 1e-6
    pair = SolutionPair(u=SpaceTimeField(small_problem.grid, time, u), m=state.pair.m)
    rec = check_value_bounds(pair, lam)
    assert not rec.passed
    assert rec.values["margin"] == clean.values["margin"]
    assert rec.values["upper_margin"] == pytest.approx(-1e-6, rel=1e-6)


def test_value_bound_degenerate_data(small_problem):
    # vanishing coupling and terminal cost collapse the bound to |u| <= 1e-8
    state = trivial_solution(small_problem)
    pair = SolutionPair(
        u=SpaceTimeField.zeros(small_problem.grid, small_problem.time),
        m=state.pair.m.copy(),
    )
    tiny = LambdaData(
        lam=0.0,
        hamiltonian=small_problem.hamiltonian,
        b_values=np.zeros_like(small_problem.b),
        psi_values=np.zeros(small_problem.grid.num_nodes),
        m_init_values=np.ones(small_problem.grid.num_nodes),
        potential=Potential(v2_kind="linear", coef=1e-15),
    )
    rec = check_value_bounds(pair, tiny)
    assert rec.passed
    assert abs(rec.values["v_max"]) < 1e-12
    assert rec.values["margin"] >= -1e-8
    assert rec.values["upper_margin"] >= -1e-8


def test_integral_estimates_trivial_pair(small_problem):
    state = trivial_solution(small_problem)
    rec = check_integral_estimates(_spectral_pass(state.pair, small_problem))
    assert rec.passed
    assert rec.values["momentum_over_density"] == pytest.approx(0.0, abs=1e-20)
    assert rec.values["momentum_weighted"] == pytest.approx(0.0, abs=1e-20)
    assert rec.values["density_power_max"] == pytest.approx(1.0, rel=1e-12)


def test_inverse_density_checks(small_problem):
    state = trivial_solution(small_problem)
    rec = check_inverse_m(state.pair)
    assert rec.passed
    assert rec.values["inverse_sup"] == pytest.approx(1.0, rel=1e-14)
    assert rec.values["int_m^-2_max"] == pytest.approx(1.0, rel=1e-14)

    # an initial slice with structure: quadrature matches the refined grid
    grid = small_problem.grid
    fine_grid = PeriodicGrid(grid.dim, 2 * grid.points_per_dim)
    coarse = integrate(small_problem.m0**-2.0, grid)
    fine_m0 = fourier_interpolate(small_problem.m0, fine_grid.points_per_dim, grid)
    fine = integrate(fine_m0**-2.0, fine_grid)
    assert abs(coarse - fine) < 1e-8

    bad = state.pair.copy()
    bad.m.values[2, 4] = -0.1
    rec = check_inverse_m(bad)
    assert not rec.passed
    assert rec.location == {"slice": 2, "node": 4}


def test_uniqueness_integrand_trivial_pair(small_problem):
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 1.0)
    rec = check_uniqueness_integrand(state.pair, small_problem, lam)
    assert rec.passed
    # zero momentum everywhere: the sign check is vacuous there, while the
    # curvature equals gamma and the coupling slope is d/dz arctan at z = 1
    assert rec.values["hessian_eig_min"] == pytest.approx(1.5, rel=1e-12)
    assert rec.values["coupling_dz_min"] == pytest.approx(0.5, rel=1e-12)
    assert check_exponents(small_problem).values["alpha_bound_margin"] == pytest.approx(
        4 / 1.5 - 0.5, rel=1e-12
    )


def test_uniqueness_integrand_flags_large_alpha(small_problem):
    big_alpha = make_problem(alpha=3.0)
    lam = LambdaData.from_problem(big_alpha, 0.0)
    x = big_alpha.grid.coordinates()[0]
    sloped = SolutionPair(
        u=SpaceTimeField(
            big_alpha.grid,
            big_alpha.time,
            np.outer(np.ones(big_alpha.time.num_slices), 0.2 * np.sin(2 * np.pi * x)),
        ),
        m=SpaceTimeField(big_alpha.grid, big_alpha.time,
                         np.ones((big_alpha.time.num_slices, big_alpha.grid.num_nodes))),
    )
    rec = check_uniqueness_integrand(sloped, big_alpha, lam)
    assert not rec.passed
    assert rec.location is not None and "node" in rec.location


def test_gradient_bounds_trivial_pair(small_problem):
    state = trivial_solution(small_problem)
    rec = check_gradient_bound(_spectral_pass(state.pair, small_problem))
    assert rec.passed
    assert rec.values["du_sup"] == 0.0
    assert rec.values["dm_sup"] == 0.0
    assert rec.values["m_sup"] == pytest.approx(1.0, abs=1e-15)


def test_exponent_record(small_problem):
    rec = check_exponents(small_problem)
    assert rec.passed
    assert rec.values["alpha_bar"] == pytest.approx(0.25)
    assert rec.values["alpha_bound_margin"] == pytest.approx(4 / 1.5 - 0.5, rel=1e-12)


def constant_pair(problem):
    """u = 0 and m = 1 on every slice."""
    shape = (problem.time.num_slices, problem.grid.num_nodes)
    return SolutionPair(
        u=SpaceTimeField(problem.grid, problem.time, np.zeros(shape)),
        m=SpaceTimeField(problem.grid, problem.time, np.ones(shape)),
    )


def test_hypotheses_reference_margins(small_problem):
    for problem in (small_problem, make_problem(dim=2, n=8)):
        rec = check_hypotheses(problem, LambdaData.from_problem(problem, 0.0))
        assert rec.passed
        assert rec.values["support_min"] >= -1e-10
        assert rec.values["coercivity_margin"] >= -1e-10
        assert rec.values["growth_margin"] >= -1e-10
        assert rec.values["hessian_eig_min"] > 0.0
        assert rec.values["centered_min"] > 0.0
        # the raw form is negative near p = 0: H(x, 0) = 1 for the unit weight
        assert rec.values["raw_min"] == pytest.approx(-1.0, abs=1e-5)
        assert rec.location["|p|"] > 0.0
    margin = check_exponents(small_problem).values["alpha_bound_margin"]
    assert margin == pytest.approx(4.0 / 1.5 - 0.5, rel=1e-12)
    assert margin == pytest.approx(2.1667, abs=1e-4)


def test_hypotheses_flag_large_alpha():
    problem = make_problem(alpha=3.0)
    rec = check_hypotheses(problem, LambdaData.from_problem(problem, 0.0))
    assert not rec.passed
    assert rec.values["centered_min"] < 0.0
    exponents = check_exponents(problem)
    assert not exponents.passed
    assert exponents.values["alpha_bound_margin"] < 0.0


def test_hypotheses_blend_identity_at_lambda_one():
    # at lam = 1 the blend of a weighted Hamiltonian is the unit-weight one
    x = make_problem().grid.coordinates()[0]
    weighted = make_problem(weight=1.0 + 0.5 * np.cos(2 * np.pi * x))
    unit = make_problem()
    rec_blend = check_hypotheses(weighted, LambdaData.from_problem(weighted, 1.0))
    rec_unit = check_hypotheses(unit, LambdaData.from_problem(unit, 1.0))
    assert rec_blend.passed and rec_unit.passed
    assert rec_blend.values == rec_unit.values
    # at lam = 0 the weighted model is sampled node by node
    rec = check_hypotheses(weighted, LambdaData.from_problem(weighted, 0.0))
    assert rec.passed and "node" in rec.location
    assert rec.values != rec_unit.values


def test_hypotheses_reproducible(small_problem):
    lam = LambdaData.from_problem(small_problem, 0.0)
    r1 = check_hypotheses(small_problem, lam)
    r2 = check_hypotheses(small_problem, lam)
    assert r1.values == r2.values
    assert r1.location == r2.location


def test_report_fails_hypotheses_outside_the_theorem():
    # (gamma-1)*alpha = 0.7 < 1, but alpha = 3.5 > 4/gamma: the uniqueness
    # inequality fails on the run's Hamiltonian although the trivial pair
    # meets every a priori bound
    problem = make_problem(gamma=1.2, alpha=3.5)
    report = run_all_checks(constant_pair(problem), problem)
    assert not report.all_pass
    failed = {r.name for r in report.records if not r.passed}
    assert failed == {"hamiltonian_hypotheses", "derived_exponents"}
    assert report["hamiltonian_hypotheses"].values["centered_min"] < 0.0
    assert report["derived_exponents"].values["alpha_bound_margin"] < 0.0


def test_report_on_solved_state(small_problem, solved):
    report = run_all_checks(solved.pair, small_problem)
    assert report.all_pass
    names = [r.name for r in report.records]
    assert "mass_conservation" in names
    assert "uniqueness_integrand" in names
    assert "hamiltonian_hypotheses" in names
    as_dict = report.to_dict()
    assert as_dict["all_pass"]
    assert len(as_dict["records"]) == len(report.records)
    text = report.lines()
    assert any("aggregate: pass" in line for line in text)
    assert report["gradient_bounds"].values["du_sup"] > 0.0


def _reference_values(pair, problem):
    """The refinement records' values built field by field: each unknown
    resampled by ``fourier_interpolate`` and differentiated by ``grad_stack``
    on each grid, every power taken as written in the bound."""
    gamma, alpha = problem.hamiltonian.gamma, problem.alpha
    abar = (gamma - 1.0) * alpha
    n_fine = 2 * pair.u.grid.points_per_dim
    refined = SolutionPair(
        u=fourier_interpolate(pair.u, n_fine), m=fourier_interpolate(pair.m, n_fine)
    )
    values = {}
    for suffix, p in (("", pair), ("_refined", refined)):
        grid, dt = p.u.grid, p.u.time.dt
        u, m = p.u.values, p.m.values
        m_safe = np.maximum(m, _M_FLOOR)
        du_norm = np.sqrt(np.sum(grad_stack(u, grid) ** 2, axis=0))
        dm_norm = np.sqrt(np.sum(grad_stack(m, grid) ** 2, axis=0))

        def per_slice(f):
            return grid.cell_volume * np.sum(f, axis=1)

        values.update({
            "momentum_over_density" + suffix: np.trapezoid(
                per_slice(du_norm**gamma / m_safe**abar), dx=dt),
            "value_l1_max" + suffix: np.max(per_slice(np.abs(u))),
            "momentum_weighted" + suffix: np.trapezoid(
                per_slice(du_norm**gamma * m_safe ** (1.0 - abar)), dx=dt),
            "density_power_max" + suffix: np.max(per_slice(m_safe ** (1.0 + alpha))),
            "density_gradient_energy" + suffix: np.trapezoid(
                per_slice(m_safe ** (alpha - 1.0) * dm_norm**2), dx=dt),
            "du_sup" + suffix: np.max(du_norm),
            "m_sup" + suffix: np.max(np.abs(m)),
            "dm_sup" + suffix: np.max(dm_norm),
        })
    return values


@pytest.fixture(scope="module")
def solved_2d():
    problem = make_problem(dim=2, n=8, n_t=7)
    return problem, solve_path(problem)[-1].pair


@pytest.mark.parametrize("dim", [1, 2])
def test_one_pass_report_matches_the_field_by_field_reference(
    monkeypatch, small_problem, solved, solved_2d, dim
):
    problem, pair = (small_problem, solved.pair) if dim == 1 else solved_2d
    slices = problem.time.num_slices
    fine_nodes = (2 * problem.grid.points_per_dim) ** dim
    # three slices per block, so the refined pass spans several blocks and a short last one
    monkeypatch.setattr(estimates, "_REFINED_BLOCK_VALUES", 3 * fine_nodes + 1)
    blocks = -(-slices // 3)
    assert blocks >= 3 and slices % 3

    calls = []

    def counted(real):
        def call(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return call

    for name in ("rfft", "irfft", "rfftn", "irfftn", "fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    report = run_all_checks(pair, problem)
    # one forward transform, one inverse for both gradients, one inverse per refined block
    assert len(calls) == 2 + blocks
    assert all(r.passed for r in report.records)

    want = _reference_values(pair, problem)
    got = {**report["integral_estimates"].values, **report["gradient_bounds"].values}
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key

    du = grad_stack(pair.u.values, problem.grid)
    q = congestion_stack(du, pair.m.values, problem.alpha, _M_FLOOR)
    np.testing.assert_allclose(_spectral_pass(pair, problem).q, q, rtol=0.0,
                               atol=1e-13 * np.max(np.abs(q)))


def test_report_outside_the_theorem_does_not_raise():
    # (gamma-1)*alpha = 1.5 >= 1: the integrals are still computed, and the
    # exponent record fails instead of the suite raising
    problem = make_problem(alpha=3.0)
    report = run_all_checks(constant_pair(problem), problem)
    assert not report["derived_exponents"].passed
    assert report["integral_estimates"].passed
    assert report["integral_estimates"].values["density_power_max"] == pytest.approx(1.0, rel=1e-12)
