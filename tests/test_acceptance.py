"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion.  The reference run is the shipped configs/reference.cfg,
solved by the same ``solve_path(problem, cfg.solver)`` call as
``mfgcon solve``: d=1, N=64, N_t=64, T=0.05, gamma=1.5, alpha=0.5, drift 0.1 sin, arctan
coupling, psi 0.05 cos, m0 proportional to 1 + 0.2 cos.
"""

import os
import time as clock

import numpy as np
import pytest

from mfgcon import linearized, system
from mfgcon.continuation import (
    SolverConfig,
    _lift,
    newton_correct,
    solve_path,
    trivial_solution,
)
from mfgcon.estimates import (
    check_exponents,
    check_inverse_m,
    check_mass,
    check_uniqueness_integrand,
    run_all_checks,
)
from mfgcon.fileio import build_problem, lagrangian_from_config, load_config
from mfgcon.galerkin import FourierBasis, solve_linearized_galerkin
from mfgcon.grids import SpaceTimeField
from mfgcon.hamiltonians import duality_table
from mfgcon.linearized import Perturbation, apply_L, bundle_to_vector, solve_linearized
from mfgcon.montecarlo import SDEConfig, l1_distance, sampling_l1_error, simulate_density
from mfgcon.system import (
    _M_FLOOR,
    LambdaData,
    ResidualBundle,
    SolutionPair,
    _PairTerms,
    residual_full,
)

from conftest import (
    band_limited_spacetime,
    data_norm,
    fourier_interpolate,
    random_bundle,
    slice_l2_norms,
    span_tail,
    sup_gap,
)

CONFIG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs", "reference.cfg")


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} {detail}")


@pytest.fixture(scope="module")
def reference():
    cfg = load_config(CONFIG_PATH)
    problem = build_problem(cfg)
    t0 = clock.perf_counter()
    states = solve_path(problem, cfg.solver)
    solve_seconds = clock.perf_counter() - t0
    return {
        "problem": problem,
        "config": cfg,
        "states": states,
        "solve_seconds": solve_seconds,
    }


def state_at(states, lam):
    """The accepted state nearest ``lam``; on a tie the later one, so lam = 0
    names the final state on the config grid rather than a coarse one."""
    return min(reversed(states), key=lambda s: abs(s.lam - lam))


def test_criterion_1_explicit_endpoint(reference):
    problem = reference["problem"]
    t0 = clock.perf_counter()
    state = trivial_solution(problem)
    elapsed = clock.perf_counter() - t0
    ok = state.residual_norm <= 1e-12 and elapsed < 1.0
    report(1, "explicit endpoint residual", ok,
           f"residual={state.residual_norm:.2e} time={elapsed:.3f}s")
    assert state.residual_norm <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_end_to_end(reference):
    states = reference["states"]
    final = states[-1]
    rep = run_all_checks(final.pair, reference["problem"])
    ok = (
        final.lam == 0.0
        and final.residual_norm <= 1e-8
        and reference["solve_seconds"] <= 60.0
        and rep.all_pass
    )
    report(2, "continuation to the target system", ok,
           f"residual={final.residual_norm:.2e} time={reference['solve_seconds']:.1f}s "
           f"checks={'all-pass' if rep.all_pass else 'FAIL'}")
    assert final.lam == 0.0
    assert final.residual_norm <= 1e-8
    assert reference["solve_seconds"] <= 60.0
    assert rep.all_pass


def test_criterion_3_mass_conservation(reference):
    worst = max(check_mass(state.pair).values["max_deviation"] for state in reference["states"])
    report(3, "mass conservation on every accepted state", worst <= 1e-10,
           f"max deviation={worst:.2e}")
    assert worst <= 1e-10


def test_criterion_4_linearization_consistency(reference):
    problem = reference["problem"]
    rng = np.random.default_rng(2024)
    lam = LambdaData.from_problem(problem, 0.5)
    state = trivial_solution(problem)
    orders = []
    for _ in range(5):
        base = SolutionPair(
            u=SpaceTimeField(problem.grid, problem.time,
                             state.pair.u.values
                             + band_limited_spacetime(problem.grid, problem.time, rng, amp=0.05).values),
            m=SpaceTimeField(problem.grid, problem.time,
                             1.0 + 0.1 * band_limited_spacetime(problem.grid, problem.time, rng).values / 3),
        )
        direction = Perturbation(
            v=band_limited_spacetime(problem.grid, problem.time, rng),
            f=band_limited_spacetime(problem.grid, problem.time, rng),
        )
        exact = bundle_to_vector(apply_L(problem, lam, base, direction))
        r0 = bundle_to_vector(residual_full(problem, lam, base))
        errors = []
        for eps in (1e-3, 1e-4, 1e-5):
            moved = SolutionPair(
                u=SpaceTimeField(problem.grid, problem.time,
                                 base.u.values + eps * direction.v.values),
                m=SpaceTimeField(problem.grid, problem.time,
                                 base.m.values + eps * direction.f.values),
            )
            fd = (bundle_to_vector(residual_full(problem, lam, moved)) - r0) / eps
            errors.append(float(np.max(np.abs(fd - exact))))
        assert errors[0] > errors[1] > errors[2], "error must decrease before roundoff"
        # the error is c1*eps + c2*eps^2, so a finite-eps order estimate sits
        # within O(eps) of 1; measure on the finest pair and pin the full
        # two-decade decrease, which a wrong derivative cannot reproduce
        assert errors[2] / errors[0] <= 0.012
        orders.append(np.log10(errors[1] / errors[2]))
    ok = min(orders) >= 0.98
    report(4, "directional-derivative consistency", ok,
           f"observed orders={[f'{o:.3f}' for o in orders]}")
    assert ok


# Mode count of the Galerkin cross-check.  At 32 modes the monolithic
# solution's part outside the span of the reference lambda = 0 state is about
# 2e-12, so the gate's 1e-9 allowance for the two solves' roundoff dominates.
GALERKIN_MODES = 32


def galerkin_gap_at_solution(reference, rhs):
    """Sup gap between the Galerkin and monolithic solves at the solved
    lambda = 0 state, and the monolithic solution's part outside the span."""
    problem = reference["problem"]
    final = reference["states"][-1]
    lam0 = LambdaData.from_problem(problem, 0.0)
    basis = FourierBasis.build(problem.grid, GALERKIN_MODES)
    pert_gal = solve_linearized_galerkin(problem, lam0, final.pair, basis, rhs)
    pert_mono = solve_linearized(problem, lam0, final.pair, rhs)
    return sup_gap(pert_gal, pert_mono), span_tail(basis, pert_mono)


def test_criterion_5_galerkin_cross_validation(reference):
    problem = reference["problem"]
    rhs = random_bundle(problem, np.random.default_rng(31))

    # the trivial base's linearization is diagonal in Fourier, and both paths
    # use the same time scheme, so they agree to the Krylov tolerance
    lam1 = LambdaData.from_problem(problem, 1.0)
    state = trivial_solution(problem)
    basis = FourierBasis.build(problem.grid, GALERKIN_MODES)
    pert_gal = solve_linearized_galerkin(problem, lam1, state.pair, basis, rhs)
    gap1 = sup_gap(pert_gal, solve_linearized(problem, lam1, state.pair, rhs))

    # at the solved state the modes couple: the gap may only be the
    # monolithic solution's part outside the span
    gap0, tail0 = galerkin_gap_at_solution(reference, rhs)
    bound0 = 1.1 * tail0 + 1e-9

    zeros = SpaceTimeField.zeros(problem.grid, problem.time)
    pert_zero = solve_linearized_galerkin(
        problem, lam1, state.pair, basis, ResidualBundle(fp=zeros, hjb=zeros)
    )
    homog = pert_zero.sup_norm()
    ok = gap1 <= 1e-8 and gap0 <= bound0 and homog == 0.0
    report(5, f"direct Galerkin solve at {GALERKIN_MODES} modes against the monolithic solve",
           ok, f"gap(lambda=1)={gap1:.2e} (tol 1e-8) gap(lambda=0)={gap0:.3e} "
           f"span tail={tail0:.3e} (tol 1.1*tail+1e-9={bound0:.3e}) "
           f"homogeneous={homog:.1e}")
    assert homog == 0.0
    assert gap1 <= 1e-8
    assert gap0 <= bound0


def test_criterion_5_catches_a_coupling_error(reference, monkeypatch):
    # a 1e-5 relative error in the value rows' density coefficient of the
    # monolithic solve moves its lambda = 0 answer by about 2e-9; the Galerkin
    # blocks come from the coefficients themselves, so the gate must see it
    original = linearized._coupling_rows

    def scaled(problem, coef, dv, f):
        coef = linearized._BaseCoefficients(
            **{**vars(coef), "zero_order_u": coef.zero_order_u * (1.0 + 1e-5)}
        )
        return original(problem, coef, dv, f)

    monkeypatch.setattr(linearized, "_coupling_rows", scaled)
    gap0, tail0 = galerkin_gap_at_solution(
        reference, random_bundle(reference["problem"], np.random.default_rng(31))
    )
    assert gap0 > 1.1 * tail0 + 1e-9


def test_criterion_6_energy_constant(reference):
    problem = reference["problem"]
    lam = LambdaData.from_problem(problem, 1.0)
    state = trivial_solution(problem)
    basis = FourierBasis.build(problem.grid, 8)
    rng = np.random.default_rng(606)
    ratios = []
    for _ in range(20):
        rhs = random_bundle(problem, rng)
        pert = solve_linearized_galerkin(problem, lam, state.pair, basis, rhs)
        ratios.append(float(np.max(slice_l2_norms(pert))) / data_norm(rhs))
    achieved = max(ratios)
    ok = np.isfinite(achieved) and achieved < 10.0
    report(6, "energy bound with one constant over 20 sources", ok,
           f"achieved C={achieved:.3f}")
    assert ok


def test_criterion_7_uniqueness(reference):
    problem = reference["problem"]
    rng = np.random.default_rng(77)
    cfg = SolverConfig(newton_tol=1e-11)
    worst_gap = 0.0
    for lam_target in (0.5, 0.0):
        anchor = state_at(reference["states"], lam_target)
        lam = LambdaData.from_problem(problem, anchor.lam)
        base = anchor.pair
        if base.u.grid != problem.grid:  # a state of the nested path's coarse level
            base = _lift(base, problem)
        rec = check_uniqueness_integrand(base, problem, lam)
        assert rec.passed, f"uniqueness integrand failed at lambda={anchor.lam}"
        solutions = []
        for _ in range(2):
            start = SolutionPair(
                u=SpaceTimeField(problem.grid, problem.time,
                                 base.u.values
                                 + 1e-3 * band_limited_spacetime(problem.grid, problem.time, rng).values),
                m=SpaceTimeField(problem.grid, problem.time,
                                 base.m.values
                                 + 1e-3 * band_limited_spacetime(problem.grid, problem.time, rng).values),
            )
            pair, _ = newton_correct(problem, lam, start, cfg)
            solutions.append(pair)
        gap = max(
            float(np.max(np.abs(solutions[0].u.values - solutions[1].u.values))),
            float(np.max(np.abs(solutions[0].m.values - solutions[1].m.values))),
        )
        worst_gap = max(worst_gap, gap)
    margin = check_exponents(problem).values["alpha_bound_margin"]
    ok = worst_gap <= 1e-6
    report(7, "uniqueness of the corrected solution", ok,
           f"max pair gap={worst_gap:.2e} alpha margin={margin:.4f}")
    assert ok


def test_criterion_8_positivity_structure(reference):
    problem = reference["problem"]
    final = reference["states"][-1]
    min_m = min(state.min_density() for state in reference["states"])
    floor_untouched = min_m > _M_FLOOR
    rec = check_inverse_m(final.pair)
    inv_sup = rec.values["inverse_sup"]
    fine = fourier_interpolate(final.pair.m, 2 * problem.grid.points_per_dim)
    inv_sup_fine = float(np.max(1.0 / fine.values))
    stable = abs(inv_sup_fine - inv_sup) <= 0.05 * inv_sup
    ok = min_m > 0.0 and floor_untouched and rec.passed and stable
    report(8, "positivity and inverse-density control", ok,
           f"min m={min_m:.4f} sup 1/m={inv_sup:.4f} refined={inv_sup_fine:.4f}")
    assert ok


def test_criterion_9_monte_carlo_closure(reference):
    problem = reference["problem"]
    mc = reference["config"].mc
    state1 = trivial_solution(problem)
    lam1 = LambdaData.from_problem(problem, 1.0)
    emp = simulate_density(problem, lam1, state1.pair, SDEConfig(paths=100_000, seed=mc.seed))
    dists1 = l1_distance(emp, state1.pair.m)
    scale = sampling_l1_error(state1.pair.m.values[0], problem.grid, 100_000)
    uniform_ok = float(np.max(dists1)) <= 3.0 * scale

    final = reference["states"][-1]
    lam0 = LambdaData.from_problem(problem, 0.0)
    emp0 = simulate_density(problem, lam0, final.pair, SDEConfig(paths=100_000, seed=mc.seed))
    d0 = l1_distance(emp0, final.pair.m)
    emp4 = simulate_density(problem, lam0, final.pair, SDEConfig(paths=400_000, seed=mc.seed))
    d4 = l1_distance(emp4, final.pair.m)
    ratio = float(np.mean(d0) / np.mean(d4))
    solved_ok = float(np.max(d0)) <= 5e-2 and 1.4 <= ratio <= 2.9
    ok = uniform_ok and solved_ok
    report(9, "particle closure of the transport equation", ok,
           f"uniform max L1={np.max(dists1):.4f} (3se={3*scale:.4f}) "
           f"solved max L1={np.max(d0):.4f} ratio 4M={ratio:.2f}")
    assert uniform_ok
    assert solved_ok


def test_criterion_10_duality_oracle(reference):
    # the table `mfgcon legendre --config configs/reference.cfg` prints, at
    # the command's default seed 0
    lagr = lagrangian_from_config(reference["config"], reference["problem"].grid)
    table = duality_table(lagr, seed=0)
    report(10, "convex-duality oracle", table.passed, " ".join(table.lines()))
    assert table.passed
    assert table.max_deviation <= 1e-12
    assert table.ratio_range == pytest.approx((0.4424605962779851, 0.564311053109206), abs=1e-9)
    assert table.envelope_margin == pytest.approx(1.0028352617830278, abs=1e-9)


# The benchmark workloads' data besides the reference: stiff terminal data on
# 32 nodes, and the two-dimensional run, which the nested path solves on 8x8,
# 16x16 and 32x32.
STIFF_1D = {"n = 64": "n = 32", "n_t = 64": "n_t = 32", "psi = 0.05*cos(1)": "psi = 2*cos(1)"}
GRID_2D = {
    "d = 1": "d = 2",
    "n = 64": "n = 32",
    "b_x = 0.1*sin(1)": "b_x = 0.1*sin(1,0)\nb_y = 0.05*sin(0,1)",
    "v1 = 0.05*cos(1)": "v1 = 0.05*cos(1,1)",
    "psi = 0.05*cos(1)": "psi = 0.05*cos(1,0)",
    "m0 = 1 + 0.2*cos(1)": "m0 = 1 + 0.2*cos(1,0) + 0.1*cos(0,1)",
}
ADJOINT_LAMBDAS = (0.0, 0.37, 1.0)
ADJOINT_TOL = 1e-13


@pytest.fixture(scope="module")
def solved_workloads(reference, tmp_path_factory):
    """(name, problem, solved lambda = 0 pair) of ref1d, stiff1d and grid2d."""
    text = open(CONFIG_PATH).read()
    out = [("ref1d", reference["problem"], reference["states"][-1].pair)]
    for name, edits in (("stiff1d", STIFF_1D), ("grid2d", GRID_2D)):
        edited = text
        for old, new in edits.items():
            edited = edited.replace(old, new, 1)
        path = tmp_path_factory.mktemp(name) / "run.cfg"
        path.write_text(edited)
        cfg = load_config(str(path))
        problem = build_problem(cfg)
        out.append((name, problem, solve_path(problem, cfg.solver)[-1].pair))
    return out


def adjoint_gap(problem, lam, pair, rng) -> float:
    """Relative gap of the adjoint identity between the two rows at ``pair``.

    T w is the transport rows with the density replaced by w and the drift
    frozen at c = D_pH(q) + b; J v is the value rows of the linearization
    applied to (v, 0).  For white noise w with w^0 = 0 and v with v^(N_t) = 0,
    sum_(n >= 1) <(T w)^n, v^n> = sum_(n < N_t) <w^n, (J v)^n> holds exactly:
    the implicit Euler chains run in opposite time directions with every
    spatial term on slice n, and spectral differentiation sums by parts.  The
    gap is taken relative to sum |T w . v|.  The rows are looked up on their
    modules at each call, so that a test can replace them.
    """
    shape = (problem.time.num_slices, problem.grid.num_nodes)
    v, w = rng.standard_normal(shape), rng.standard_normal(shape)
    v[-1] = 0.0
    w[0] = 0.0
    terms = system._pair_terms(problem, lam, pair)
    t_w = system._fp_rows(problem, _PairTerms(**{**vars(terms), "m": w})).values[1:]
    coef = linearized._base_coefficients(problem, lam, pair, terms)
    _, j_v = linearized._apply_rows(problem, coef, v, np.zeros(shape))
    products = t_w * v[1:]
    return abs(np.sum(products) - np.sum(w[:-1] * j_v[:-1])) / np.sum(np.abs(products))


def worst_adjoint_gaps(workloads) -> dict:
    """Largest gap over ``ADJOINT_LAMBDAS`` on each workload's solved state and
    on a random state of its grids (white-noise u, m uniform in [0.5, 1.5])."""
    rng = np.random.default_rng(20)
    gaps = {}
    for name, problem, solved in workloads:
        grid, time = problem.grid, problem.time
        shape = (time.num_slices, grid.num_nodes)
        random = SolutionPair(u=SpaceTimeField(grid, time, rng.standard_normal(shape)),
                              m=SpaceTimeField(grid, time, rng.uniform(0.5, 1.5, shape)))
        gaps[name] = max(adjoint_gap(problem, LambdaData.from_problem(problem, lam), pair, rng)
                         for lam in ADJOINT_LAMBDAS for pair in (solved, random))
    return gaps


def test_criterion_11_adjoint_structure(solved_workloads):
    gaps = worst_adjoint_gaps(solved_workloads)
    ok = max(gaps.values()) <= ADJOINT_TOL
    report(11, "transport rows adjoint to the linearized value rows", ok,
           " ".join(f"{name}={gap:.1e}" for name, gap in gaps.items())
           + f" (tol {ADJOINT_TOL:.0e})")
    assert {problem.grid.dim for _, problem, _ in solved_workloads} == {1, 2}
    assert ok


def _flip_b(terms):
    """``terms`` with the drift b of its data negated."""
    lam = terms.lam_data
    return _PairTerms(**{**vars(terms), "lam_data": LambdaData(
        **{**vars(lam), "b_values": -lam.b_values})})


def test_criterion_11_catches_a_transport_drift_error(solved_workloads, monkeypatch):
    # b flipped in the transport rows alone
    original = system._fp_rows
    monkeypatch.setattr(
        system, "_fp_rows", lambda problem, terms: original(problem, _flip_b(terms))
    )
    assert min(worst_adjoint_gaps(solved_workloads).values()) > ADJOINT_TOL


def test_criterion_11_catches_a_value_transport_error(solved_workloads, monkeypatch):
    # the value rows' transport coefficient scaled by 1.01
    original = linearized._apply_rows

    def scaled(problem, coef, v, f):
        coef = linearized._BaseCoefficients(**{**vars(coef), "transport": 1.01 * coef.transport})
        return original(problem, coef, v, f)

    monkeypatch.setattr(linearized, "_apply_rows", scaled)
    assert min(worst_adjoint_gaps(solved_workloads).values()) > ADJOINT_TOL


def test_criterion_11_catches_a_consistent_drift_flip(solved_workloads, monkeypatch):
    # b flipped in the transport rows and in their linearization alike, which
    # keeps the residual and its Jacobian consistent (criterion 4 cannot see it)
    rows, coefficients = system._fp_rows, linearized._base_coefficients

    def flipped_coefficients(problem, lam_data, base, terms=None):
        coef = coefficients(problem, lam_data, base, terms)
        drift = coef.drift_coef - 2.0 * lam_data.b_values[:, None, :]
        return linearized._BaseCoefficients(**{**vars(coef), "drift_coef": drift})

    monkeypatch.setattr(system, "_fp_rows", lambda problem, terms: rows(problem, _flip_b(terms)))
    monkeypatch.setattr(linearized, "_base_coefficients", flipped_coefficients)
    assert min(worst_adjoint_gaps(solved_workloads).values()) > ADJOINT_TOL
