import os

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mfgcon import continuation, linearized
from mfgcon.continuation import (
    ContinuationState,
    HorizonError,
    NewtonFailure,
    SolverConfig,
    newton_correct,
    solve_path,
    trivial_solution,
)
from mfgcon.estimates import check_mass
from mfgcon.fileio import build_problem, load_config
from mfgcon.grids import SpaceTimeField, integrate
from mfgcon.linearized import _KRYLOV_RTOL
from mfgcon.system import LambdaData, SolutionPair, residual_full

from conftest import make_problem


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(newton_tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dlambda_init=0.5, dlambda_max=0.2)


def test_trivial_solution_certificate(small_problem):
    state = trivial_solution(small_problem)
    assert state.lam == 1.0
    assert state.residual_norm <= 1e-12
    assert np.max(np.abs(state.pair.u.values[-1])) == 0.0  # terminal datum is zero
    for n in range(small_problem.time.num_slices):
        assert integrate(state.pair.m.slice(n)) == pytest.approx(1.0, abs=1e-14)


def test_newton_zero_iterations_at_solution(small_problem):
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 1.0)
    pair, diag = newton_correct(small_problem, lam, state.pair)
    assert diag.iterations == 0
    assert diag.residual_history == [state.residual_norm]


def test_newton_recovers_from_cosine_perturbation(small_problem):
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 1.0)
    x = small_problem.grid.coordinates()[0]
    bumped = SolutionPair(
        u=SpaceTimeField(
            small_problem.grid,
            small_problem.time,
            state.pair.u.values + 1e-3 * np.cos(2 * np.pi * x)[None, :],
        ),
        m=state.pair.m.copy(),
    )
    pair, diag = newton_correct(small_problem, lam, bumped)
    assert diag.iterations <= 5
    final = residual_full(small_problem, lam, pair).sup_norm()
    assert final <= 1e-10
    # contraction accelerates along the tail of the iteration
    hist = diag.residual_history
    if len(hist) >= 3:
        assert hist[-1] / hist[-2] < hist[-2] / hist[-3]


def test_two_starts_converge_to_same_solution(small_problem):
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 1.0)
    rng = np.random.default_rng(44)
    pairs = []
    for _ in range(2):
        noise_u = 1e-3 * rng.normal(size=state.pair.u.values.shape)
        noise_m = 1e-3 * rng.normal(size=state.pair.m.values.shape)
        start = SolutionPair(
            u=SpaceTimeField(small_problem.grid, small_problem.time,
                             state.pair.u.values + noise_u),
            m=SpaceTimeField(small_problem.grid, small_problem.time,
                             state.pair.m.values + noise_m),
        )
        cfg = SolverConfig(newton_tol=1e-11)
        pair, _ = newton_correct(small_problem, lam, start, cfg)
        pairs.append(pair)
    du = np.max(np.abs(pairs[0].u.values - pairs[1].u.values))
    dm = np.max(np.abs(pairs[0].m.values - pairs[1].m.values))
    assert max(du, dm) <= 1e-8


def test_path_reaches_zero_with_certificates(small_problem):
    states = solve_path(small_problem)
    assert states[0].lam == 1.0
    assert states[-1].lam == 0.0
    lams = [s.lam for s in states]
    assert all(a > b for a, b in zip(lams, lams[1:]))  # monotone
    cfg = SolverConfig()
    for state in states:
        assert state.residual_norm <= max(cfg.newton_tol, 1e-12)
        assert state.min_density() >= cfg.m_positivity_margin
        assert check_mass(state.pair).values["max_deviation"] <= 1e-10
        # the certificate is re-derivable from the state alone
        lam = LambdaData.from_problem(small_problem, state.lam)
        recomputed = residual_full(small_problem, lam, state.pair).sup_norm()
        assert recomputed == pytest.approx(state.residual_norm, rel=1e-6, abs=1e-13)


def test_accepted_certificate_is_newtons_last_residual(small_problem, monkeypatch):
    # the certificate of an accepted state is the residual Newton accepted on,
    # so solve_path evaluates no residual between a Newton return and the next
    # step; before the first Newton call it evaluates F(x1, 1), which certifies
    # the lam = 1 state and enters the tangent, and F(x1, 0)
    events = []
    real_residual, real_newton = continuation.residual_full, continuation.newton_correct

    def counting_residual(*args, **kwargs):
        events.append("residual")
        return real_residual(*args, **kwargs)

    def tracked_newton(*args, **kwargs):
        events.append("newton")
        out = real_newton(*args, **kwargs)
        events.append("newton_return")
        return out

    monkeypatch.setattr(continuation, "residual_full", counting_residual)
    monkeypatch.setattr(continuation, "newton_correct", tracked_newton)
    cfg = SolverConfig()
    states = solve_path(small_problem, cfg)

    assert events[:3] == ["residual", "residual", "newton"]
    assert events.count("newton_return") == len(states) - 1
    for before, after in zip(events, events[1:]):
        if before == "newton_return":
            assert after == "newton"
    for state in states:
        lam = LambdaData.from_problem(small_problem, state.lam)
        assert state.residual_norm == residual_full(small_problem, lam, state.pair).sup_norm()
        assert state.residual_norm <= cfg.newton_tol


def test_step_underflow_raises_structured_failure(small_problem):
    # one Newton iteration cannot absorb a 0.2 jump in the parameter, and the
    # floor sits right under the initial step, so halving underflows at once
    cfg = SolverConfig(
        newton_tol=1e-10,
        newton_max_iters=1,
        dlambda_init=0.2,
        dlambda_min=0.15,
        dlambda_max=0.25,
    )
    with pytest.raises(HorizonError) as err:
        solve_path(small_problem, cfg)
    assert err.value.states
    assert err.value.states[0].lam == 1.0
    assert 0.0 <= err.value.failed_lambda < 1.0


def test_newton_failure_carries_diagnostics(small_problem):
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 0.0)
    cfg = SolverConfig(newton_max_iters=1)
    with pytest.raises(NewtonFailure) as err:
        newton_correct(small_problem, lam, state.pair, cfg)
    assert err.value.diagnostics.residual_history


REFERENCE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.cfg")


def test_secant_guess_beats_the_last_accepted_pair(small_problem):
    cfg = SolverConfig()
    states = solve_path(small_problem, cfg)
    assert len(states) >= 4
    # the first step has one accepted state and starts along the Euler tangent
    lam_data = LambdaData.from_problem(small_problem, states[1].lam)
    start, at_one = continuation._trivial_start(small_problem)
    tangent = continuation._euler_tangent(small_problem, start.pair, at_one)
    first = continuation._tangent_guess(
        states[0], tangent, states[1].lam, cfg.m_positivity_margin
    )
    first_res = residual_full(small_problem, lam_data, first)
    start_res = residual_full(small_problem, lam_data, states[0].pair)
    assert first_res.sup_norm() < start_res.sup_norm()
    assert np.max(np.abs(first_res.fp.values[0])) <= 10 * cfg.newton_tol
    assert np.max(np.abs(first_res.hjb.values[-1])) <= 10 * cfg.newton_tol
    for k in range(2, len(states) - 1):
        lam_next = states[k + 1].lam
        lam_data = LambdaData.from_problem(small_problem, lam_next)
        guess = continuation._secant_guess(states[: k + 1], lam_next, cfg.m_positivity_margin)
        assert guess is not states[k].pair
        guess_res = residual_full(small_problem, lam_data, guess)
        last_res = residual_full(small_problem, lam_data, states[k].pair)
        assert guess_res.sup_norm() < last_res.sup_norm()
        # the data blend is linear in lam, so the secant keeps the data rows
        assert np.max(np.abs(guess_res.fp.values[0])) <= 10 * cfg.newton_tol
        assert np.max(np.abs(guess_res.hjb.values[-1])) <= 10 * cfg.newton_tol


def test_predictor_falls_back_when_extrapolated_density_dips(small_problem, monkeypatch):
    # a skewed density at lam = 1 makes the secant to the first corrected state
    # negative somewhere; Newton must start from the last accepted pair instead
    real_start = continuation._trivial_start

    def skewed_start(problem):
        state, _ = real_start(problem)
        x = problem.grid.coordinates()[0].ravel()
        bump = np.exp(1.5 * np.cos(2 * np.pi * x))
        m = np.repeat((bump / np.mean(bump))[None, :], problem.time.num_slices, axis=0)
        pair = SolutionPair(u=state.pair.u, m=SpaceTimeField(problem.grid, problem.time, m))
        at_one = residual_full(problem, LambdaData.from_problem(problem, 1.0), pair)
        skewed = ContinuationState(lam=1.0, pair=pair, residual_norm=at_one.sup_norm(),
                                   newton_iters=0, step=0.0)
        return skewed, at_one

    monkeypatch.setattr(continuation, "_trivial_start", skewed_start)
    starts, _ = _record_newton_starts(monkeypatch)
    states = solve_path(small_problem)
    assert states[-1].lam == 0.0
    lam0, lam1, lam2 = states[0].lam, states[1].lam, states[2].lam
    s = (lam2 - lam1) / (lam1 - lam0)
    extrapolated = states[1].pair.m.values + s * (states[1].pair.m.values - states[0].pair.m.values)
    assert np.min(extrapolated) < 0.0
    assert starts[1] is states[1].pair


def _record_rtols(monkeypatch):
    rtols = []
    real = continuation.solve_linearized

    def recording(*args, **kwargs):
        rtols.append(kwargs.get("rtol", _KRYLOV_RTOL))
        return real(*args, **kwargs)

    monkeypatch.setattr(continuation, "solve_linearized", recording)
    return rtols


def test_forcing_terms_stay_in_range(small_problem, monkeypatch):
    rtols = _record_rtols(monkeypatch)
    states = solve_path(small_problem)
    # the tangent solve at the default tolerance, then one solve per Newton iteration
    assert len(rtols) == 1 + sum(s.newton_iters for s in states)
    assert rtols[0] == _KRYLOV_RTOL
    assert all(_KRYLOV_RTOL <= r <= 0.1 for r in rtols)
    assert max(rtols) == 0.1 and min(rtols) < 1e-3


def test_first_solve_far_from_the_solution_is_loose(small_problem, monkeypatch):
    rtols = _record_rtols(monkeypatch)
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 0.5)
    _, diag = newton_correct(small_problem, lam, state.pair)
    assert diag.residual_history[0] > 1e3 * SolverConfig().newton_tol
    assert diag.residual_history[-1] <= SolverConfig().newton_tol
    assert rtols[0] == 0.1
    assert len(rtols) == diag.iterations


def test_reference_solve_work_stays_bounded(monkeypatch):
    # the tangent first step, the secant predictor and the forcing terms cut the
    # plain corrector's work on this config (30 Newton iterations and 248 lgmres
    # matvecs) to 12 iterations plus the tangent solve; right-preconditioned
    # gmres then takes 13 solves and 45 operator applies
    counts = {"solves": 0, "applies": 0}
    real = spla.gmres

    def counting_gmres(A, b, **kwargs):
        counts["solves"] += 1
        op = spla.aslinearoperator(A)

        def matvec(x):
            counts["applies"] += 1
            return op.matvec(x)

        return real(spla.LinearOperator(op.shape, matvec=matvec, dtype=float), b, **kwargs)

    monkeypatch.setattr(linearized.spla, "gmres", counting_gmres)
    cfg = load_config(REFERENCE_CFG)
    states = solve_path(build_problem(cfg), cfg.solver)
    assert states[-1].lam == 0.0
    assert sum(s.newton_iters for s in states) <= 12
    assert 0 < counts["solves"] <= 13
    assert 0 < counts["applies"] <= 45


def _record_newton_starts(monkeypatch):
    """Record the start pair of every Newton correction and count its failures."""
    starts, failures = [], []
    real = continuation.newton_correct

    def recording(problem, lam_data, pair, config):
        starts.append(pair)
        try:
            return real(problem, lam_data, pair, config)
        except NewtonFailure:
            failures.append(lam_data.lam)
            raise

    monkeypatch.setattr(continuation, "newton_correct", recording)
    return starts, failures


def _tangent_solve_replaced(monkeypatch, replacement):
    # the first linear solve of a path is the tangent's; later ones are Newton's
    real = continuation.solve_linearized
    calls = []

    def patched(problem, lam_data, base, rhs, **kwargs):
        calls.append(lam_data.lam)
        if len(calls) == 1:
            return replacement(real(problem, lam_data, base, rhs, **kwargs))
        return real(problem, lam_data, base, rhs, **kwargs)

    monkeypatch.setattr(continuation, "solve_linearized", patched)
    return calls


def _assert_first_step_from_the_lambda_one_pair(small_problem, monkeypatch, replacement):
    calls = _tangent_solve_replaced(monkeypatch, replacement)
    starts, _ = _record_newton_starts(monkeypatch)
    cfg = SolverConfig()
    states = solve_path(small_problem, cfg)
    assert calls[0] == 1.0
    assert starts[0] is states[0].pair
    assert states[-1].lam == 0.0
    for state in states:
        assert state.residual_norm <= cfg.newton_tol


def test_first_step_falls_back_when_the_tangent_solve_fails(small_problem, monkeypatch):
    def fail(w):
        raise linearized.LinearSolveError("Krylov solve did not converge (info=1)")

    _assert_first_step_from_the_lambda_one_pair(small_problem, monkeypatch, fail)


def test_first_step_falls_back_when_the_tangent_density_dips(small_problem, monkeypatch):
    # a density direction of -100 takes m = 1 to 1 - 100 (1 - lam_next) < 0
    def steep(w):
        f = SpaceTimeField(w.f.grid, w.f.time, np.full_like(w.f.values, -100.0))
        return linearized.Perturbation(v=w.v, f=f)

    _assert_first_step_from_the_lambda_one_pair(small_problem, monkeypatch, steep)


def test_stiff_terminal_data_solves_without_a_rejected_step(monkeypatch):
    # psi = 2 cos(2 pi x) on N = 32, n_t = 32: from the lam = 1 pair itself the
    # first step was rejected and the path took 51 linear solves
    problem = make_problem(n=32, n_t=32, horizon=0.05, psi_amp=2.0)
    rtols = _record_rtols(monkeypatch)
    _, failures = _record_newton_starts(monkeypatch)
    states = solve_path(problem)
    assert states[-1].lam == 0.0
    assert failures == []
    assert len(rtols) <= 22


@pytest.mark.parametrize("stiff", [False, True])
def test_adaptive_steps_stay_capped_and_end_evenly(small_problem, stiff):
    # the small problem ends by splitting 0.275 in two, the stiff one by
    # absorbing a remainder that fits in dlambda_max
    problem = make_problem(n=32, n_t=32, horizon=0.05, psi_amp=2.0) if stiff else small_problem
    cfg = SolverConfig()
    steps = [s.step for s in solve_path(problem, cfg)[1:]]
    assert max(steps) <= cfg.dlambda_max
    assert steps[-1] >= 0.5 * steps[-2]


def test_fixed_steps_stay_pinned(small_problem):
    # dlambda_init == dlambda_max pins the step; a third step would leave 0.1,
    # less than half of it, and the 0.4 left exceeds dlambda_max, so it splits
    states = solve_path(small_problem, SolverConfig(dlambda_init=0.3, dlambda_max=0.3))
    assert [s.lam for s in states] == pytest.approx([1.0, 0.7, 0.4, 0.2, 0.0], abs=1e-12)


@pytest.mark.parametrize("dim, dl", [(1, 0.1), (1, 0.2), (2, 0.25)], ids=["0.1", "0.2", "2d-0.25"])
def test_pinned_steps_end_on_a_full_step(small_problem, dim, dl):
    # lam picks up roundoff on the way down (nine steps of 0.1 leave
    # 0.10000000000000014), which must not cost an extra halving at the end
    problem = small_problem if dim == 1 else make_problem(n=8, n_t=6, horizon=0.02, dim=2)
    cfg = SolverConfig(dlambda_init=dl, dlambda_max=dl)
    states = solve_path(problem, cfg)
    n_steps = round(1.0 / dl)
    expected = [1.0 - k * dl for k in range(n_steps + 1)]
    assert [s.lam for s in states] == pytest.approx(expected, abs=1e-12)
    final = states[-1]
    assert final.lam == 0.0
    assert final.residual_norm <= cfg.newton_tol
    assert check_mass(final.pair).values["max_deviation"] <= 1e-10
    assert final.min_density() > 0.5
    # the pinned and the adaptive schedule certify the same lam = 0 solution
    adaptive = solve_path(problem)[-1]
    du = np.max(np.abs(adaptive.pair.u.values - final.pair.u.values))
    dm = np.max(np.abs(adaptive.pair.m.values - final.pair.m.values))
    assert max(du, dm) <= 1e-6
