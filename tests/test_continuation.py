import math
import os
import re

import numpy as np
import pytest

from mfgcon import continuation, linearized, system
from mfgcon.continuation import (
    _TANGENT_RTOL,
    _THETA_MAX,
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
from mfgcon.grids import PeriodicGrid, SpaceTimeField, TimeGrid, integrate
from mfgcon.hamiltonians import HamiltonianModel
from mfgcon.linearized import _KRYLOV_RTOL
from mfgcon.system import LambdaData, SolutionPair, residual_full

from conftest import count_krylov_work, make_problem


# the step caps of configs/reference.cfg, which keep a path on several steps
CAPPED = SolverConfig(dlambda_init=0.1, dlambda_max=0.25)


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
        assert integrate(state.pair.m.values[n], small_problem.grid) == pytest.approx(1.0, abs=1e-14)


def test_newton_zero_iterations_at_solution(small_problem):
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 1.0)
    pair, history = newton_correct(small_problem, lam, state.pair)
    assert history == [state.residual_norm]


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
    pair, hist = newton_correct(small_problem, lam, bumped)
    assert len(hist) - 1 <= 5
    final = residual_full(small_problem, lam, pair).sup_norm()
    assert final <= 1e-10
    # contraction accelerates along the tail of the iteration
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
    assert err.value.history


REFERENCE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.cfg")


def test_secant_guess_beats_the_last_accepted_pair(small_problem):
    cfg = CAPPED
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
        skewed = ContinuationState(lam=1.0, pair=pair, residual_history=[at_one.sup_norm()],
                                   step=0.0)
        return skewed, at_one

    monkeypatch.setattr(continuation, "_trivial_start", skewed_start)
    starts, _ = _record_newton_starts(monkeypatch)
    states = solve_path(small_problem, CAPPED)
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
    # the tangent solve at its own tolerance, then one solve per Newton iteration
    assert len(rtols) == 1 + sum(s.newton_iters for s in states)
    assert rtols[0] == _TANGENT_RTOL
    assert all(_KRYLOV_RTOL <= r <= 0.1 for r in rtols)
    assert max(rtols) == 0.1 and min(rtols) < 1e-3


def test_first_solve_far_from_the_solution_is_loose(small_problem, monkeypatch):
    rtols = _record_rtols(monkeypatch)
    state = trivial_solution(small_problem)
    lam = LambdaData.from_problem(small_problem, 0.5)
    _, history = newton_correct(small_problem, lam, state.pair)
    assert history[0] > 1e3 * SolverConfig().newton_tol
    assert history[-1] <= SolverConfig().newton_tol
    assert rtols[0] == 0.1
    assert len(rtols) == len(history) - 1


def test_reference_solve_work_stays_bounded(monkeypatch):
    # the path nests one level: 32 nodes and 32 steps under the config's 64
    # and 64.  The tangent first step, the secant predictor, the forcing terms
    # and the contraction step control hold the coarse path to 11 Newton
    # iterations plus the tangent solve: 12 Krylov solves with 28 applies in
    # all.  The lifted lam = 0 state then takes 2 Newton iterations, 2 solves
    # and 6 applies on the config grid, where the path marched directly took
    # 10 iterations, 11 solves and 28 applies
    counts = count_krylov_work(monkeypatch)
    cfg = load_config(REFERENCE_CFG)
    states = solve_path(build_problem(cfg), cfg.solver)
    assert states[-1].lam == 0.0
    *coarse, final = states
    assert sum(s.newton_iters for s in coarse) <= 11 and final.newton_iters <= 2
    assert list(counts) == [(32, 32), (64, 64)]
    assert 0 < counts[32, 32]["solves"] <= 12 and 0 < counts[32, 32]["applies"] <= 28
    assert 0 < counts[64, 64]["solves"] <= 2 and 0 < counts[64, 64]["applies"] <= 6


# Data fields of configs/reference.cfg and of the 2-D benchmark data: a
# constant plus terms (a, b, k) that read a cos(2 pi k.x) + b sin(2 pi k.x).
REFERENCE_WAVES = {
    "b_x": (0.0, [(0.0, 0.1, (1,))]),
    "v1": (0.0, [(0.05, 0.0, (1,))]),
    "psi": (0.0, [(0.05, 0.0, (1,))]),
    "m0": (1.0, [(0.2, 0.0, (1,))]),
}
GRID2D_WAVES = {
    "b_x": (0.0, [(0.0, 0.1, (1, 0))]),
    "b_y": (0.0, [(0.0, 0.05, (0, 1))]),
    "v1": (0.0, [(0.05, 0.0, (1, 1))]),
    "psi": (0.0, [(0.05, 0.0, (1, 0))]),
    "m0": (1.0, [(0.2, 0.0, (1, 0)), (0.1, 0.0, (0, 1))]),
}


def _translated_config(text: str, n: int, shift: tuple, waves: dict) -> str:
    """``text`` with each field of ``waves`` translated by ``shift`` nodes of
    ``n`` per axis and evaluated afresh: every term becomes
    A cos(2 pi k.x) + B sin(2 pi k.x) at x + shift / n."""
    for key, (const, terms) in waves.items():
        parts = [repr(const)] if const else []
        for a, b, k in terms:
            phi = 2.0 * math.pi * sum(ki * si for ki, si in zip(k, shift)) / n
            c, s = math.cos(phi), math.sin(phi)
            arg = ",".join(map(str, k))
            parts.append(f"{a * c + b * s!r}*cos({arg}) + {b * c - a * s!r}*sin({arg})")
        line = f"{key} = {' + '.join(parts)}"
        text = re.sub(rf"^{key} = .*$", line, text, count=1, flags=re.M)
    return text


def _stiff_config_text(shift: int) -> str:
    """configs/reference.cfg with psi = 2 cos(2 pi x) on N = n_t = 32 and every
    data field translated by ``shift`` nodes."""
    text = open(REFERENCE_CFG).read().replace("n = 64", "n = 32").replace("n_t = 64", "n_t = 32")
    return _translated_config(
        text, 32, (shift,), {**REFERENCE_WAVES, "psi": (0.0, [(2.0, 0.0, (1,))])}
    )


def test_stiff_path_work_does_not_depend_on_a_torus_shift(tmp_path, monkeypatch):
    # a whole-node translation of the data changes the discrete problem only
    # by roundoff, so the work must not change with it.  A solve tolerance at
    # the roundoff floor of its stopping test breaks this: with the tangent
    # at 1e-10, scipy's gmres took 106 applies on one of these shifts and 105
    # on the other
    counts = count_krylov_work(monkeypatch)
    work = []
    for shift in (15, 26):
        counts.clear()
        path = tmp_path / f"stiff{shift}.cfg"
        path.write_text(_stiff_config_text(shift))
        cfg = load_config(str(path))
        assert solve_path(build_problem(cfg), cfg.solver)[-1].lam == 0.0
        work.append({grid: dict(tally) for grid, tally in counts.items()})
    assert work[0] == work[1]


def test_reference_path_evaluates_each_linearization_once(monkeypatch):
    # on each grid, every Newton solve takes q, H(q) and D_pH(q) from the
    # residual of its right-hand side; only the tangent of the coarse path,
    # whose right-hand side is a difference of two residuals, evaluates them
    # again.  So 18 residuals on the 32-node grid make 19 calls, where one per
    # solve on top would make 30, and the 3 residuals of the correction on
    # the config grid make 3.  Marched directly, the path took 17 and 18
    counts = {}

    def counted(owner, name, key, grid_of):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            tally = counts.setdefault(grid_of(*args), dict.fromkeys(
                ("residual", "terms", "value", "grad"), 0))
            tally[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def of_problem(problem, *args):
        return problem.grid.points_per_dim, problem.time.steps

    def of_momentum(model, q):  # q is (d, slices, nodes), and d = 1 here
        return q.shape[-1], q.shape[-2] - 1

    counted(continuation, "residual_full", "residual", of_problem)
    counted(system, "_pair_terms", "terms", of_problem)  # residual_full's
    counted(linearized, "_pair_terms", "terms", of_problem)  # a fresh linearization's
    counted(HamiltonianModel, "value", "value", of_momentum)
    counted(HamiltonianModel, "grad", "grad", of_momentum)
    cfg = load_config(REFERENCE_CFG)
    states = solve_path(build_problem(cfg), cfg.solver)
    assert states[-1].lam == 0.0
    assert list(counts) == [(32, 32), (64, 64)]
    coarse, fine = counts[32, 32], counts[64, 64]
    assert coarse["residual"] == 18 and coarse["terms"] == coarse["residual"] + 1
    assert fine["residual"] == fine["terms"] == 3
    for tally in (coarse, fine):
        assert tally["value"] == tally["grad"] == tally["terms"]


def _record_newton_starts(monkeypatch):
    """Record the start pair of every Newton correction and count its failures."""
    starts, failures = [], []
    real = continuation.newton_correct

    def recording(problem, lam_data, pair, config, **kwargs):
        starts.append(pair)
        try:
            return real(problem, lam_data, pair, config, **kwargs)
        except NewtonFailure as failure:
            failures.append((lam_data.lam, failure))
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
    # psi = 2 cos(2 pi x) on N = 32, n_t = 32 (the benchmark's stiff1d) under
    # the reference caps: from the lam = 1 pair itself the first step was
    # rejected and the path took 51 linear solves; the tangent, the secant and
    # the contraction step control take 5 steps, 15 Newton solves and the
    # tangent's
    problem = make_problem(n=32, n_t=32, horizon=0.05, psi_amp=2.0)
    rtols = _record_rtols(monkeypatch)
    _, failures = _record_newton_starts(monkeypatch)
    states = solve_path(problem, CAPPED)
    assert states[-1].lam == 0.0
    assert failures == []
    assert len(states) - 1 <= 5
    assert len(rtols) <= 16


def test_rejected_step_is_retried_at_half_the_size(monkeypatch):
    # the default first step of 1 is too far for the stiff terminal data: at
    # lam = 0 the first Newton iteration contracts the residual by 0.94 only,
    # so the correction stops there instead of after 12 iterations, and the
    # step is retried at half the size; the accepted retry does not let the
    # next step grow, and two steps of 0.5 land
    problem = make_problem(n=32, n_t=32, horizon=0.05, psi_amp=2.0)
    starts, failures = _record_newton_starts(monkeypatch)
    cfg = SolverConfig()
    states = solve_path(problem, cfg)
    assert [(lam, f.reason) for lam, f in failures] == [(0.0, "contraction")]
    hist = failures[0][1].history
    assert len(hist) == 2 and hist[1] > _THETA_MAX * hist[0] > cfg.newton_tol
    assert len(starts) == 3
    assert [s.lam for s in states] == [1.0, 0.5, 0.0]
    assert [s.step for s in states[1:]] == [0.5, 0.5]
    assert 0.1 <= states[1].step / 1.0 <= 0.5
    for state in states:
        assert state.residual_norm <= cfg.newton_tol


def test_contraction_test_stops_a_correction_after_its_first_slow_iteration(monkeypatch):
    # from the lam = 1 pair of the stiff data, a correction at lam = 0 without
    # the test runs for several iterations; with it, the first iteration that
    # contracts by more than THETA_MAX ends it, and earlier ones passed
    problem = make_problem(n=32, n_t=32, horizon=0.05, psi_amp=2.0)
    start = trivial_solution(problem).pair
    lam = LambdaData.from_problem(problem, 0.0)
    cfg = SolverConfig()
    with pytest.raises(NewtonFailure) as free:
        newton_correct(problem, lam, start, cfg)
    assert free.value.reason != "contraction"
    assert len(free.value.history) - 1 > 1
    with pytest.raises(NewtonFailure) as tested:
        newton_correct(problem, lam, start, cfg, theta_max=_THETA_MAX)
    assert tested.value.reason == "contraction"
    hist = tested.value.history
    ratios = [b / a for a, b in zip(hist, hist[1:])]
    assert ratios[-1] > _THETA_MAX and all(r <= _THETA_MAX for r in ratios[:-1])
    assert hist == free.value.history[: len(hist)]


def test_line_search_accepts_a_damped_step(monkeypatch):
    # from the lam = 1 pair, the first full Newton steps toward lam = 0.9 with
    # psi = 0.5 cos(2 pi x) raise the residual; their halves lower it
    problem = make_problem(psi_amp=0.5)
    start = trivial_solution(problem).pair
    events = []
    real_solve, real_residual = continuation.solve_linearized, continuation.residual_full

    def solve(problem, lam_data, base, rhs, **kwargs):
        w = real_solve(problem, lam_data, base, rhs, **kwargs)
        events.append((base, w))
        return w

    def residual(problem, lam_data, pair):
        events.append(pair)
        return real_residual(problem, lam_data, pair)

    monkeypatch.setattr(continuation, "solve_linearized", solve)
    monkeypatch.setattr(continuation, "residual_full", residual)
    cfg = SolverConfig()
    _, history = newton_correct(problem, LambdaData.from_problem(problem, 0.9), start, cfg)
    assert history[-1] <= cfg.newton_tol
    # after a solve at base the line search tries base - s w for s = 1, 1/2,
    # ... and keeps the first that lowers the residual: the last one tried
    taken = []
    for i, event in enumerate(events):
        if not isinstance(event, tuple):
            continue
        base, w = event
        tried = []
        for later in events[i + 1 :]:
            if isinstance(later, tuple):
                break
            tried += [
                s for s in (0.5**j for j in range(40))
                if np.array_equal(later.m.values, base.m.values - s * w.f.values)
            ]
        taken.append(tried[-1])
    assert len(taken) == len(history) - 1
    assert taken[0] == 0.5
    assert taken[-1] == 1.0


@pytest.mark.parametrize("stiff", [False, True])
def test_adaptive_steps_follow_the_first_contraction(small_problem, stiff):
    # each step is the last one times sqrt(THETA_TARGET / theta) of the
    # correction that ended it, clipped to [1/4, 4] and to dlambda_max; only
    # the last step is cut short, by lam = 0
    problem = make_problem(n=32, n_t=32, horizon=0.05, psi_amp=2.0) if stiff else small_problem
    states = solve_path(problem, CAPPED)
    assert states[1].step == pytest.approx(CAPPED.dlambda_init, rel=1e-12)
    for prev, state in zip(states[1:], states[2:]):
        factor = math.sqrt(continuation._THETA_TARGET / prev.theta)
        want = min(prev.step * min(max(factor, 0.25), 4.0), CAPPED.dlambda_max)
        if state.lam > 0.0:
            assert state.step == pytest.approx(want, rel=1e-12)
        else:
            assert state.step <= want * (1.0 + 1e-12)
    assert all(0.0 < s.theta < _THETA_MAX for s in states[1:])
    assert len(states) > 3


def test_fixed_steps_stay_pinned(small_problem):
    # dlambda_init == dlambda_max pins the step while Newton contracts well
    # within THETA_TARGET, and the last step takes what is left
    states = solve_path(small_problem, SolverConfig(dlambda_init=0.3, dlambda_max=0.3))
    assert [s.lam for s in states] == pytest.approx([1.0, 0.7, 0.4, 0.1, 0.0], abs=1e-12)


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


# the perfbench grid2d data on 32x32 nodes, whose path nests 16x16 and 8x8
NESTED_2D = """
[problem]
d = 2
n = 32
n_t = {n_t}
t = 0.05
gamma = 1.5
alpha = 0.5
b_x = 0.1*sin(1,0)
b_y = 0.05*sin(0,1)
v1 = 0.05*cos(1,1)
v2 = arctan
psi = 0.05*cos(1,0)
m0 = 1 + 0.2*cos(1,0) + 0.1*cos(0,1)
"""


def _nested_problem(tmp_path, n_t):
    path = tmp_path / "nested.cfg"
    path.write_text(NESTED_2D.format(n_t=n_t))
    cfg = load_config(str(path))
    return build_problem(cfg), cfg.solver


def _sup_gap(a, b):
    return max(np.max(np.abs(a.u.values - b.u.values)), np.max(np.abs(a.m.values - b.m.values)))


def test_coarse_problem_is_the_config_on_the_coarse_grid(tmp_path):
    problem, _ = _nested_problem(tmp_path, 8)
    path = tmp_path / "coarse.cfg"
    path.write_text(NESTED_2D.format(n_t=4).replace("n = 32", "n = 16"))
    direct = build_problem(load_config(str(path)))
    coarse = continuation._coarse_problem(problem)
    assert coarse.grid == direct.grid and coarse.time == direct.time

    def scalars(p):
        return p.alpha, p.potential.v2_kind, p.hamiltonian.gamma

    assert scalars(coarse) == scalars(direct)
    for got, want in [
        (coarse.hamiltonian.weight, direct.hamiltonian.weight),
        (coarse.b, direct.b),
        (coarse.potential.v1, direct.potential.v1),
        (coarse.psi, direct.psi),
        (coarse.m0, direct.m0),
    ]:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n_t, coarse_n_t", [(8, 4), (7, 7)])
def test_lift_is_exact_on_band_limited_fields_linear_in_time(n_t, coarse_n_t):
    fine = make_problem(n=32, n_t=n_t, dim=2)
    coarse_grid, coarse_time = PeriodicGrid(2, 16), TimeGrid(fine.time.horizon, coarse_n_t)

    def sample(grid, time):
        x, y = grid.coordinates()
        f = np.cos(2 * np.pi * (3 * x - 2 * y)) + np.sin(2 * np.pi * 7 * y)
        vals = (1.0 + 5.0 * time.times())[:, None] * f.ravel()[None, :] + 2.0
        return SpaceTimeField(grid, time, vals)

    coarse = sample(coarse_grid, coarse_time)
    lifted = continuation._lift(SolutionPair(u=coarse, m=coarse), fine)
    want = sample(fine.grid, fine.time).values
    for f in (lifted.u, lifted.m):
        assert f.grid == fine.grid and f.time == fine.time
        np.testing.assert_allclose(f.values, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n_t, coarse_n_t", [(8, 4), (7, 7)])
def test_nested_path_matches_the_direct_march(tmp_path, n_t, coarse_n_t):
    # the 32x32 path nests two levels: the 8x8 path, then one correction on
    # 16x16 and one on 32x32; each level halves an even n_t
    level_n_t = (coarse_n_t // 2 if coarse_n_t % 2 == 0 else coarse_n_t, coarse_n_t)
    problem, cfg = _nested_problem(tmp_path, n_t)
    states = solve_path(problem, cfg)
    direct = continuation._march(problem, cfg)
    *coarsest, middle, final = states
    for s in coarsest:
        assert s.pair.u.grid.shape == (8, 8) and s.pair.u.time.steps == level_n_t[0]
        assert s.residual_norm <= cfg.newton_tol
    assert coarsest[0].lam == 1.0 and coarsest[-1].lam == 0.0
    for s, shape, steps in ((middle, (16, 16), level_n_t[1]), (final, (32, 32), n_t)):
        assert s.pair.u.grid.shape == shape and s.pair.m.time.steps == steps
        assert s.lam == 0.0 and s.step == 0.0
        assert s.newton_iters <= 3
        assert s.residual_norm <= cfg.newton_tol
    assert final.pair.u.grid == problem.grid and final.pair.m.time == problem.time
    assert _sup_gap(final.pair, direct[-1].pair) <= 1e-13


def test_reference_path_nests_one_level_in_one_dimension():
    # 64 nodes keep 32 on the coarse grid; 32 would keep 16, so the coarse
    # path is marched
    cfg = load_config(REFERENCE_CFG)
    problem = build_problem(cfg)
    *coarse, final = solve_path(problem, cfg.solver)
    assert all(s.pair.u.grid.num_nodes == s.pair.u.time.steps == 32 for s in coarse)
    assert coarse[0].lam == 1.0 and coarse[-1].lam == 0.0 < coarse[-1].step
    assert final.pair.u.grid == problem.grid and final.pair.u.time == problem.time
    assert final.step == 0.0 and final.residual_norm <= cfg.solver.newton_tol
    direct = continuation._march(problem, cfg.solver)
    assert _sup_gap(final.pair, direct[-1].pair) <= 1e-13


@pytest.mark.parametrize("data", ["reference", "grid2d"])
def test_nested_work_does_not_depend_on_an_odd_torus_shift(tmp_path, monkeypatch, data):
    # an odd shift on the config grid is a half-node shift on every coarse
    # grid, whose injected data are then other samples of the same fields,
    # not a translation of them; the work on no grid may change with it.  The
    # 2-D case is the benchmark's grid2d config, under the reference caps
    if data == "reference":
        text, n, waves, shifts = open(REFERENCE_CFG).read(), 64, REFERENCE_WAVES, [(0,), (53,)]
    else:
        text = NESTED_2D.format(n_t=64) + "\n[solver]\ndlambda_init = 0.1\ndlambda_max = 0.25\n"
        n, waves, shifts = 32, GRID2D_WAVES, [(0, 0), (21, 25)]
    counts = count_krylov_work(monkeypatch)
    work = []
    for shift in shifts:
        counts.clear()
        path = tmp_path / "shifted.cfg"
        path.write_text(_translated_config(text, n, shift, waves))
        cfg = load_config(str(path))
        assert solve_path(build_problem(cfg), cfg.solver)[-1].lam == 0.0
        work.append({grid: dict(tally) for grid, tally in counts.items()})
    assert work[0] == work[1]
    assert len(work[0]) == (2 if data == "reference" else 3)


def test_failed_middle_correction_marches_that_level(tmp_path, monkeypatch):
    # the 16x16 correction of the 8x8 path fails: the 16x16 path is marched
    # from lam = 1, and its lam = 0 state still starts the 32x32 correction
    problem, _ = _nested_problem(tmp_path, 8)
    cfg = CAPPED
    real = continuation.newton_correct
    middle_calls = []

    def failing_newton(prob, lam_data, pair, config, **kwargs):
        if prob.grid.points_per_dim == 16:
            middle_calls.append(lam_data.lam)
            if middle_calls == [0.0]:
                raise NewtonFailure("injected", [], "inner solve")
        return real(prob, lam_data, pair, config, **kwargs)

    monkeypatch.setattr(continuation, "newton_correct", failing_newton)
    accepted = []
    states = solve_path(problem, cfg, on_state=accepted.append)
    assert middle_calls[:2] == [0.0, 0.9]
    *middle, final = states
    assert all(s.pair.u.grid.shape == (16, 16) and s.pair.u.time.steps == 4 for s in middle)
    assert middle[0].lam == 1.0 and middle[-1].lam == 0.0 < middle[-1].step
    assert final.pair.u.grid == problem.grid and final.pair.u.time == problem.time
    assert final.lam == final.step == 0.0 and final.residual_norm <= cfg.newton_tol
    # the 8x8 states were reported before the 16x16 march's
    early = accepted[: len(accepted) - len(states)]
    assert early and all(s.pair.u.grid.shape == (8, 8) for s in early)
    assert all(a is b for a, b in zip(accepted[len(early):], states))
    monkeypatch.setattr(continuation, "newton_correct", real)
    direct = continuation._march(problem, cfg)
    assert _sup_gap(final.pair, direct[-1].pair) <= 1e-13


@pytest.mark.parametrize("failing", ["coarse path", "fine correction"])
def test_nested_path_falls_back_to_the_target_grid(tmp_path, monkeypatch, failing):
    # under the reference caps the direct march's first correction is at 0.9,
    # and the nested path's fine correction at 0
    problem, _ = _nested_problem(tmp_path, 8)
    cfg = CAPPED
    real = continuation.newton_correct
    fine_calls = []

    def failing_newton(prob, lam_data, pair, config, **kwargs):
        on_target = prob.grid == problem.grid
        if on_target:
            fine_calls.append(lam_data.lam)
        if (failing == "coarse path" and not on_target) or fine_calls == [0.0]:
            raise NewtonFailure("injected", [], "inner solve")
        return real(prob, lam_data, pair, config, **kwargs)

    monkeypatch.setattr(continuation, "newton_correct", failing_newton)
    accepted = []
    states = solve_path(problem, cfg, on_state=accepted.append)
    assert fine_calls[0] == (0.0 if failing == "fine correction" else 0.9)
    assert states[0].lam == 1.0 and states[-1].lam == 0.0
    assert all(s.pair.u.grid == problem.grid for s in states)
    # the coarse states were reported before the fallback's
    assert len(accepted) > len(states)
    assert all(a is b for a, b in zip(accepted[-len(states):], states))
    monkeypatch.setattr(continuation, "newton_correct", real)
    direct = continuation._march(problem, cfg)
    assert _sup_gap(states[-1].pair, direct[-1].pair) == 0.0
