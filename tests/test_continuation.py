import math
import os
import re

import numpy as np
import pytest

from mfgcon import continuation, linearized, system
from mfgcon.continuation import (
    _TANGENT_RTOL,
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
    # the tangent solve at its own tolerance, then one solve per Newton iteration
    assert len(rtols) == 1 + sum(s.newton_iters for s in states)
    assert rtols[0] == _TANGENT_RTOL
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


def _count_krylov_work(monkeypatch) -> dict:
    """Count Krylov solves and their operator applies from here on."""
    counts = {"solves": 0, "applies": 0}
    real = linearized._right_preconditioned_apply

    def counting_operator(*args):
        counts["solves"] += 1
        apply = real(*args)

        def counted(y):
            counts["applies"] += 1
            return apply(y)

        return counted

    monkeypatch.setattr(linearized, "_right_preconditioned_apply", counting_operator)
    return counts


def test_reference_solve_work_stays_bounded(monkeypatch):
    # the tangent first step, the secant predictor and the forcing terms hold
    # this config to 12 Newton iterations plus the tangent solve: 13 Krylov
    # solves on the right-preconditioned operator, with 32 applies in all; a
    # closing true-residual apply per solve would make 45
    counts = _count_krylov_work(monkeypatch)
    cfg = load_config(REFERENCE_CFG)
    states = solve_path(build_problem(cfg), cfg.solver)
    assert states[-1].lam == 0.0
    assert sum(s.newton_iters for s in states) <= 12
    assert 0 < counts["solves"] <= 13
    assert 0 < counts["applies"] <= 32


def _stiff_config_text(shift: int) -> str:
    """configs/reference.cfg with psi = 2 cos(2 pi x) on N = n_t = 32 and every
    data field translated by ``shift`` nodes, evaluated afresh:
    A cos(2 pi x) + B sin(2 pi x) at x + shift / 32."""
    phi = 2.0 * math.pi * shift / 32
    c, s = math.cos(phi), math.sin(phi)

    def wave(a, b):
        return f"{a * c + b * s!r}*cos(1) + {b * c - a * s!r}*sin(1)"

    lines = {
        "n": "32", "n_t": "32", "b_x": wave(0.0, 0.1), "v1": wave(0.05, 0.0),
        "psi": wave(2.0, 0.0), "m0": "1 + " + wave(0.2, 0.0),
    }
    text = open(REFERENCE_CFG).read()
    for key, value in lines.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
    return text


def test_stiff_path_work_does_not_depend_on_a_torus_shift(tmp_path, monkeypatch):
    # a whole-node translation of the data changes the discrete problem only
    # by roundoff, so the work must not change with it.  A solve tolerance at
    # the roundoff floor of its stopping test breaks this: with the tangent
    # at 1e-10, scipy's gmres took 106 applies on one of these shifts and 105
    # on the other
    counts = _count_krylov_work(monkeypatch)
    work = []
    for shift in (15, 26):
        counts.update(solves=0, applies=0)
        path = tmp_path / f"stiff{shift}.cfg"
        path.write_text(_stiff_config_text(shift))
        cfg = load_config(str(path))
        assert solve_path(build_problem(cfg), cfg.solver)[-1].lam == 0.0
        work.append(dict(counts))
    assert work[0] == work[1]


def test_reference_path_evaluates_each_linearization_once(monkeypatch):
    # every Newton solve takes q, H(q) and D_pH(q) from the residual of its
    # right-hand side; only the tangent, whose right-hand side is a difference
    # of two residuals, evaluates them again, so 20 residuals make 21 calls
    # where one per solve on top would make 33
    counts = {"residual": 0, "shared": 0, "value": 0, "grad": 0}

    def counted(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(continuation, "residual_full", "residual")
    counted(system, "_shared_terms", "shared")
    counted(HamiltonianModel, "value", "value")
    counted(HamiltonianModel, "grad", "grad")
    cfg = load_config(REFERENCE_CFG)
    states = solve_path(build_problem(cfg), cfg.solver)
    assert states[-1].lam == 0.0
    assert counts["residual"] == 20
    assert counts["shared"] <= counts["residual"] + 1
    assert counts["value"] == counts["grad"] == counts["shared"]


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


def test_rejected_step_is_retried_at_half_the_size(monkeypatch):
    # one pinned step of 1 is too far for the stiff terminal data: Newton runs
    # out of iterations at lam = 0, the step halves, and two steps of 0.5 land
    problem = make_problem(n=32, n_t=32, horizon=0.05, psi_amp=2.0)
    starts, failures = _record_newton_starts(monkeypatch)
    cfg = SolverConfig(dlambda_init=1.0, dlambda_max=1.0)
    states = solve_path(problem, cfg)
    assert failures == [0.0]
    assert len(starts) == 3
    assert [s.lam for s in states] == [1.0, 0.5, 0.0]
    assert [s.step for s in states[1:]] == [0.5, 0.5]
    for state in states:
        assert state.residual_norm <= cfg.newton_tol


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
    _, diag = newton_correct(problem, LambdaData.from_problem(problem, 0.9), start, cfg)
    assert diag.residual_history[-1] <= cfg.newton_tol
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
    assert len(taken) == diag.iterations
    assert taken[0] == 0.5
    assert taken[-1] == 1.0


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


# the perfbench grid2d data on 32x32 nodes, the smallest grid with a nested path
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
    assert coarse.k0 == pytest.approx(direct.k0, abs=1e-15)

    def scalars(p):
        return p.alpha, p.m_floor, p.potential.v2_kind, p.hamiltonian.gamma

    assert scalars(coarse) == scalars(direct)
    for got, want in [
        (coarse.hamiltonian.weight, direct.hamiltonian.weight),
        (coarse.b.values, direct.b.values),
        (coarse.potential.v1.values, direct.potential.v1.values),
        (coarse.psi.values, direct.psi.values),
        (coarse.m0.values, direct.m0.values),
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
    problem, cfg = _nested_problem(tmp_path, n_t)
    states = solve_path(problem, cfg)
    direct = continuation._march(problem, cfg)
    *coarse, final = states
    for s in coarse:
        assert s.pair.u.grid.shape == (16, 16) and s.pair.u.time.steps == coarse_n_t
        assert s.residual_norm <= cfg.newton_tol
    assert coarse[0].lam == 1.0 and coarse[-1].lam == 0.0
    assert final.lam == 0.0 and final.step == 0.0
    assert final.pair.u.grid == problem.grid and final.pair.m.time == problem.time
    assert final.newton_iters <= 3
    assert final.residual_norm <= cfg.newton_tol
    assert _sup_gap(final.pair, direct[-1].pair) <= 1e-12


@pytest.mark.parametrize("failing", ["coarse path", "fine correction"])
def test_nested_path_falls_back_to_the_target_grid(tmp_path, monkeypatch, failing):
    problem, cfg = _nested_problem(tmp_path, 8)
    real = continuation.newton_correct
    fine_calls = []

    def failing_newton(prob, lam_data, pair, config):
        on_target = prob.grid == problem.grid
        if on_target:
            fine_calls.append(lam_data.lam)
        if (failing == "coarse path" and not on_target) or fine_calls == [0.0]:
            raise NewtonFailure("injected", continuation.NewtonDiagnostics(0))
        return real(prob, lam_data, pair, config)

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
