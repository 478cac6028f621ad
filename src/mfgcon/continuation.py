"""Homotopy continuation from the explicit endpoint to the target system.

At lam = 1 the blended system has the closed-form solution m == 1 and
u(x, t) = (1 - pi/4)(t - T); the representative with u(., T) = 0 is used so
the terminal row vanishes.  From there lam marches monotonically to 0 as a
predictor-corrector method (Allgower & Georg, *Introduction to Numerical
Continuation Methods*, SIAM 2003, ch. 2 and 6).  The first step predicts
along the Euler tangent at lam = 1: the residual is affine in lam,
F(x, lam) = (1 - lam) F(x, 0) + lam F(x, 1), so dF/dlam costs two residual
evaluations and the tangent one linear solve with the constant lam = 1
coefficients.  Every later step extrapolates the secant of the last two
accepted states.  An inexact damped Newton corrector with Eisenstat-Walker
forcing terms (SIAM J. Sci. Comput. 17, 1996) brings the guess to the
certified tolerance.  The step halves on failure, grows when the first Newton
iteration contracted the residual strongly, and never leaves a last step
shorter than half the current one.  Every accepted state carries the residual
certificate Newton accepted it on.

On a fine enough d = 2 grid the march runs one level down, as in the nested
iteration of full multigrid (Brandt, "Multi-level adaptive solutions to
boundary-value problems", Math. Comp. 31, 1977): the problem is injected onto
every other node, with n_t halved when even, the path is marched there, and
its lam = 0 state, interpolated back, starts one Newton correction on the
target grid.  By the mesh-independence principle (Allgower, Boehmer, Potra &
Rheinboldt, SIAM J. Numer. Anal. 23, 1986) that correction needs only a few
iterations.  When the coarse path stalls or the correction fails, the path is
marched on the target grid from lam = 1 as if no level had been nested.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grids import (
    Field,
    PeriodicGrid,
    SpaceTimeField,
    TimeGrid,
    VectorField,
    fourier_interpolate,
    integrate,
)
from .linearized import _KRYLOV_RTOL, LinearSolveError, Perturbation, solve_linearized
from .system import LambdaData, MFGProblem, ResidualBundle, SolutionPair, residual_full

__all__ = [
    "SolverConfig",
    "ContinuationState",
    "NewtonDiagnostics",
    "NewtonFailure",
    "HorizonError",
    "trivial_solution",
    "newton_correct",
    "solve_path",
]

# Eisenstat-Walker choice 2: eta = GAMMA (r_k / r_{k-1})^2, capped at ETA_MAX.
_EW_GAMMA = 0.9
_ETA_MAX = 0.1
# The step grows by STEP_GROWTH when the first Newton iteration cut the
# residual by at least 1 / EASY_CONTRACTION.
_STEP_GROWTH = 1.5
_EASY_CONTRACTION = 0.01
# Roundoff allowance on lam: nine steps of 0.1 from 1 leave
# 0.10000000000000014, which must still fit in a dlambda_max of 0.1.
_LAMBDA_ROUNDOFF = 1e-12
# Relative tolerance of the lam = 1 tangent solve.  With terminal cost
# 2 cos(2 pi x) on N = n_t = 32, the Krylov loop's residual estimate after
# its second apply lies between 2.2e-11 and 7.7e-11 relative over a dozen
# torus shifts of the data, so near 1e-10 roundoff would decide whether it
# takes a third; 1e-9 sits clear of that floor.  The tangent only predicts
# the first Newton start, so this changes no certificate.
_TANGENT_RTOL = 1e-9
# Nest one coarse level under d = 2 paths on at least this many nodes per
# axis.  d = 1 paths are marched directly: halving configs/reference.cfg
# takes 13 coarse + 2 fine Newton iterations and 46 + 8 applies, against 12
# and 45, to save at most 0.02 s per solve.
_NEST_DIM = 2
_NEST_MIN_POINTS = 32


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    newton_max_iters: int = 12
    dlambda_init: float = 0.1
    dlambda_min: float = 1e-4
    dlambda_max: float = 0.25
    m_positivity_margin: float = 1e-6

    def __post_init__(self):
        if self.newton_tol <= 0.0 or self.m_positivity_margin <= 0.0:
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.dlambda_min <= self.dlambda_init <= self.dlambda_max <= 1.0:
            raise ValueError("need 0 < dlambda_min <= dlambda_init <= dlambda_max <= 1")


@dataclass
class ContinuationState:
    """An accepted point on the homotopy path with its residual certificate."""

    lam: float
    pair: SolutionPair
    residual_norm: float
    newton_iters: int
    step: float

    def min_density(self) -> float:
        return self.pair.min_density()


@dataclass
class NewtonDiagnostics:
    iterations: int
    residual_history: list = field(default_factory=list)


class NewtonFailure(RuntimeError):
    def __init__(self, message: str, diagnostics: NewtonDiagnostics):
        self.diagnostics = diagnostics
        super().__init__(message)


class HorizonError(RuntimeError):
    """The step size underflowed; the path left the tractable short-time regime."""

    def __init__(self, states: list, failed_lambda: float):
        self.states = states
        self.failed_lambda = failed_lambda
        last = states[-1].lam if states else float("nan")
        super().__init__(
            f"continuation stalled at lambda={failed_lambda:.4f}; last accepted lambda={last:.4f}"
        )


def _trivial_start(problem: MFGProblem) -> tuple[ContinuationState, ResidualBundle]:
    """The exact lam = 1 state and its residual rows, which the tangent reuses."""
    times = problem.time.times()
    horizon = problem.time.horizon
    slope = 1.0 - np.pi / 4.0
    u_vals = np.repeat(
        (slope * (times - horizon))[:, None], problem.grid.num_nodes, axis=1
    )
    m_vals = np.ones((problem.time.num_slices, problem.grid.num_nodes))
    pair = SolutionPair(
        u=SpaceTimeField(problem.grid, problem.time, u_vals),
        m=SpaceTimeField(problem.grid, problem.time, m_vals),
    )
    at_one = residual_full(problem, LambdaData.from_problem(problem, 1.0), pair)
    state = ContinuationState(
        lam=1.0, pair=pair, residual_norm=at_one.sup_norm(), newton_iters=0, step=0.0
    )
    return state, at_one


def trivial_solution(problem: MFGProblem) -> ContinuationState:
    """The exact lam = 1 state: uniform density, spatially flat value function."""
    return _trivial_start(problem)[0]


def _forcing_term(res: float, res_prev: float | None, tol: float) -> float:
    """Relative Krylov tolerance of the next Newton solve (Eisenstat-Walker choice 2).

    The first solve of a correction uses ``_ETA_MAX``.  The floor keeps the
    solve from aiming below a tenth of ``tol`` in absolute terms, and never
    below ``_KRYLOV_RTOL``.  The usual safeguard max(eta, GAMMA eta_prev^2)
    only acts when GAMMA eta_prev^2 > 0.1, which the cap at 0.1 rules out.
    """
    eta = _ETA_MAX if res_prev is None else min(_EW_GAMMA * (res / res_prev) ** 2, _ETA_MAX)
    return max(eta, _KRYLOV_RTOL, 0.1 * tol / res)


def newton_correct(
    problem: MFGProblem,
    lam_data: LambdaData,
    pair: SolutionPair,
    config: SolverConfig = SolverConfig(),
) -> tuple[SolutionPair, NewtonDiagnostics]:
    """Inexact damped Newton iteration on the full residual.

    Each iteration solves L w = r at the current pair to the relative
    tolerance of :func:`_forcing_term` and steps along -w.  Accepts once the
    sup-norm drops below ``newton_tol``, so the inexact inner solves change
    how fast the residual falls but not the acceptance test.  Each step is
    halved until the residual decreases and the density keeps its positivity
    margin; running out of damping or iterations, or an inner linear solve
    that misses its tolerance, raises NewtonFailure.
    """
    current = pair.copy()
    bundle = residual_full(problem, lam_data, current)
    res = bundle.sup_norm()
    diag = NewtonDiagnostics(iterations=0, residual_history=[res])
    res_prev = None
    for it in range(config.newton_max_iters):
        if res <= config.newton_tol:
            return current, diag
        eta = _forcing_term(res, res_prev, config.newton_tol)
        try:
            w: Perturbation = solve_linearized(problem, lam_data, current, bundle, rtol=eta)
        except LinearSolveError as exc:
            raise NewtonFailure(f"inner linear solve failed: {exc}", diag) from exc
        step = 1.0
        accepted = None
        for _ in range(40):
            cand = SolutionPair(
                u=SpaceTimeField(
                    problem.grid, problem.time, current.u.values - step * w.v.values
                ),
                m=SpaceTimeField(
                    problem.grid, problem.time, current.m.values - step * w.f.values
                ),
            )
            if cand.min_density() < config.m_positivity_margin:
                step *= 0.5
                continue
            cand_bundle = residual_full(problem, lam_data, cand)
            cand_res = cand_bundle.sup_norm()
            if cand_res < res:
                accepted = (cand, cand_bundle, cand_res)
                break
            step *= 0.5
        if accepted is None:
            raise NewtonFailure(
                "line search could not decrease the residual while keeping m positive",
                diag,
            )
        res_prev = res
        current, bundle, res = accepted
        diag.iterations = it + 1
        diag.residual_history.append(res)
    if res <= config.newton_tol:
        return current, diag
    raise NewtonFailure(
        f"no convergence in {config.newton_max_iters} iterations (residual {res:.3e})",
        diag,
    )


def _shifted(pair: SolutionPair, s: float, dv: np.ndarray, df: np.ndarray, margin: float):
    """``pair + s (dv, df)``, or ``pair`` itself when that density falls below ``margin``."""
    m = pair.m.values + s * df
    if np.min(m) < margin:
        return pair
    u = pair.u.values + s * dv
    grid, time = pair.u.grid, pair.u.time
    return SolutionPair(u=SpaceTimeField(grid, time, u), m=SpaceTimeField(grid, time, m))


def _euler_tangent(
    problem: MFGProblem, pair: SolutionPair, at_one: ResidualBundle
) -> Perturbation | None:
    """Direction w with L w = dF/dlam at the lam = 1 pair, so that dx/dlam = -w.

    The residual is affine in lam, hence dF/dlam = F(x, 1) - F(x, 0) exactly;
    ``at_one`` is F(x, 1), the rows of the lam = 1 certificate.  Returns None
    when the linear solve misses its tolerance; the first step then starts
    from the pair itself.
    """
    lam_one = LambdaData.from_problem(problem, 1.0)
    at_zero = residual_full(problem, LambdaData.from_problem(problem, 0.0), pair)
    grid, time = problem.grid, problem.time
    dfdl = ResidualBundle(
        fp=SpaceTimeField(grid, time, at_one.fp.values - at_zero.fp.values),
        hjb=SpaceTimeField(grid, time, at_one.hjb.values - at_zero.hjb.values),
    )
    try:
        return solve_linearized(problem, lam_one, pair, dfdl, rtol=_TANGENT_RTOL)
    except LinearSolveError:
        return None


def _tangent_guess(
    start: ContinuationState, tangent: Perturbation | None, lam_next: float, margin: float
) -> SolutionPair:
    """Start of the first Newton correction: x_1 + (1 - lam_next) w along the tangent.

    The lam = 1 pair is used instead when the tangent solve failed or the
    predicted density falls below ``margin``.
    """
    if tangent is None:
        return start.pair
    return _shifted(start.pair, start.lam - lam_next, tangent.v.values, tangent.f.values, margin)


def _secant_guess(states: list, lam_next: float, margin: float) -> SolutionPair:
    """Start of the Newton correction at ``lam_next`` from the second step on.

    The last two accepted states are extrapolated along their secant,
    x_k + s (x_k - x_{k-1}) with s = (lam_next - lam_k) / (lam_k - lam_{k-1}).
    The last accepted pair is used instead when the extrapolated density
    falls below ``margin``.
    """
    last, prev = states[-1], states[-2]
    s = (lam_next - last.lam) / (last.lam - prev.lam)
    return _shifted(
        last.pair,
        s,
        last.pair.u.values - prev.pair.u.values,
        last.pair.m.values - prev.pair.m.values,
        margin,
    )


def _march(
    problem: MFGProblem, config: SolverConfig, on_state=None
) -> list[ContinuationState]:
    """March lam from 1 to 0 on the problem's own grid (see :func:`solve_path`)."""
    state, at_one = _trivial_start(problem)
    states = [state]
    if on_state is not None:
        on_state(state)
    tangent = _euler_tangent(problem, state.pair, at_one)
    del at_one  # its Hamiltonian terms would otherwise stay alive for the whole path
    dl = config.dlambda_init
    lam = 1.0
    while lam > 0.0:
        lam_next = lam - dl
        if lam_next < 0.5 * dl:
            lam_next = 0.0 if lam <= config.dlambda_max + _LAMBDA_ROUNDOFF else 0.5 * lam
        lam_data = LambdaData.from_problem(problem, lam_next)
        if len(states) == 1:
            guess = _tangent_guess(states[0], tangent, lam_next, config.m_positivity_margin)
        else:
            guess = _secant_guess(states, lam_next, config.m_positivity_margin)
        try:
            pair, diag = newton_correct(problem, lam_data, guess, config)
        except NewtonFailure:
            dl *= 0.5
            if dl < config.dlambda_min:
                raise HorizonError(states, lam_next)
            continue
        state = ContinuationState(
            lam=lam_next,
            pair=pair,
            residual_norm=diag.residual_history[-1],
            newton_iters=diag.iterations,
            step=lam - lam_next,
        )
        states.append(state)
        if on_state is not None:
            on_state(state)
        lam = lam_next
        hist = diag.residual_history
        if len(hist) < 2 or hist[1] <= _EASY_CONTRACTION * hist[0]:
            dl = min(dl * _STEP_GROWTH, config.dlambda_max)
    return states


def _coarse_problem(problem: MFGProblem) -> MFGProblem:
    """The problem on every other node, with n_t halved when it is even.

    Coarse node j sits at fine node 2j, so injecting the data fields equals
    sampling their expressions on the coarse grid; m0 is renormalized to unit
    mass there and k0 recomputed from it.
    """
    grid, time = problem.grid, problem.time
    coarse = PeriodicGrid(grid.dim, grid.points_per_dim // 2)
    every_other = (Ellipsis,) + (slice(None, None, 2),) * grid.dim

    def inject(values: np.ndarray) -> np.ndarray:
        shaped = np.reshape(values, np.shape(values)[:-1] + grid.shape)
        return shaped[every_other].reshape(shaped.shape[: -grid.dim] + (coarse.num_nodes,))

    weight = problem.hamiltonian.weight
    v1 = problem.potential.v1
    m0 = Field(coarse, inject(problem.m0.values))
    return replace(
        problem,
        grid=coarse,
        time=TimeGrid(time.horizon, time.steps // 2 if time.steps % 2 == 0 else time.steps),
        hamiltonian=replace(
            problem.hamiltonian, weight=inject(weight) if np.ndim(weight) else weight
        ),
        b=VectorField(coarse, inject(problem.b.values)),
        potential=replace(
            problem.potential, v1=None if v1 is None else Field(coarse, inject(v1.values))
        ),
        psi=Field(coarse, inject(problem.psi.values)),
        m0=Field(coarse, m0.values / integrate(m0)),
        k0=0.0,
    )


def _lift(pair: SolutionPair, problem: MFGProblem) -> SolutionPair:
    """``pair`` on the problem's grids: Fourier interpolation in space, linear in time.

    When the coarse path halved n_t, even fine slices copy the coarse ones and
    odd slices average their two neighbours.
    """
    num_slices = problem.time.num_slices

    def lift(f: SpaceTimeField) -> SpaceTimeField:
        coarse = fourier_interpolate(f, problem.grid.points_per_dim).values
        if coarse.shape[0] == num_slices:
            return SpaceTimeField(problem.grid, problem.time, coarse)
        fine = np.empty((num_slices, coarse.shape[1]))
        fine[::2] = coarse
        fine[1::2] = 0.5 * (coarse[:-1] + coarse[1:])
        return SpaceTimeField(problem.grid, problem.time, fine)

    return SolutionPair(u=lift(pair.u), m=lift(pair.m))


def solve_path(
    problem: MFGProblem,
    config: SolverConfig = SolverConfig(),
    on_state=None,
) -> list[ContinuationState]:
    """March lam from 1 to 0, predicting and Newton-correcting at every step.

    Returns the accepted states in order (lam = 1 first, lam = 0 last), and
    passes each one to ``on_state`` as it is accepted.  Newton starts the
    first step from the Euler tangent at lam = 1 (see :func:`_tangent_guess`;
    the tangent is solved once per path and reused when that step is
    retried) and every later step from the secant of the last two accepted
    states (see :func:`_secant_guess`).  The step starts at
    ``dlambda_init``, halves when Newton fails and grows by 1.5x, up to
    ``dlambda_max``, when the first Newton iteration cut the residual at
    least a hundredfold; ``dlambda_init == dlambda_max`` pins it.  A step
    that would leave less than half of itself ends the path instead when the
    rest fits in ``dlambda_max``, and otherwise takes half of what is left,
    so the path never ends on a sliver.  Underflow of the step below
    ``dlambda_min`` raises :class:`HorizonError` carrying the states
    accepted so far.

    In d = 2 with at least 32 nodes per axis the path is marched on the
    coarse problem of :func:`_coarse_problem`, and its lam = 0 state, lifted
    by :func:`_lift`, starts one Newton correction at lam = 0 on the
    problem's grids.  The states returned are then the coarse path's,
    followed by that corrected state (``step`` 0), so the last one always
    lives on the problem's grids; every state carries the certificate of its
    own grid.  If the coarse path raises :class:`HorizonError` or the
    correction :class:`NewtonFailure`, the path is marched again on the
    problem's grids from lam = 1, and its states alone are returned.
    """
    grid = problem.grid
    if grid.dim == _NEST_DIM and grid.points_per_dim >= _NEST_MIN_POINTS:
        try:
            states = _march(_coarse_problem(problem), config, on_state)
            pair, diag = newton_correct(
                problem,
                LambdaData.from_problem(problem, 0.0),
                _lift(states[-1].pair, problem),
                config,
            )
        except (HorizonError, NewtonFailure):
            pass
        else:
            state = ContinuationState(
                lam=0.0,
                pair=pair,
                residual_norm=diag.residual_history[-1],
                newton_iters=diag.iterations,
                step=0.0,
            )
            if on_state is not None:
                on_state(state)
            return states + [state]
    return _march(problem, config, on_state)
