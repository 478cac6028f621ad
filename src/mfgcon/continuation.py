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
certified tolerance.  Each step is sized from the first contraction
theta = r_1 / r_0 of the correction before it (Deuflhard, *Newton Methods
for Nonlinear Problems*, Springer 2004, sec. 5.1; den Heijer & Rheinboldt,
SIAM J. Numer. Anal. 18, 1981): the predictor's error is O(dl^2) and theta
scales with it, so the next step is dl sqrt(THETA_TARGET / theta).  A
correction is abandoned as soon as one of its iterations leaves the
residual above THETA_MAX times the last one, and the step is retried
shorter.  Every
accepted state carries the residual certificate Newton accepted it on.

A path on a fine enough grid is solved on coarser grids first, as in the
nested iteration of full multigrid (Brandt, "Multi-level adaptive solutions
to boundary-value problems", Math. Comp. 31, 1977).  Space is halved, the
data injected onto every other node, while the coarse grid keeps enough
nodes; on the coarsest grid an even n_t is then halved as many times as
space was.  The path is marched there, and the lam = 0 state climbs the
levels back, time first and space last: each is interpolated onto the next
level and starts one Newton correction there.  By the mesh-independence
principle (Allgower, Boehmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23,
1986) a correction needs only a few iterations.  The coarse scheme's time
error is corrected on the coarsest grid, where it is cheap; space is
resolved there already, so a space lift starts within one Newton step of
the solution, and its correction solves its first Newton system to that
one step's accuracy.  Data with modes a coarse grid cannot hold would alias
there, so space is not halved for them, and a level whose coarser path
stalls or whose correction fails is marched on its own grid from lam = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import (
    PeriodicGrid,
    SpaceTimeField,
    TimeGrid,
    _irfft_stack,
    _pad_spectrum,
    _rfft_stack,
    integrate,
)
from .linearized import _KRYLOV_RTOL, LinearSolveError, Perturbation, solve_linearized
from .system import LambdaData, MFGProblem, ResidualBundle, SolutionPair, residual_full

__all__ = [
    "SolverConfig",
    "ContinuationState",
    "NewtonFailure",
    "HorizonError",
    "trivial_solution",
    "newton_correct",
    "solve_path",
]

# Eisenstat-Walker choice 2: eta = GAMMA (r_k / r_{k-1})^2, capped at ETA_MAX.
_EW_GAMMA = 0.9
_ETA_MAX = 0.1
# The step after a correction is dl sqrt(THETA_TARGET / theta), where theta
# is that correction's first contraction r_1 / r_0.  The first forcing term
# puts a floor near ETA_MAX under theta, so THETA_TARGET sits well above it:
# at a target of 0.1, alpha_2_5 of tests/test_cli.py took 26,641 steps.
_THETA_TARGET = 0.3
# A march correction stops as soon as one iteration leaves the residual
# above this multiple of the last one and above newton_tol (Deuflhard's
# restricted monotonicity test), instead of running out its iterations.
_THETA_MAX = 0.9
# Range of the step factor after an accepted step.
_GROWTH_RANGE = (0.25, 4.0)
# Roundoff allowance on lam: nine steps of 0.1 from 1 leave
# 0.10000000000000014, which a step of 0.1 must still take to 0.
_LAMBDA_ROUNDOFF = 1e-12
# Relative tolerance of the lam = 1 tangent solve.  With terminal cost
# 2 cos(2 pi x) on N = n_t = 32, the Krylov loop's residual estimate after
# its second apply lies between 2.2e-11 and 7.7e-11 relative over a dozen
# torus shifts of the data, so near 1e-10 roundoff would decide whether it
# takes a third; 1e-9 sits clear of that floor.  The tangent only predicts
# the first Newton start, so this changes no certificate.
_TANGENT_RTOL = 1e-9
# Nest a coarse level under a path when the coarse grid keeps at least this
# many nodes per time slice.  Halving configs/reference.cfg's data once, at
# n_t = N, is break-even on N = 32, whose coarse grid keeps 16 (10.4 -> 10.1
# ms; 16.6 -> 16.8 ms with psi = 2 cos), and saves 31% on N = 64 and 57% on
# N = 128 (in-process medians of 9).
_NEST_MIN_COARSE_NODES = 32
# ... and only when no data coefficient at a frequency the coarse grid cannot
# hold exceeds this fraction of its field's largest: there the m0 of
# aliased_2d in tests/test_cli.py reads 0.17, and every grid2d field of the
# benchmark at most 2e-16.
_ALIAS_TOL = 1e-8
# A correction whose start was lifted in space alone, with a first residual
# r_0 <= ETA_MAX, solves its first Newton system to ONE_STEP_FRACTION *
# newton_tol / r_0, so that one step certifies it.  Near 0.1 roundoff decides
# the count: over the twelve torus shifts of perfbench's grid2d seeds 0-11
# the 32x32 correction took 3 applies on 7 and 2 on 5 at 0.1, and the 16x16
# one 4 on 2 of them at 0.05; every fraction from 0.04 down to 0.01 gave all
# twelve 5 applies on 16x16 and 3 on 32x32, and 0.006 gave the 16x16 one 6
# on ten.  0.02 sits a factor of 2 inside either end.
_ONE_STEP_FRACTION = 0.02


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    newton_max_iters: int = 12
    dlambda_init: float = 1.0
    dlambda_min: float = 1e-4
    dlambda_max: float = 1.0
    m_positivity_margin: float = 1e-6

    def __post_init__(self):
        if self.newton_tol <= 0.0 or self.m_positivity_margin <= 0.0:
            raise ValueError("newton_tol and m_positivity_margin must be positive")
        if self.newton_max_iters < 1:
            raise ValueError(f"newton_max_iters must be at least 1, got {self.newton_max_iters}")
        if not 0.0 < self.dlambda_min <= self.dlambda_init <= self.dlambda_max <= 1.0:
            raise ValueError("need 0 < dlambda_min <= dlambda_init <= dlambda_max <= 1")


@dataclass
class ContinuationState:
    """An accepted point on the homotopy path with its residual certificate.

    ``residual_history`` holds the residual sup-norms of the correction that
    certified the state, its start first; the lam = 1 state has the one entry
    of its exact start.  The certificate is the last entry.
    """

    lam: float
    pair: SolutionPair
    residual_history: list
    step: float

    @property
    def residual_norm(self) -> float:
        return self.residual_history[-1]

    @property
    def newton_iters(self) -> int:
        return len(self.residual_history) - 1

    @property
    def theta(self) -> float:
        """First contraction r_1 / r_0 of its correction, 0 without an iteration."""
        hist = self.residual_history
        return hist[1] / hist[0] if len(hist) > 1 else 0.0

    def min_density(self) -> float:
        return self.pair.min_density()


class NewtonFailure(RuntimeError):
    """A correction gave up; ``history`` holds its residual sup-norms so far, and
    ``reason`` names the test that ended it: "contraction", "iteration budget",
    "line search", "inner solve" or "start density"."""

    def __init__(self, message: str, history: list, reason: str):
        self.history = history
        self.reason = reason
        super().__init__(message)


class HorizonError(RuntimeError):
    """The step size underflowed; the path left the tractable short-time regime."""

    def __init__(self, states: list, failed_lambda: float, reason: str):
        self.states = states
        self.failed_lambda = failed_lambda
        self.reason = reason
        last = states[-1].lam if states else float("nan")
        super().__init__(
            f"continuation stalled at lambda={failed_lambda:.4f}; last accepted lambda="
            f"{last:.4f}; the last correction ended on its {reason} test"
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
    state = ContinuationState(1.0, pair, [at_one.sup_norm()], step=0.0)
    return state, at_one


def trivial_solution(problem: MFGProblem) -> ContinuationState:
    """The exact lam = 1 state: uniform density, spatially flat value function."""
    return _trivial_start(problem)[0]


def _forcing_term(res: float, res_prev: float | None, tol: float, one_step: bool = False) -> float:
    """Relative Krylov tolerance of the next Newton solve (Eisenstat-Walker choice 2).

    The first solve of a correction uses ``_ETA_MAX``.  The floor keeps the
    solve from aiming below a tenth of ``tol`` in absolute terms, and never
    below ``_KRYLOV_RTOL``.  The usual safeguard max(eta, GAMMA eta_prev^2)
    only acts when GAMMA eta_prev^2 > 0.1, which the cap at 0.1 rules out.
    With ``one_step``, a first solve at a residual of at most ``_ETA_MAX``
    aims at ``_ONE_STEP_FRACTION * tol`` in absolute terms instead, so that
    its step certifies the correction, and still never below ``_KRYLOV_RTOL``.
    """
    if res_prev is None and one_step and res <= _ETA_MAX:
        return max(_ONE_STEP_FRACTION * tol / res, _KRYLOV_RTOL)
    eta = _ETA_MAX if res_prev is None else min(_EW_GAMMA * (res / res_prev) ** 2, _ETA_MAX)
    return max(eta, _KRYLOV_RTOL, 0.1 * tol / res)


def newton_correct(
    problem: MFGProblem,
    lam_data: LambdaData,
    pair: SolutionPair,
    config: SolverConfig = SolverConfig(),
    theta_max: float | None = None,
    one_step: bool = False,
) -> tuple[SolutionPair, list]:
    """Inexact damped Newton iteration on the full residual.

    Returns the corrected pair and the residual sup-norms of the iteration,
    its start first and the accepted pair's last.

    Each iteration solves L w = r at the current pair to the relative
    tolerance of :func:`_forcing_term` and steps along -w.  Accepts once the
    sup-norm drops below ``newton_tol``, so the inexact inner solves change
    how fast the residual falls but not the acceptance test.  Each step is
    halved until the residual decreases and the density keeps its positivity
    margin; a start below that margin, running out of damping or iterations,
    an inner linear solve that misses its tolerance, or, when ``theta_max``
    is given, an iteration that leaves the residual above ``newton_tol`` and
    above ``theta_max`` times the last one, raises NewtonFailure.
    ``one_step`` marks a start that a space lift took within one Newton step
    of the solution; :func:`_forcing_term` may then aim the first solve at
    a one-step certificate.
    """
    if pair.min_density() < config.m_positivity_margin:
        raise NewtonFailure(
            "start density is below the positivity margin", [], "start density"
        )
    current = pair.copy()
    bundle = residual_full(problem, lam_data, current)
    res = bundle.sup_norm()
    history = [res]
    res_prev = None
    for _ in range(config.newton_max_iters):
        if res <= config.newton_tol:
            return current, history
        eta = _forcing_term(res, res_prev, config.newton_tol, one_step)
        try:
            w: Perturbation = solve_linearized(problem, lam_data, current, bundle, rtol=eta)
        except LinearSolveError as exc:
            message = f"inner linear solve failed: {exc}"
            raise NewtonFailure(message, history, "inner solve") from exc
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
                history,
                "line search",
            )
        res_prev = res
        current, bundle, res = accepted
        history.append(res)
        if theta_max is not None and config.newton_tol < res and theta_max * res_prev < res:
            raise NewtonFailure(
                f"residual contracted by {res / res_prev:.3f} > {theta_max} (residual {res:.3e})",
                history,
                "contraction",
            )
    if res <= config.newton_tol:
        return current, history
    raise NewtonFailure(
        f"no convergence in {config.newton_max_iters} iterations (residual {res:.3e})",
        history,
        "iteration budget",
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


def _step_factor(theta: float, low: float, high: float) -> float:
    """sqrt(THETA_TARGET / theta) clipped to [low, high]; ``high`` when theta is 0."""
    if theta == 0.0:
        return high
    return min(max(math.sqrt(_THETA_TARGET / theta), low), high)


def _march(
    problem: MFGProblem, config: SolverConfig, on_state=None
) -> list[ContinuationState]:
    """March lam from 1 to 0 on the problem's own grid (see :func:`solve_path`)."""
    state, at_one = _trivial_start(problem)
    states = [state]
    if on_state is not None:
        on_state(state)
    tangent = _euler_tangent(problem, state.pair, at_one)
    del at_one  # its evaluation record would otherwise stay alive for the whole path
    dl = config.dlambda_init
    lam = 1.0
    retried = False
    while lam > 0.0:
        lam_next = lam - dl
        if lam_next <= _LAMBDA_ROUNDOFF:
            lam_next = 0.0
        lam_data = LambdaData.from_problem(problem, lam_next)
        if len(states) == 1:
            guess = _tangent_guess(states[0], tangent, lam_next, config.m_positivity_margin)
        else:
            guess = _secant_guess(states, lam_next, config.m_positivity_margin)
        try:
            pair, history = newton_correct(problem, lam_data, guess, config, theta_max=_THETA_MAX)
        except NewtonFailure as failure:
            dl *= 0.5
            if dl < config.dlambda_min:
                raise HorizonError(states, lam_next, failure.reason)
            retried = True
            continue
        state = ContinuationState(lam_next, pair, history, step=lam - lam_next)
        states.append(state)
        if on_state is not None:
            on_state(state)
        lam = lam_next
        low, high = _GROWTH_RANGE
        dl = min(dl * _step_factor(state.theta, low, 1.0 if retried else high), config.dlambda_max)
        retried = False
    return states


def _coarse_problem(problem: MFGProblem) -> MFGProblem:
    """The problem on every other node, on the same time grid.

    Coarse node j sits at fine node 2j, so injecting the data fields equals
    sampling their expressions on the coarse grid; m0 is renormalized to unit
    mass there.
    """
    grid = problem.grid
    coarse = PeriodicGrid(grid.dim, grid.points_per_dim // 2)
    every_other = (Ellipsis,) + (slice(None, None, 2),) * grid.dim

    def inject(values: np.ndarray) -> np.ndarray:
        shaped = np.reshape(values, np.shape(values)[:-1] + grid.shape)
        return shaped[every_other].reshape(shaped.shape[: -grid.dim] + (coarse.num_nodes,))

    weight = problem.hamiltonian.weight
    v1 = problem.potential.v1
    m0 = inject(problem.m0)
    return replace(
        problem,
        grid=coarse,
        hamiltonian=replace(
            problem.hamiltonian, weight=inject(weight) if np.ndim(weight) else weight
        ),
        b=inject(problem.b),
        potential=replace(problem.potential, v1=None if v1 is None else inject(v1)),
        psi=inject(problem.psi),
        m0=m0 / integrate(m0, coarse),
    )


def _lift(pair: SolutionPair, problem: MFGProblem) -> SolutionPair:
    """``pair`` on the problem's grids: Fourier interpolation in space, linear in time.

    Each is done only where the grids differ.  A coarser space grid takes
    the stacked (u, m) through one forward transform, the zero-padding of
    ``grids._pad_spectrum`` and one inverse transform.  Where n_t was halved,
    even fine slices copy the coarse ones and odd slices average their two
    neighbours.
    """
    grid = pair.u.grid
    lifted = np.stack([pair.u.values, pair.m.values])
    if grid != problem.grid:
        spec = _rfft_stack(lifted, grid)
        lifted = _irfft_stack(_pad_spectrum(spec, grid, problem.grid.points_per_dim), problem.grid)
    num_slices = problem.time.num_slices
    if lifted.shape[1] != num_slices:
        coarse = lifted
        lifted = np.empty((2, num_slices, coarse.shape[2]))
        lifted[:, ::2] = coarse
        lifted[:, 1::2] = 0.5 * (coarse[:, :-1] + coarse[:, 1:])
    u, m = (SpaceTimeField(problem.grid, problem.time, f) for f in lifted)
    return SolutionPair(u=u, m=m)


def _coarse_holds_the_data(problem: MFGProblem) -> bool:
    """Whether the coarse grid of :func:`_coarse_problem` resolves every data field.

    The fields are m0, psi, the components of b, and v1 and the Hamiltonian
    weight where they are fields.  A coefficient of the half spectrum at
    |k_a| >= N/4 on some axis, the coarse Nyquist frequency included, aliases
    on the coarse grid; each must be at most ``_ALIAS_TOL`` times its field's
    largest coefficient.
    """
    grid = problem.grid
    n = grid.points_per_dim
    fields = [problem.m0, problem.psi, *problem.b]
    if problem.potential.v1 is not None:
        fields.append(problem.potential.v1)
    if np.ndim(problem.hamiltonian.weight):
        fields.append(problem.hamiltonian.weight)
    spec = np.abs(_rfft_stack(np.stack(fields), grid)).reshape(len(fields), -1)
    high = np.arange(n // 2 + 1) >= n // 4  # the half-spectrum axis
    if grid.dim == 2:
        high = (np.abs(np.fft.fftfreq(n, 1.0 / n)) >= n // 4)[:, None] | high[None, :]
    tail = np.max(spec[:, high.ravel()], axis=1)
    return bool(np.all(tail <= _ALIAS_TOL * np.max(spec, axis=1)))


def _levels(problem: MFGProblem) -> list[MFGProblem]:
    """The problems a nested path is solved on, coarsest first and ``problem`` last.

    Space is halved by :func:`_coarse_problem` while the coarse grid keeps at
    least ``_NEST_MIN_COARSE_NODES`` nodes per slice and
    :func:`_coarse_holds_the_data`; then n_t is halved, while it is even, as
    many times as space was.
    """
    levels = [problem]
    while (
        levels[-1].grid.num_nodes >> levels[-1].grid.dim >= _NEST_MIN_COARSE_NODES
        and _coarse_holds_the_data(levels[-1])
    ):
        levels.append(_coarse_problem(levels[-1]))
    for _ in range(len(levels) - 1):
        time = levels[-1].time
        if time.steps % 2:
            break
        levels.append(replace(levels[-1], time=TimeGrid(time.horizon, time.steps // 2)))
    return levels[::-1]


def _solve_levels(
    levels: list[MFGProblem], config: SolverConfig, on_state
) -> list[ContinuationState]:
    """The path of ``levels[-1]``, nested on the levels before it (see :func:`solve_path`)."""
    problem = levels[-1]
    if len(levels) > 1:
        try:
            states = _solve_levels(levels[:-1], config, on_state)
            coarse = states[-1].pair
            pair, history = newton_correct(
                problem,
                LambdaData.from_problem(problem, 0.0),
                _lift(coarse, problem),
                config,
                one_step=coarse.u.grid != problem.grid,
            )
        except (HorizonError, NewtonFailure):
            pass
        else:
            state = ContinuationState(0.0, pair, history, step=0.0)
            if on_state is not None:
                on_state(state)
            return states + [state]
    return _march(problem, config, on_state)


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
    states (see :func:`_secant_guess`).  The first step is ``dlambda_init``,
    1 by default, so an easy path goes to lam = 0 at once.  After a
    correction whose first contraction was theta the step is multiplied by
    sqrt(THETA_TARGET / theta), clipped to [1/4, 4], and by at most 1 right
    after a rejection, and no step exceeds ``dlambda_max``.  A march
    correction fails as soon as an iteration leaves the residual above
    THETA_MAX times the last one, or on any other :class:`NewtonFailure`;
    the step is then halved.  Underflow of the step below ``dlambda_min``
    raises :class:`HorizonError` carrying the states accepted so far and the
    test that ended the last correction.

    When :func:`_levels` finds coarser levels, the path is marched on the
    coarsest one only.  Its lam = 0 state climbs the others in order (n_t
    doubled on the coarsest space grid first, then space refined): at each
    level it is lifted by :func:`_lift` and starts one Newton correction at
    lam = 0, with no contraction test.  A correction whose start was lifted
    in space solves its first Newton system toward a one-step certificate
    (``one_step`` of :func:`newton_correct`).  The states returned are the
    coarsest path's, followed by one corrected state per level (``step``
    0), so the last one always lives on the problem's grids; every state
    carries the certificate of its own grid.  If the path below a level
    raises :class:`HorizonError` or that level's correction
    :class:`NewtonFailure` (a lifted density that dips below the margin
    among them), the level is marched on its own grids from lam = 1, and the
    levels above it climb from its states.  For a problem with no coarser
    level the path is that march alone.
    """
    return _solve_levels(_levels(problem), config, on_state)
