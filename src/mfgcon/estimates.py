"""Runtime verification of the a priori bounds any solution must satisfy.

Bounds whose constants are not explicit become finiteness plus
refinement-stability criteria: the quantity is recomputed after resampling
the candidate on a once-refined grid and the two values must agree within a
factor of two.  The hypotheses of the theorem the run reproduces are part of
the same report: the exponent conditions (:func:`check_exponents`) and the
structural hypotheses of the run's Hamiltonian, sampled over momenta
(:func:`check_hypotheses`).  Every record stores the computed values, never
a bare flag, and is recomputable from the candidate and problem data alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import _grad_stack, fourier_interpolate
from .hamiltonians import HamiltonianModel, uniqueness_terms
from .system import LambdaData, MFGProblem, SolutionPair, _congestion_stack

__all__ = [
    "CheckRecord",
    "EstimateReport",
    "DerivedExponents",
    "check_mass",
    "check_value_bounds",
    "check_integral_estimates",
    "check_inverse_m",
    "check_uniqueness_integrand",
    "check_gradient_bound",
    "check_exponents",
    "check_hypotheses",
    "run_all_checks",
]


@dataclass
class CheckRecord:
    name: str
    criterion: str
    passed: bool
    values: dict = dc_field(default_factory=dict)
    location: dict | None = None

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        vals = " ".join(f"{k}={v:.6e}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in self.values.items())
        return f"{self.name}: {status} {vals}"


@dataclass
class EstimateReport:
    records: list

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def __getitem__(self, name: str) -> CheckRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "records": [
                {
                    "name": r.name,
                    "criterion": r.criterion,
                    "passed": r.passed,
                    "values": r.values,
                    "location": r.location,
                }
                for r in self.records
            ],
        }

    def lines(self) -> list[str]:
        out = [r.summary() for r in self.records]
        out.append(f"aggregate: {'pass' if self.all_pass else 'FAIL'}")
        return out


@dataclass(frozen=True)
class DerivedExponents:
    """Reduced congestion exponent and the integrability ladder it induces."""

    gamma: float
    alpha: float

    def __post_init__(self):
        if not 1.0 < self.gamma < 2.0:
            raise ValueError("gamma must lie in (1, 2)")
        if self.alpha_bar >= 1.0:
            raise ValueError(
                f"(gamma-1)*alpha = {self.alpha_bar} must stay below 1"
            )

    @property
    def alpha_bar(self) -> float:
        return (self.gamma - 1.0) * self.alpha

    def q_of(self, r: float) -> float:
        return r + 2.0 * self.alpha_bar / (2.0 - self.gamma)


def _refined_pair(pair: SolutionPair) -> SolutionPair:
    """Resample both unknowns on a grid with twice the resolution."""
    n_fine = 2 * pair.u.grid.points_per_dim
    return SolutionPair(
        u=fourier_interpolate(pair.u, n_fine), m=fourier_interpolate(pair.m, n_fine)
    )


def _stable(coarse: float, fine: float, tiny: float = 1e-13) -> bool:
    if abs(coarse) <= tiny and abs(fine) <= tiny:
        return True
    hi = max(abs(coarse), abs(fine))
    lo = min(abs(coarse), abs(fine))
    return np.isfinite(hi) and lo >= 0.5 * hi


def check_mass(pair: SolutionPair) -> CheckRecord:
    """Unit mass of every density slice, to 1e-10."""
    masses = np.sum(pair.m.values, axis=1) * pair.m.grid.cell_volume
    dev = np.abs(masses - 1.0)
    worst = int(np.argmax(dev))
    return CheckRecord(
        name="mass_conservation",
        criterion="max over slices of |integral(m) - 1| <= 1e-10",
        passed=bool(dev[worst] <= 1e-10),
        values={"max_deviation": float(dev[worst])},
        location={"slice": worst},
    )


def check_value_bounds(
    pair: SolutionPair, problem: MFGProblem, lam_data: LambdaData | None = None
) -> CheckRecord:
    """Explicit lower bound on u from the coupling and terminal data sizes.

    u(x, t) >= -[(T - t) Vmax + Psimax], with Vmax the largest coupling value
    along the candidate and Psimax the terminal-cost sup-norm.
    """
    if lam_data is None:
        lam_data = LambdaData.from_problem(problem, 0.0)
    u, m = pair.u.values, pair.m.values
    v_max = float(np.max(np.abs(lam_data.potential_value(m))))
    psi_max = float(np.max(np.abs(lam_data.psi_values)))
    times = pair.u.time.times()
    horizon = pair.u.time.horizon
    lower = -((horizon - times) * v_max + psi_max)
    margin = float(np.min(u - lower[:, None]))
    return CheckRecord(
        name="value_lower_bound",
        criterion="u >= -[(T - t) Vmax + Psimax] - 1e-8, and sup|u| finite",
        passed=bool(margin >= -1e-8 and np.isfinite(u).all()),
        values={
            "margin": margin,
            "v_max": v_max,
            "psi_max": psi_max,
            "u_sup": float(np.max(np.abs(u))),
        },
    )


def _integral_quantities(pair: SolutionPair, problem: MFGProblem) -> dict:
    grid = pair.u.grid
    dt = pair.u.time.dt
    vol = grid.cell_volume
    alpha = problem.alpha
    abar = DerivedExponents(problem.hamiltonian.gamma, alpha).alpha_bar
    gamma = problem.hamiltonian.gamma
    u, m = pair.u.values, pair.m.values
    m_safe = np.maximum(m, problem.m_floor)
    du = _grad_stack(u, grid)
    dm = _grad_stack(m, grid)
    du_norm = np.sqrt(np.sum(du * du, axis=0))
    dm_sq = np.sum(dm * dm, axis=0)

    def time_integral(slice_integrals: np.ndarray) -> float:
        return float(np.trapezoid(slice_integrals, dx=dt))

    return {
        "momentum_over_density": time_integral(
            vol * np.sum(du_norm**gamma / m_safe**abar, axis=1)
        ),
        "value_l1_max": float(np.max(vol * np.sum(np.abs(u), axis=1))),
        "momentum_weighted": time_integral(
            vol * np.sum(du_norm**gamma * m_safe ** (1.0 - abar), axis=1)
        ),
        "density_power_max": float(np.max(vol * np.sum(m_safe ** (1.0 + alpha), axis=1))),
        "density_gradient_energy": time_integral(
            vol * np.sum(m_safe ** (alpha - 1.0) * dm_sq, axis=1)
        ),
    }


def check_integral_estimates(
    pair: SolutionPair, problem: MFGProblem, refined: SolutionPair
) -> CheckRecord:
    """Finiteness and grid stability of the space-time energy integrals.

    Covers the momentum integrals |Du|^gamma / m^abar and
    |Du|^gamma m^(1-abar), the slice bound on int |u|, and the density
    energy int m^(1+alpha) + int m^(alpha-1) |Dm|^2.  ``refined`` is the
    candidate resampled on the once-refined grid.
    """
    coarse = _integral_quantities(pair, problem)
    fine = _integral_quantities(refined, problem)
    values, ok = {}, True
    for key, c_val in coarse.items():
        f_val = fine[key]
        stable = _stable(c_val, f_val) and np.isfinite(c_val)
        ok = ok and stable
        values[key] = c_val
        values[key + "_refined"] = f_val
    return CheckRecord(
        name="integral_estimates",
        criterion="each energy integral finite and within 2x under one grid refinement",
        passed=bool(ok),
        values=values,
    )


def check_inverse_m(pair: SolutionPair, r_list=(1.0, 2.0, 5.0)) -> CheckRecord:
    """Integrability of 1/m and absence of a blow-up trend across slices."""
    m = pair.m.values
    if np.min(m) <= 0.0:
        k = int(np.argmin(m))
        ns, nn = divmod(k, m.shape[1])
        return CheckRecord(
            name="inverse_density",
            criterion="m positive with integrable inverse powers",
            passed=False,
            values={"min_m": float(np.min(m))},
            location={"slice": int(ns), "node": int(nn)},
        )
    vol = pair.m.grid.cell_volume
    inv_sup = float(np.max(1.0 / m))
    values = {"inverse_sup": inv_sup, "min_m": float(np.min(m))}
    ok = np.isfinite(inv_sup)
    for r in r_list:
        per_slice = vol * np.sum(m ** (-float(r)), axis=1)
        values[f"int_m^-{r:g}_max"] = float(np.max(per_slice))
        trend = float(per_slice[-1] / per_slice[0])
        values[f"int_m^-{r:g}_trend"] = trend
        ok = ok and np.isfinite(per_slice).all() and trend <= 10.0
    return CheckRecord(
        name="inverse_density",
        criterion="sup 1/m finite; int m^-r finite per slice with last/first <= 10",
        passed=bool(ok),
        values=values,
    )


def check_uniqueness_integrand(
    pair: SolutionPair, problem: MFGProblem, lam_data: LambdaData
) -> CheckRecord:
    """Pointwise sign structure behind uniqueness, at the candidate's momenta.

    The three summands of the uniqueness energy integrand reduce to
    (i)   Q.DpH - H + H(.,0) - (alpha/4) Q.D2H.Q >= 0 away from Q = 0,
    (ii)  smallest eigenvalue of D2H at (x, Q) positive,
    (iii) dV/dz along the candidate densities positive.
    The power family has H(x, 0) > 0, so (i) is centered at the
    zero-momentum value; the raw minimum is reported alongside.  Q is formed
    with the floored density, so a nonpositive sample is reported by
    :func:`check_inverse_m` rather than raised here.
    """
    alpha = problem.alpha
    ham = lam_data.hamiltonian
    du = _grad_stack(pair.u.values, pair.u.grid)
    m = pair.m.values
    q = _congestion_stack(du, m, alpha, problem.m_floor)
    qn = np.sqrt(np.sum(q * q, axis=0))
    terms = uniqueness_terms(ham, q, alpha)
    mask = qn > 1e-7
    if np.any(mask):
        min_centered = float(np.min(terms.centered[mask]))
        raw_min = float(np.min(terms.raw[mask]))
        k = int(np.argmin(np.where(mask, terms.centered, np.inf)))
        ns, nn = divmod(k, m.shape[1])
        location = {"slice": int(ns), "node": int(nn), "|Q|": float(qn[ns, nn])}
    else:
        min_centered, raw_min, location = float("inf"), float("inf"), None
    eig_min = float(np.min(terms.eig_min))
    dv = lam_data.potential_dz(m)
    ok = min_centered >= -1e-12 and eig_min > 0.0 and float(np.min(dv)) > 0.0
    return CheckRecord(
        name="uniqueness_integrand",
        criterion="three uniqueness summands nonnegative at every node and slice",
        passed=bool(ok),
        values={
            "centered_min": min_centered,
            "raw_min": raw_min,
            "hessian_eig_min": eig_min,
            "coupling_dz_min": float(np.min(dv)),
        },
        location=location,
    )


def check_gradient_bound(pair: SolutionPair, refined: SolutionPair) -> CheckRecord:
    """Sup-norms of Du, m, Dm: finite and stable under one grid refinement.

    ``refined`` is the candidate resampled on the once-refined grid.
    """

    def sups(p: SolutionPair) -> dict:
        grid = p.u.grid
        du = _grad_stack(p.u.values, grid)
        dm = _grad_stack(p.m.values, grid)
        return {
            "du_sup": float(np.max(np.sqrt(np.sum(du * du, axis=0)))),
            "m_sup": float(np.max(np.abs(p.m.values))),
            "dm_sup": float(np.max(np.sqrt(np.sum(dm * dm, axis=0)))),
        }

    coarse = sups(pair)
    fine = sups(refined)
    ok, values = True, {}
    for key, c_val in coarse.items():
        stable = _stable(c_val, fine[key]) and np.isfinite(c_val)
        ok = ok and stable
        values[key] = c_val
        values[key + "_refined"] = fine[key]
    return CheckRecord(
        name="gradient_bounds",
        criterion="sup-norms of Du, m, Dm finite and within 2x under refinement",
        passed=bool(ok),
        values=values,
    )


def check_exponents(problem: MFGProblem) -> CheckRecord:
    """The exponent conditions of the theorem, each tested once.

    (gamma-1)*alpha < 1 with its integrability ladder q(r) > r, and
    alpha < 4/gamma, the sufficient condition for the uniqueness inequality
    of the power family.
    """
    gamma, alpha = problem.hamiltonian.gamma, problem.alpha
    try:
        q2 = DerivedExponents(gamma, alpha).q_of(2.0)
    except ValueError:
        q2 = float("nan")
    margin = 4.0 / gamma - alpha
    return CheckRecord(
        name="derived_exponents",
        criterion="(gamma-1)*alpha < 1, q(r) = r + 2*abar/(2-gamma) > r, and alpha < 4/gamma",
        passed=bool(q2 > 2.0 and margin > 0.0),
        values={"alpha_bar": (gamma - 1.0) * alpha, "q_of_2": q2, "alpha_bound_margin": margin},
    )


# The momentum sample of check_hypotheses: log-uniform radii reach both the
# small and the coercive regime, and the fixed seed makes the record
# reproducible.
_HYPOTHESIS_SAMPLES = 512
_HYPOTHESIS_SEED = 0
_HYPOTHESIS_RADII = (1e-3, 10.0)


def check_hypotheses(problem: MFGProblem, lam_data: LambdaData) -> CheckRecord:
    """The structural hypotheses on the run's Hamiltonian, sampled over momenta.

    At 512 momenta with log-uniform radii in [1e-3, 10], each at a drawn
    node when the weight varies by node, H = ``lam_data.hamiltonian`` must
    meet the support inequality p.DpH - H + H(x,0) >= 0, coercivity
    p.DpH - H >= c |p|^gamma - C, gradient growth |DpH| <= C (|p|^(gamma-1) + 1),
    strict convexity and the centered uniqueness inequality of
    :func:`uniqueness_terms`.  The location is the sampled momentum where
    the uniqueness inequality is tightest.
    """
    model = lam_data.hamiltonian
    rng = np.random.default_rng(_HYPOTHESIS_SEED)
    n, dim = _HYPOTHESIS_SAMPLES, problem.grid.dim
    direc = rng.normal(size=(dim, n))
    direc /= np.linalg.norm(direc, axis=0)
    lo, hi = _HYPOTHESIS_RADII
    pn = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    p = direc * pn
    sampled, nodes = model, None
    if np.ndim(model.weight):
        nodes = rng.integers(0, model.weight.size, size=n)
        sampled = HamiltonianModel(model.gamma, model.weight[nodes])
    terms = uniqueness_terms(sampled, p, problem.alpha)

    gamma = model.gamma
    w_min, w_max = model.weight_bounds()
    c_coer = w_min * (gamma - 1.0) * 2.0 ** (0.5 * gamma - 1.0)
    big_c = c_coer + w_max
    c_grow = w_max * gamma
    growth = c_grow * (pn ** (gamma - 1.0) + 1.0) - np.linalg.norm(sampled.grad(p), axis=0)
    values = {
        "support_min": float(np.min(terms.support)),
        "coercivity_margin": float(np.min(terms.coercive - (c_coer * pn**gamma - big_c))),
        "coercivity_c": c_coer,
        "coercivity_C": big_c,
        "growth_margin": float(np.min(growth)),
        "growth_C": c_grow,
        "hessian_eig_min": float(np.min(terms.eig_min)),
        "centered_min": float(np.min(terms.centered)),
        "raw_min": float(np.min(terms.raw)),
    }
    j = int(np.argmin(terms.centered))
    location = {"|p|": float(pn[j])}
    if nodes is not None:
        location["node"] = int(nodes[j])
    tol = -1e-10
    ok = (
        min(values["support_min"], values["coercivity_margin"], values["growth_margin"]) >= tol
        and values["hessian_eig_min"] > 0.0
        and values["centered_min"] > 0.0
    )
    return CheckRecord(
        name="hamiltonian_hypotheses",
        criterion="support, coercivity and growth >= -1e-10, D2H and the uniqueness "
                  "inequality positive on 512 sampled momenta",
        passed=bool(ok),
        values=values,
        location=location,
    )


def run_all_checks(
    pair: SolutionPair, problem: MFGProblem, lam_data: LambdaData | None = None
) -> EstimateReport:
    if lam_data is None:
        lam_data = LambdaData.from_problem(problem, 0.0)
    refined = _refined_pair(pair)
    records = [
        check_mass(pair),
        check_value_bounds(pair, problem, lam_data),
        check_integral_estimates(pair, problem, refined),
        check_inverse_m(pair),
        check_uniqueness_integrand(pair, problem, lam_data),
        check_gradient_bound(pair, refined),
        check_exponents(problem),
        check_hypotheses(problem, lam_data),
    ]
    return EstimateReport(records=records)
