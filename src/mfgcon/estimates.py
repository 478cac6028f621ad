"""Runtime verification of the a priori bounds any solution must satisfy.

Bounds whose constants are not explicit become finiteness plus
refinement-stability criteria: the quantity is recomputed after resampling
the candidate on a once-refined grid and the two values must agree within a
factor of two.  Both grids come from one spectral pass
(:func:`_spectral_pass`): one forward transform of the stacked (u, m) gives
both gradients on the run's grid through one inverse transform, and the
same spectrum, zero-padded in blocks of time slices, gives the refined
samples and their gradients.  The checks read per-slice sums and maxima
from that pass.  The hypotheses of the theorem the run reproduces are part
of the same report: the exponent conditions (:func:`check_exponents`) and
the structural hypotheses of the run's Hamiltonian, sampled over momenta
(:func:`check_hypotheses`).  Every record stores the computed values, never
a bare flag, and is recomputable from the candidate and problem data alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import (
    PeriodicGrid,
    _apply_symbols,
    _irfft_stack,
    _pad_spectrum,
    _rfft_stack,
    _spectra,
)
from .hamiltonians import HamiltonianModel, uniqueness_terms
from .system import _M_FLOOR, LambdaData, MFGProblem, SolutionPair

__all__ = [
    "CheckRecord",
    "EstimateReport",
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


# Refined nodes times time slices per block of the refined pass, which bounds
# its memory: a block's samples and gradients of u and m, 2 (d + 1) arrays of
# this many values, are alive at a time.  8 slices of a refined 64 x 64 grid
# fill a block; a d = 1 run with 256 refined nodes and 128 slices fits in one.
_REFINED_BLOCK_VALUES = 2**15


@dataclass(frozen=True)
class _SpectralPass:
    """What the refinement and uniqueness checks read of one candidate.

    ``coarse`` and ``refined`` map each statistic of :func:`_slice_stats` to
    its per-slice values on the run's grid and on the once-refined grid;
    ``q`` is the congestion momentum Du / m^alpha on the run's grid.
    """

    dt: float
    q: np.ndarray
    coarse: dict
    refined: dict


def _slice_stats(u, m, du, dm, vol: float, problem: MFGProblem):
    """Per-slice statistics of samples on one grid, and m^alpha there.

    ``u`` and ``m`` have shape (slices, nodes), their gradients ``du`` and
    ``dm`` (d, slices, nodes).  Integrals are the cell volume times node
    sums, sup-norms node maxima; a name ending in ``_max`` or ``_sup`` is
    reduced over slices by its maximum, any other by the trapezoid rule
    (:func:`_over_slices`).  Each non-integer power is taken once:
    |Du|^gamma, m^abar and m^alpha.  abar = (gamma-1)*alpha is not required
    to stay below 1 here, so exponents outside the theorem are reported by
    :func:`check_exponents` instead of raised.
    """
    gamma, alpha = problem.hamiltonian.gamma, problem.alpha
    abar = (gamma - 1.0) * alpha
    m_safe = np.maximum(m, _M_FLOOR)
    du_sq = np.sum(du * du, axis=0)
    dm_sq = np.sum(dm * dm, axis=0)
    du_pow = du_sq ** (0.5 * gamma)
    m_abar = m_safe**abar
    m_alpha = m_safe**alpha

    def integral(f: np.ndarray) -> np.ndarray:
        return vol * np.sum(f, axis=-1)

    stats = {
        "momentum_over_density": integral(du_pow / m_abar),
        "value_l1_max": integral(np.abs(u)),
        "momentum_weighted": integral(du_pow * m_safe / m_abar),
        "density_power_max": integral(m_safe * m_alpha),
        "density_gradient_energy": integral(m_alpha / m_safe * dm_sq),
        "du_sup": np.sqrt(np.max(du_sq, axis=-1)),
        "m_sup": np.max(np.abs(m), axis=-1),
        "dm_sup": np.sqrt(np.max(dm_sq, axis=-1)),
    }
    return stats, m_alpha


def _spectral_pass(pair: SolutionPair, problem: MFGProblem) -> _SpectralPass:
    """One forward transform of the stacked (u, m), read on the run's grid and the refined one.

    Both gradients on the run's grid come back through one inverse
    transform.  The refined grid has twice the nodes per axis; its samples
    and gradients come from the same spectrum, zero-padded a block of slices
    at a time (``_REFINED_BLOCK_VALUES``), one inverse transform per block.
    Overflow is not warned about: a non-finite statistic fails its check.
    """
    grid = pair.u.grid
    fine = PeriodicGrid(grid.dim, 2 * grid.points_per_dim)
    ideriv, _ = _spectra(grid.dim, grid.points_per_dim)
    fine_ideriv, _ = _spectra(fine.dim, fine.points_per_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        spec = _rfft_stack(np.stack([pair.u.values, pair.m.values]), grid)
        grads = _irfft_stack(_apply_symbols(ideriv, spec), grid)  # (d, 2, slices, nodes)
        coarse, m_alpha = _slice_stats(
            pair.u.values, pair.m.values, grads[:, 0], grads[:, 1], grid.cell_volume, problem
        )
        size = max(1, _REFINED_BLOCK_VALUES // fine.num_nodes)
        blocks = []
        for start in range(0, spec.shape[1], size):
            padded = _pad_spectrum(spec[:, start : start + size], grid, fine.points_per_dim)
            vals = _irfft_stack(_apply_symbols((1.0,) + fine_ideriv, padded), fine)
            stats, _ = _slice_stats(
                vals[0, 0], vals[0, 1], vals[1:, 0], vals[1:, 1], fine.cell_volume, problem
            )
            blocks.append(stats)
    return _SpectralPass(
        dt=pair.u.time.dt,
        q=grads[:, 0] / m_alpha,
        coarse=coarse,
        refined={key: np.concatenate([b[key] for b in blocks]) for key in coarse},
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


def check_value_bounds(pair: SolutionPair, lam_data: LambdaData) -> CheckRecord:
    """Explicit two-sided bound on u from the coupling and terminal data sizes.

    |u(x, t)| <= (T - t) Vmax + Psimax, with Vmax the largest coupling value
    along the candidate and Psimax the terminal-cost sup-norm.  The upper
    half holds because the congestion term m^alpha H(x, 0) of the value rows
    is nonnegative.  ``margin`` and ``upper_margin`` are the smallest gaps
    to the lower and the upper bound; at t = T, where u = psi up to the
    terminal residual, the gap on the side where |psi| peaks is 0, which the
    1e-8 allowance covers.
    """
    u, m = pair.u.values, pair.m.values
    v_max = float(np.max(np.abs(lam_data.potential_value(m))))
    psi_max = float(np.max(np.abs(lam_data.psi_values)))
    times = pair.u.time.times()
    horizon = pair.u.time.horizon
    bound = ((horizon - times) * v_max + psi_max)[:, None]
    margin = float(np.min(u + bound))
    upper_margin = float(np.min(bound - u))
    return CheckRecord(
        name="value_lower_bound",
        criterion="|u| <= (T - t) Vmax + Psimax + 1e-8 on both sides, and sup|u| finite",
        passed=bool(min(margin, upper_margin) >= -1e-8 and np.isfinite(u).all()),
        values={
            "margin": margin,
            "upper_margin": upper_margin,
            "v_max": v_max,
            "psi_max": psi_max,
            "u_sup": float(np.max(np.abs(u))),
        },
    )


def _over_slices(key: str, per_slice: np.ndarray, dt: float) -> float:
    """Largest slice value of a slice maximum or sup-norm, else the trapezoid time integral."""
    if key.endswith(("_max", "_sup")):
        return float(np.max(per_slice))
    return float(np.trapezoid(per_slice, dx=dt))


def _refinement_record(name: str, criterion: str, keys, spectral: _SpectralPass) -> CheckRecord:
    """Each statistic finite on the run's grid and within 2x of its refined value."""
    values, ok = {}, True
    for key in keys:
        c_val = _over_slices(key, spectral.coarse[key], spectral.dt)
        f_val = _over_slices(key, spectral.refined[key], spectral.dt)
        ok = ok and _stable(c_val, f_val) and np.isfinite(c_val)
        values[key] = c_val
        values[key + "_refined"] = f_val
    return CheckRecord(name=name, criterion=criterion, passed=bool(ok), values=values)


def check_integral_estimates(spectral: _SpectralPass) -> CheckRecord:
    """Finiteness and grid stability of the space-time energy integrals.

    Covers the momentum integrals |Du|^gamma / m^abar and
    |Du|^gamma m^(1-abar), the slice bound on int |u|, and the density
    energy int m^(1+alpha) + int m^(alpha-1) |Dm|^2, each read from
    ``spectral`` on the run's grid and on the once-refined one.
    """
    return _refinement_record(
        "integral_estimates",
        "each energy integral finite and within 2x under one grid refinement",
        ("momentum_over_density", "value_l1_max", "momentum_weighted",
         "density_power_max", "density_gradient_energy"),
        spectral,
    )


# The inverse powers r of the density that check_inverse_m integrates.
_INVERSE_POWERS = (1.0, 2.0, 5.0)


def check_inverse_m(pair: SolutionPair) -> CheckRecord:
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
    for r in _INVERSE_POWERS:
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
    pair: SolutionPair,
    problem: MFGProblem,
    lam_data: LambdaData,
    spectral: _SpectralPass | None = None,
) -> CheckRecord:
    """Pointwise sign structure behind uniqueness, at the candidate's momenta.

    The three summands of the uniqueness energy integrand reduce to
    (i)   Q.DpH - H + H(.,0) - (alpha/4) Q.D2H.Q >= 0 away from Q = 0,
    (ii)  smallest eigenvalue of D2H at (x, Q) positive,
    (iii) dV/dz along the candidate densities positive.
    The power family has H(x, 0) > 0, so (i) is centered at the
    zero-momentum value; the raw minimum is reported alongside.  Q is read
    from the candidate's ``spectral`` pass, made here when not given.  It is
    formed with the floored density, so a nonpositive sample is reported by
    :func:`check_inverse_m` rather than raised here.
    """
    if spectral is None:
        spectral = _spectral_pass(pair, problem)
    alpha = problem.alpha
    ham = lam_data.hamiltonian
    m = pair.m.values
    q = spectral.q
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


def check_gradient_bound(spectral: _SpectralPass) -> CheckRecord:
    """Sup-norms of Du, m, Dm: finite and stable under one grid refinement.

    Each is read from ``spectral`` on the run's grid and on the once-refined one.
    """
    return _refinement_record(
        "gradient_bounds",
        "sup-norms of Du, m, Dm finite and within 2x under refinement",
        ("du_sup", "m_sup", "dm_sup"),
        spectral,
    )


def check_exponents(problem: MFGProblem) -> CheckRecord:
    """The exponent conditions of the theorem, each tested once.

    abar = (gamma-1)*alpha < 1 with its integrability ladder
    q(r) = r + 2*abar/(2-gamma) > r, read at r = 2 (NaN when abar >= 1), and
    alpha < 4/gamma, the sufficient condition for the uniqueness inequality
    of the power family.
    """
    gamma, alpha = problem.hamiltonian.gamma, problem.alpha
    alpha_bar = (gamma - 1.0) * alpha
    q2 = 2.0 + 2.0 * alpha_bar / (2.0 - gamma) if alpha_bar < 1.0 else float("nan")
    margin = 4.0 / gamma - alpha
    return CheckRecord(
        name="derived_exponents",
        criterion="(gamma-1)*alpha < 1, q(r) = r + 2*abar/(2-gamma) > r, and alpha < 4/gamma",
        passed=bool(q2 > 2.0 and margin > 0.0),
        values={"alpha_bar": alpha_bar, "q_of_2": q2, "alpha_bound_margin": margin},
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


def run_all_checks(pair: SolutionPair, problem: MFGProblem) -> EstimateReport:
    """Every check of the suite on ``pair`` as a solution of the target data (lam = 0)."""
    lam_data = LambdaData.from_problem(problem, 0.0)
    spectral = _spectral_pass(pair, problem)
    records = [
        check_mass(pair),
        check_value_bounds(pair, lam_data),
        check_integral_estimates(spectral),
        check_inverse_m(pair),
        check_uniqueness_integrand(pair, problem, lam_data, spectral),
        check_gradient_bound(spectral),
        check_exponents(problem),
        check_hypotheses(problem, lam_data),
    ]
    return EstimateReport(records=records)
