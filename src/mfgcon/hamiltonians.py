"""Congestion Hamiltonians and their structural checks.

The solver works with the isotropic power model

    H(x, p) = c(x) * (1 + |p|^2)^(gamma/2),    1 < gamma < 2,

and its convex blend toward the unit-weight power Hamiltonian,

    H_lam(x, p) = (1 - lam) * H0(x, p) + lam * (1 + |p|^2)^(gamma/2),

which is the homotopy family the continuation solver marches through.  The
blend is the same power model with weight (1 - lam) c(x) + lam.  A
brute-force convex-duality oracle for Lagrangians a(x) (1 + |v|^2)^(gamma'/2)
is provided for testing duality and growth; the structural hypotheses behind
existence and uniqueness are verified by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

__all__ = [
    "HamiltonianModel",
    "LagrangianModel",
    "LegendreBoundaryError",
    "legendre_transform",
    "conjugate_radial",
    "growth_constants",
    "SampleSpec",
    "AssumptionRecord",
    "AssumptionReport",
    "check_assumptions",
]


@dataclass(frozen=True)
class HamiltonianModel:
    """Isotropic power Hamiltonian H(x, p) = weight(x) * (1 + |p|^2)^(gamma/2).

    ``weight`` is either a scalar or an array of per-node samples; array
    weights broadcast against the trailing axis of momentum stacks.
    """

    gamma: float
    weight: object = 1.0

    def __post_init__(self):
        if not 1.0 < self.gamma < 2.0:
            raise ValueError(f"gamma must lie in (1, 2), got {self.gamma}")
        w = np.asarray(self.weight, dtype=float)
        if np.any(w <= 0.0):
            raise ValueError("weight must be strictly positive")
        object.__setattr__(self, "weight", w if w.ndim else float(w))

    @classmethod
    def blend(cls, base: "HamiltonianModel", lam: float) -> "HamiltonianModel":
        """(1-lam) * base + lam * unit, the power model with weight (1-lam) c + lam."""
        if lam == 0.0:
            return base
        return cls(base.gamma, (1.0 - lam) * base.weight + lam)

    @property
    def gamma_prime(self) -> float:
        return self.gamma / (self.gamma - 1.0)

    # -- weight handling ---------------------------------------------------

    def _w(self, x_index):
        if np.ndim(self.weight) == 0:
            return self.weight
        return self.weight if x_index is None else np.asarray(self.weight)[x_index]

    def weight_bounds(self) -> tuple[float, float]:
        """Range of the zero-momentum value H(x, 0)."""
        w = np.asarray(self.weight)
        return float(np.min(w)), float(np.max(w))

    # -- evaluation (p has shape (d, ...); weight broadcasts on ...) -------

    def value(self, p: np.ndarray, x_index=None) -> np.ndarray:
        s = np.sum(np.square(p), axis=0)
        return self._w(x_index) * (1.0 + s) ** (0.5 * self.gamma)

    def grad(self, p: np.ndarray, x_index=None) -> np.ndarray:
        s = np.sum(np.square(p), axis=0)
        coef = self._w(x_index) * self.gamma * (1.0 + s) ** (0.5 * self.gamma - 1.0)
        return coef * p

    def hess_coeffs(self, p: np.ndarray, x_index=None) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (a, b) of the Hessian a*I + b*(p otimes p)."""
        s = np.sum(np.square(p), axis=0)
        w = self._w(x_index)
        a = w * self.gamma * (1.0 + s) ** (0.5 * self.gamma - 1.0)
        b = w * self.gamma * (self.gamma - 2.0) * (1.0 + s) ** (0.5 * self.gamma - 2.0)
        return a, b

    def hess_eig_bounds(self, p: np.ndarray, x_index=None) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise (min, max) eigenvalue of the Hessian.

        Eigenvalues are a (tangential, multiplicity d-1) and a + b|p|^2
        (radial); b <= 0 for subquadratic growth so the radial one is least.
        """
        a, b = self.hess_coeffs(p, x_index)
        s = np.sum(np.square(p), axis=0)
        radial = a + b * s
        return np.minimum(a, radial), np.maximum(a, radial)


@dataclass(frozen=True)
class LagrangianModel:
    """Superquadratic running cost L(x, v) = weight(x) * (1 + |v|^2)^(gamma'/2)."""

    gamma_prime: float
    weight: object = 1.0

    def __post_init__(self):
        if self.gamma_prime <= 2.0:
            raise ValueError(f"gamma_prime must exceed 2, got {self.gamma_prime}")
        w = np.asarray(self.weight, dtype=float)
        if np.any(w <= 0.0):
            raise ValueError("weight must be strictly positive")
        object.__setattr__(self, "weight", w if w.ndim else float(w))

    @property
    def gamma(self) -> float:
        return self.gamma_prime / (self.gamma_prime - 1.0)

    def weight_at(self, x_index) -> float:
        if np.ndim(self.weight) == 0:
            return float(self.weight)
        return float(np.asarray(self.weight)[x_index])

    def value(self, v: np.ndarray, x_index=None) -> np.ndarray:
        s = np.sum(np.square(np.asarray(v, dtype=float)), axis=0)
        w = self.weight if x_index is None else self.weight_at(x_index)
        return w * (1.0 + s) ** (0.5 * self.gamma_prime)

    def radial(self, x_index):
        """Scalar profile t -> L(x, t e) along any direction (isotropy)."""
        w = self.weight_at(x_index) if np.ndim(self.weight) else float(self.weight)
        s = self.gamma_prime
        return lambda t: w * (1.0 + t * t) ** (0.5 * s)


class LegendreBoundaryError(RuntimeError):
    """The brute-force maximizer landed on the sample boundary."""


def conjugate_radial(profile, slope: float, radius: float, samples: int = 257) -> float:
    """sup over t in [0, radius] of slope*t - profile(t), by grid + refinement.

    ``profile`` must be convex and radially symmetric about 0, which makes
    the search one-dimensional; convexity also makes the grid argmax a valid
    bracket for the local ascent.  Raises :class:`LegendreBoundaryError` when
    the maximizer touches t == radius.
    """
    if radius <= 0.0 or samples < 8:
        raise ValueError("need positive radius and at least 8 samples")
    ts = np.linspace(0.0, radius, samples)
    try:
        prof_vals = np.asarray(profile(ts), dtype=float)
        if prof_vals.shape != ts.shape:
            raise TypeError
    except (TypeError, ValueError):
        prof_vals = np.asarray([profile(t) for t in ts])
    vals = slope * ts - prof_vals
    i = int(np.argmax(vals))
    if i == samples - 1:
        raise LegendreBoundaryError(
            f"maximizer at the sample boundary t={radius}; enlarge the radius"
        )
    lo = ts[max(i - 1, 0)]
    hi = ts[i + 1]
    res = minimize_scalar(
        lambda t: -(slope * t - profile(t)), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12},
    )
    return float(max(-res.fun, vals[i]))


def legendre_transform(
    lagrangian: LagrangianModel,
    x_index: int,
    p,
    v_radius: float,
    v_samples: int = 257,
) -> float:
    """sup over v of [-v . p - L(x, v)], the convex dual defining H0.

    The Lagrangian is isotropic in v, so the supremum is attained along the
    direction -p/|p| and reduces to a one-dimensional search.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    profile = lagrangian.radial(x_index)
    return conjugate_radial(profile, float(np.linalg.norm(p)), v_radius, v_samples)


def growth_constants(lagrangian: LagrangianModel) -> dict[str, float]:
    """Explicit envelope constants for the power growth of L and its dual.

    With  a_min |v|^g' <= L <= a_max 2^(g'/2) (1 + |v|^g')  the dual obeys
    c1 |p|^g / g - k1 <= H0 <= c2 |p|^g / g, conjugation swapping the roles
    of the two envelope constants.
    """
    w = np.asarray(lagrangian.weight, dtype=float)
    a_min, a_max = float(np.min(w)), float(np.max(w))
    gp = lagrangian.gamma_prime
    g = lagrangian.gamma
    upper_coef = gp * a_max * 2.0 ** (0.5 * gp)
    lower_coef = gp * a_min
    return {
        "gamma": g,
        "dual_lower_coef": upper_coef ** (1.0 - g),
        "dual_lower_shift": a_max * 2.0 ** (0.5 * gp),
        "dual_upper_coef": lower_coef ** (1.0 - g),
    }


# ---------------------------------------------------------------------------
# sampled verification of the structural hypotheses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic (x, p) sample: grid nodes paired with momenta in a ball."""

    n_momenta: int = 512
    p_radius: float = 10.0
    seed: int = 0
    p_floor: float = 1e-6


@dataclass
class AssumptionRecord:
    name: str
    criterion: str
    passed: bool
    margin: float
    values: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)


@dataclass
class AssumptionReport:
    records: dict
    sample: SampleSpec

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records.values())

    def __getitem__(self, name: str) -> AssumptionRecord:
        return self.records[name]


def _sample_momenta(model: HamiltonianModel, dim: int, spec: SampleSpec):
    rng = np.random.default_rng(spec.seed)
    n = spec.n_momenta
    direc = rng.normal(size=(dim, n))
    direc /= np.linalg.norm(direc, axis=0)
    # log-uniform radii cover both the small and the coercive regime
    radii = np.exp(rng.uniform(np.log(max(spec.p_floor, 1e-3)), np.log(spec.p_radius), n))
    p = direc * radii
    idx = None if np.ndim(model.weight) == 0 else rng.integers(0, model.weight.size, size=n)
    return p, idx


def check_assumptions(
    model: HamiltonianModel,
    alpha: float,
    dim: int,
    spec: SampleSpec = SampleSpec(),
    lagrangian: LagrangianModel | None = None,
    potential_dz_min: float | None = None,
) -> AssumptionReport:
    """Sampled pass/fail report for the structural hypotheses.

    Each record carries the worst sampled margin (nonnegative means the
    inequality held on the whole sample) plus the sample point achieving it.
    The report is reproducible for a fixed :class:`SampleSpec`.
    """
    if spec.n_momenta < 1:
        raise ValueError("empty sample set")
    p, idx = _sample_momenta(model, dim, spec)
    pn = np.linalg.norm(p, axis=0)
    h = model.value(p, idx)
    h0 = model.value(np.zeros_like(p), idx)
    dp = model.grad(p, idx)
    p_dot_dp = np.sum(p * dp, axis=0)
    eig_min, _ = model.hess_eig_bounds(p, idx)
    a_c, b_c = model.hess_coeffs(p, idx)
    p_hess_p = (a_c + b_c * pn**2) * pn**2
    w_min, w_max = model.weight_bounds()
    g = model.gamma
    tol = 1e-10

    def worst_at(arr):
        j = int(np.argmin(arr))
        return {"|p|": float(pn[j]), "x_index": None if idx is None else int(idx[j])}

    records: dict[str, AssumptionRecord] = {}

    vals = h0 - (h - p_dot_dp)
    records["zero_momentum_support"] = AssumptionRecord(
        name="zero_momentum_support",
        criterion="H(x,p) - p.DpH(x,p) <= H(x,0) (convexity support inequality)",
        passed=bool(np.min(vals) >= -tol),
        margin=float(np.min(vals)),
        worst=worst_at(vals),
    )

    c_coer = w_min * (g - 1.0) * 2.0 ** (0.5 * g - 1.0)
    big_c = c_coer + w_max
    vals = p_dot_dp - h - (c_coer * pn**g - big_c)
    records["coercivity"] = AssumptionRecord(
        name="coercivity",
        criterion="p.DpH - H >= c |p|^gamma - C",
        passed=bool(np.min(vals) >= -tol),
        margin=float(np.min(vals)),
        values={"c": c_coer, "C": big_c},
        worst=worst_at(vals),
    )

    c_grow = w_max * g
    vals = c_grow * (pn ** (g - 1.0) + 1.0) - np.linalg.norm(dp, axis=0)
    records["gradient_growth"] = AssumptionRecord(
        name="gradient_growth",
        criterion="|DpH| <= C |p|^(gamma-1) + C",
        passed=bool(np.min(vals) >= -tol),
        margin=float(np.min(vals)),
        values={"C": c_grow},
        worst=worst_at(vals),
    )

    if dim <= 2:
        records["congestion_exponent"] = AssumptionRecord(
            name="congestion_exponent",
            criterion="alpha < 2/(d-2), vacuous below three dimensions",
            passed=alpha >= 0.0,
            margin=float("inf"),
            values={"alpha": alpha},
        )
    else:
        bound = 2.0 / (dim - 2)
        records["congestion_exponent"] = AssumptionRecord(
            name="congestion_exponent",
            criterion="alpha < 2/(d-2)",
            passed=0.0 <= alpha < bound,
            margin=bound - alpha,
            values={"alpha": alpha, "bound": bound},
        )

    records["subquadratic"] = AssumptionRecord(
        name="subquadratic",
        criterion="1 < gamma < 2",
        passed=1.0 < g < 2.0,
        margin=float(min(2.0 - g, g - 1.0)),
        values={"gamma": g},
    )

    records["strict_convexity"] = AssumptionRecord(
        name="strict_convexity",
        criterion="smallest eigenvalue of D^2_pp H positive on the sample",
        passed=bool(np.min(eig_min) > 0.0),
        margin=float(np.min(eig_min)),
        worst=worst_at(eig_min),
    )

    # Uniqueness inequality, centered at the zero-momentum value: the power
    # family has H(x,0) > 0, so the raw form is negative near p = 0 for any
    # alpha; centering isolates the coercive structure whose sign matches
    # the alpha < 4/gamma certificate.  The raw minimum is reported too.
    mask = pn >= spec.p_floor
    centered = (p_dot_dp - h + h0 - 0.25 * alpha * p_hess_p)[mask]
    raw = (p_dot_dp - h - 0.25 * alpha * p_hess_p)[mask]
    jmask = np.argmin(centered)
    records["uniqueness_inequality"] = AssumptionRecord(
        name="uniqueness_inequality",
        criterion="p.DpH - H + H(x,0) > (alpha/4) p.D2H.p for p != 0",
        passed=bool(np.min(centered) > 0.0),
        margin=float(np.min(centered)),
        values={"raw_min": float(np.min(raw))},
        worst={"|p|": float(pn[mask][jmask])},
    )

    records["uniqueness_alpha_bound"] = AssumptionRecord(
        name="uniqueness_alpha_bound",
        criterion="alpha < 4/gamma (sufficient condition for the power family)",
        passed=alpha < 4.0 / g,
        margin=4.0 / g - alpha,
        values={"alpha": alpha, "bound": 4.0 / g},
    )

    if lagrangian is not None:
        records.update(_lagrangian_records(lagrangian, dim, spec))

    if potential_dz_min is not None:
        records["potential_monotonicity"] = AssumptionRecord(
            name="potential_monotonicity",
            criterion="d/dz V(x, z) > 0 on the sampled density range",
            passed=potential_dz_min > 0.0,
            margin=float(potential_dz_min),
        )

    return AssumptionReport(records=records, sample=spec)


def _lagrangian_records(lagrangian: LagrangianModel, dim: int, spec: SampleSpec):
    rng = np.random.default_rng(spec.seed + 1)
    v = rng.normal(size=(dim, spec.n_momenta)) * rng.uniform(0.0, spec.p_radius, spec.n_momenta)
    if np.ndim(lagrangian.weight) == 0:
        idx = None
    else:
        idx = rng.integers(0, np.asarray(lagrangian.weight).size, size=spec.n_momenta)
    lvals = lagrangian.value(v, idx)
    s = np.sum(v * v, axis=0)
    gp = lagrangian.gamma_prime
    w = lagrangian.weight if idx is None else np.asarray(lagrangian.weight)[idx]

    # Hessian of w (1+s)^(gp/2): radial eigenvalue is the smallest one only
    # if gp < 2, so for superquadratic growth the tangential one is minimal.
    a = w * gp * (1.0 + s) ** (0.5 * gp - 1.0)
    b = w * gp * (gp - 2.0) * (1.0 + s) ** (0.5 * gp - 2.0)
    eig_min = np.minimum(a, a + b * s)

    w_all = np.asarray(lagrangian.weight, dtype=float)
    a_min, a_max = float(np.min(w_all)), float(np.max(w_all))
    vn = np.sqrt(s)
    c1, k1 = gp * a_min, 0.0
    c2 = gp * a_max * 2.0 ** (0.5 * gp)
    k2 = a_max * 2.0 ** (0.5 * gp)
    env_lower = lvals - (c1 * vn**gp / gp - k1)
    env_upper = (c2 * vn**gp / gp + k2) - lvals

    return {
        "lagrangian_convexity": AssumptionRecord(
            name="lagrangian_convexity",
            criterion="v -> L(x, v) strictly convex",
            passed=bool(np.min(eig_min) > 0.0),
            margin=float(np.min(eig_min)),
        ),
        "lagrangian_positivity": AssumptionRecord(
            name="lagrangian_positivity",
            criterion="L(x, v) >= 0",
            passed=bool(np.min(lvals) >= 0.0),
            margin=float(np.min(lvals)),
        ),
        "lagrangian_growth": AssumptionRecord(
            name="lagrangian_growth",
            criterion="C1 |v|^gamma'/gamma' - c1 <= L <= C2 |v|^gamma'/gamma' + c2",
            passed=bool(min(np.min(env_lower), np.min(env_upper)) >= -1e-10),
            margin=float(min(np.min(env_lower), np.min(env_upper))),
            values={"C1": c1, "c1": k1, "C2": c2, "c2": k2},
        ),
    }
