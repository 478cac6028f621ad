"""Congestion Hamiltonians and their structural checks.

The solver works with the isotropic power model

    H(x, p) = c(x) * (1 + |p|^2)^(gamma/2),    1 < gamma < 2,

and its convex blend toward the unit-weight power Hamiltonian,

    H_lam(x, p) = (1 - lam) * H0(x, p) + lam * (1 + |p|^2)^(gamma/2),

which is the homotopy family the continuation solver marches through.  The
blend is the same power model with weight (1 - lam) c(x) + lam.  A
brute-force convex-duality oracle for Lagrangians a(x) (1 + |v|^2)^(gamma'/2)
(:func:`duality_table`) checks duality and growth; the structural hypotheses
behind existence and uniqueness are verified by sampling, and the uniqueness
inequality has one evaluator (:func:`uniqueness_terms`) shared with the
estimate suite.
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
    "DualityTable",
    "duality_table",
    "UniquenessTerms",
    "uniqueness_terms",
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

    def weight_bounds(self) -> tuple[float, float]:
        """Range of the zero-momentum value H(x, 0)."""
        w = np.asarray(self.weight)
        return float(np.min(w)), float(np.max(w))

    # -- evaluation (p has shape (d, ...); weight broadcasts on ...) -------

    def value(self, p: np.ndarray) -> np.ndarray:
        s = np.sum(np.square(p), axis=0)
        return self.weight * (1.0 + s) ** (0.5 * self.gamma)

    def grad(self, p: np.ndarray) -> np.ndarray:
        s = np.sum(np.square(p), axis=0)
        coef = self.weight * self.gamma * (1.0 + s) ** (0.5 * self.gamma - 1.0)
        return coef * p

    def hess_coeffs(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (a, b) of the Hessian a*I + b*(p otimes p)."""
        s = np.sum(np.square(p), axis=0)
        w = self.weight
        a = w * self.gamma * (1.0 + s) ** (0.5 * self.gamma - 1.0)
        b = w * self.gamma * (self.gamma - 2.0) * (1.0 + s) ** (0.5 * self.gamma - 2.0)
        return a, b


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

    def value(self, v: np.ndarray) -> np.ndarray:
        s = np.sum(np.square(np.asarray(v, dtype=float)), axis=0)
        return self.weight * (1.0 + s) ** (0.5 * self.gamma_prime)

    def radial(self, x_index):
        """Scalar profile t -> L(x, t e) along any direction (isotropy)."""
        w = self.weight_at(x_index)
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


@dataclass(frozen=True)
class DualityTable:
    """What :func:`duality_table` measured, with its pass rule and its text."""

    max_deviation: float                # worst |L** - L| over the sampled speeds
    ratio_range: tuple[float, float]    # H0 / (|p|^gamma / gamma) over the momenta
    window: tuple[float, float]         # envelope the ratios must stay in

    @property
    def passed(self) -> bool:
        lo, hi = self.ratio_range
        return self.max_deviation <= 1e-6 and self.window[0] <= lo and hi <= self.window[1]

    def lines(self) -> list[str]:
        return [
            f"double_transform_max_deviation={self.max_deviation:.3e} (tol 1e-6)",
            f"growth_ratio_range=[{self.ratio_range[0]:.6f}, {self.ratio_range[1]:.6f}] "
            f"window=[{self.window[0]:.6f}, {self.window[1]:.6f}]",
        ]


def duality_table(lagrangian: LagrangianModel, seed: int) -> DualityTable:
    """Brute-force convex-duality oracle for the running cost.

    Draws 100 (node, speed) pairs with ``seed`` and transforms L twice,
    L -> H0 -> L**, which must give L back.  Then it compares H0 at 16
    momenta in [10, 100], each at a drawn node, with |p|^gamma / gamma; the
    ratios must lie in [C1 / 2, 2 C2] for the envelope constants of
    :func:`growth_constants`.  Raises :class:`LegendreBoundaryError` when a
    search radius was too small.
    """
    rng = np.random.default_rng(seed)
    nodes = np.size(lagrangian.weight)
    idx = rng.integers(0, nodes, 100)
    speeds = rng.uniform(0.0, 3.0, 100)
    gp = lagrangian.gamma_prime
    worst = 0.0
    for x, v in zip(idx, speeds):
        profile = lagrangian.radial(int(x))
        w = lagrangian.weight_at(int(x))
        v = float(v)
        # the maximizing momentum for speed v has size w gp v (1+v^2)^(gp/2-1)
        p_star = w * gp * v * (1.0 + v * v) ** (0.5 * gp - 1.0)

        def dual(r):
            v_star = (r / (w * gp)) ** (1.0 / (gp - 1.0)) if r > 0 else 0.0
            return conjugate_radial(profile, r, 3.0 * v_star + 5.0, samples=129)

        back = conjugate_radial(dual, v, 3.0 * p_star + 10.0, samples=129)
        worst = max(worst, abs(back - profile(v)))

    consts = growth_constants(lagrangian)
    g = consts["gamma"]
    ratios = []
    for p_mag in np.linspace(10.0, 100.0, 16):
        x = int(rng.integers(0, nodes))
        v_star = (p_mag / (gp * lagrangian.weight_at(x))) ** (1.0 / (gp - 1.0))
        h_val = legendre_transform(lagrangian, x, [p_mag], v_radius=4.0 * v_star + 2.0)
        ratios.append(h_val / (p_mag**g / g))
    return DualityTable(
        max_deviation=worst,
        ratio_range=(float(min(ratios)), float(max(ratios))),
        window=(0.5 * consts["dual_lower_coef"], 2.0 * consts["dual_upper_coef"]),
    )


@dataclass(frozen=True)
class UniquenessTerms:
    """The uniqueness inequality at a stack of momenta, entry by entry."""

    support: np.ndarray     # p.DpH - H + H(x,0), >= 0 by convexity
    coercive: np.ndarray    # p.DpH - H
    centered: np.ndarray    # support - (alpha/4) p.D2H.p
    raw: np.ndarray         # coercive - (alpha/4) p.D2H.p
    eig_min: np.ndarray     # smallest eigenvalue of D2H


def uniqueness_terms(model: HamiltonianModel, p: np.ndarray, alpha: float) -> UniquenessTerms:
    """Both forms of p.DpH - H (+ H(x,0)) > (alpha/4) p.D2H.p at momenta p.

    The power family has H(x, 0) > 0, so the raw form is negative near
    p = 0 for any alpha; centering at the zero-momentum value isolates the
    coercive structure whose sign matches the alpha < 4/gamma certificate.
    The Hessian a I + b p (x) p has the eigenvalues a (tangential) and
    a + b |p|^2 (radial); b <= 0 for subquadratic growth.
    """
    s = np.sum(np.square(p), axis=0)
    coercive = np.sum(p * model.grad(p), axis=0) - model.value(p)
    support = coercive + model.value(np.zeros_like(p))
    a, b = model.hess_coeffs(p)
    radial = a + b * s
    curvature = 0.25 * alpha * (radial * s)
    return UniquenessTerms(
        support=support,
        coercive=coercive,
        centered=support - curvature,
        raw=coercive - curvature,
        eig_min=np.minimum(a, radial),
    )


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
    """Momenta in the ball, and the model with the weight of each sample's node."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_momenta
    direc = rng.normal(size=(dim, n))
    direc /= np.linalg.norm(direc, axis=0)
    # log-uniform radii cover both the small and the coercive regime
    radii = np.exp(rng.uniform(np.log(max(spec.p_floor, 1e-3)), np.log(spec.p_radius), n))
    p = direc * radii
    if np.ndim(model.weight) == 0:
        return p, None, model
    idx = rng.integers(0, model.weight.size, size=n)
    return p, idx, HamiltonianModel(model.gamma, model.weight[idx])


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
    p, idx, sampled = _sample_momenta(model, dim, spec)
    pn = np.linalg.norm(p, axis=0)
    terms = uniqueness_terms(sampled, p, alpha)
    w_min, w_max = model.weight_bounds()
    g = model.gamma
    tol = 1e-10

    def worst_at(arr):
        j = int(np.argmin(arr))
        return {"|p|": float(pn[j]), "x_index": None if idx is None else int(idx[j])}

    records: dict[str, AssumptionRecord] = {}

    vals = terms.support
    records["zero_momentum_support"] = AssumptionRecord(
        name="zero_momentum_support",
        criterion="H(x,p) - p.DpH(x,p) <= H(x,0) (convexity support inequality)",
        passed=bool(np.min(vals) >= -tol),
        margin=float(np.min(vals)),
        worst=worst_at(vals),
    )

    c_coer = w_min * (g - 1.0) * 2.0 ** (0.5 * g - 1.0)
    big_c = c_coer + w_max
    vals = terms.coercive - (c_coer * pn**g - big_c)
    records["coercivity"] = AssumptionRecord(
        name="coercivity",
        criterion="p.DpH - H >= c |p|^gamma - C",
        passed=bool(np.min(vals) >= -tol),
        margin=float(np.min(vals)),
        values={"c": c_coer, "C": big_c},
        worst=worst_at(vals),
    )

    c_grow = w_max * g
    vals = c_grow * (pn ** (g - 1.0) + 1.0) - np.linalg.norm(sampled.grad(p), axis=0)
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
        passed=bool(np.min(terms.eig_min) > 0.0),
        margin=float(np.min(terms.eig_min)),
        worst=worst_at(terms.eig_min),
    )

    # the centered form decides; the raw minimum is reported too
    mask = pn >= spec.p_floor
    centered, raw = terms.centered[mask], terms.raw[mask]
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
    w = lagrangian.weight
    if np.ndim(w):
        w = w[rng.integers(0, w.size, size=spec.n_momenta)]
    lvals = LagrangianModel(lagrangian.gamma_prime, w).value(v)
    s = np.sum(v * v, axis=0)
    gp = lagrangian.gamma_prime

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
