"""Congestion Hamiltonians and their structural checks.

The solver works with the isotropic power model

    H(x, p) = c(x) * (1 + |p|^2)^(gamma/2),    1 < gamma < 2,

and its convex blend toward the unit-weight power Hamiltonian,

    H_lam(x, p) = (1 - lam) * H0(x, p) + lam * (1 + |p|^2)^(gamma/2),

which is the homotopy family the continuation solver marches through.  The
blend is the same power model with weight (1 - lam) c(x) + lam.  A
brute-force convex-duality oracle for Lagrangians a(x) (1 + |v|^2)^(gamma'/2)
(:func:`duality_table`) checks duality and the growth envelopes of L and its
dual by one batched search on profile values (:func:`conjugate_radial`).  The
uniqueness inequality has one evaluator (:func:`uniqueness_terms`), which the
estimate suite calls both at the candidate's momenta and on the sample that
certifies the structural hypotheses of the run's Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def radial(self, x_index):
        """Profile t -> L(x, t e) along any direction (isotropy), row by row.

        ``x_index`` is a node index or an index array of shape S; the profile
        maps radii of shape S + (k,) to L at node ``x_index[s]`` on row s.
        """
        w = np.expand_dims(self.weight if np.ndim(self.weight) == 0 else self.weight[x_index], -1)
        s = self.gamma_prime
        return lambda t: w * (1.0 + t * t) ** (0.5 * s)


class LegendreBoundaryError(RuntimeError):
    """The brute-force maximizer landed on the sample boundary."""


# Tolerance on the values conjugate_radial returns, relative to the largest
# of them: the golden-section steps stop once the value error is at roundoff.
_VALUE_RTOL = np.finfo(float).eps
_INV_PHI = 0.5 * (np.sqrt(5.0) - 1.0)

# Inner profile values per block of duality_table's double transform: the
# outer grid's 129 radii per pair are conjugated 10 pairs at a time, so no
# temporary holds more than 10 x 129 x 129 values.
_DUAL_BLOCK_VALUES = 10 * 129 * 129


def conjugate_radial(profile, slope, radius, samples: int = 257) -> np.ndarray:
    """sup over t in [0, radius] of slope*t - profile(t), for all entries at once.

    ``slope`` and ``radius`` broadcast to a shape S; ``profile`` maps radii of
    shape S + (k,) to values, row s for entry s, each row convex and even in
    t.  Convexity lets the argmax over ``samples`` grid radii bracket every
    supremum, and golden-section steps narrow all brackets together.  The
    value error falls with the square of the bracket width, so the step count
    comes from a bound on that error, estimated from the samples' second
    differences, against ``_VALUE_RTOL`` times the largest value.  Raises
    :class:`LegendreBoundaryError`, naming the slope and radius, when a grid
    maximizer sits at t == radius.
    """
    slope, radius = np.broadcast_arrays(np.asarray(slope, float), np.asarray(radius, float))
    if np.any(radius <= 0.0) or samples < 8:
        raise ValueError("need positive radii and at least 8 samples")
    ts = np.linspace(0.0, radius, samples, axis=-1)

    def gain(t):
        return slope[..., None] * t - profile(t)

    vals = gain(ts)
    i = np.argmax(vals, axis=-1)[..., None]
    at_edge = np.flatnonzero(i == samples - 1)
    if at_edge.size:
        k = at_edge[0]
        raise LegendreBoundaryError(f"maximizer at the sample boundary t={radius.flat[k]} "
                                    f"for slope {slope.flat[k]}; enlarge the radius")
    lo = np.take_along_axis(ts, np.maximum(i - 1, 0), -1)
    width = np.take_along_axis(ts, i + 1, -1) - lo
    # The better interior point of a bracket of width w lies within phi^2 w of
    # the maximizer, so its value is within kappa (phi^2 w)^2 / 2 of the
    # supremum, kappa the gain's curvature.  On the grid bracket kappa w^2 / 2
    # is twice the second difference of the samples (an over-estimate for the
    # one-interval bracket at t = 0), and each step scales w by phi.
    c = np.maximum(i, 1)
    second = np.take_along_axis(vals, c - 1, -1) - 2.0 * np.take_along_axis(vals, c, -1)
    second += np.take_along_axis(vals, c + 1, -1)
    error = 2.0 * np.max(np.abs(second)) * _INV_PHI**4
    best = np.max(np.abs(np.take_along_axis(vals, i, -1)))
    tol = _VALUE_RTOL * max(best, np.finfo(float).tiny)
    steps = int(np.ceil(np.log(tol / error) / (2.0 * np.log(_INV_PHI)))) if error > tol else 0
    # values at the interior points lo + width * (phi^2, phi) of each bracket;
    # a step keeps the better one, so every bracket shrinks by phi
    f_lo, f_hi = gain(lo + _INV_PHI**2 * width), gain(lo + _INV_PHI * width)
    for _ in range(steps):
        up = f_hi > f_lo
        width = _INV_PHI * width
        lo = lo + up * (_INV_PHI * width)
        f_new = gain(lo + np.where(up, _INV_PHI, _INV_PHI**2) * width)
        f_lo, f_hi = np.where(up, f_hi, f_new), np.where(up, f_new, f_lo)
    return np.maximum(np.maximum(f_lo, f_hi), np.take_along_axis(vals, i, -1))[..., 0]


def legendre_transform(lagrangian: LagrangianModel, x_index, p, v_radius,
                       v_samples: int = 257) -> np.ndarray:
    """sup over v of [-v . p - L(x, v)], the convex dual defining H0.

    ``p`` has shape (d,) + S, and ``x_index`` and ``v_radius`` broadcast to
    S, so one call transforms a stack of momenta.  The Lagrangian is
    isotropic in v, so each supremum is attained along the direction
    -p/|p| and reduces to a one-dimensional search.
    """
    p_norm = np.linalg.norm(np.asarray(p, dtype=float), axis=0)
    return conjugate_radial(lagrangian.radial(x_index), p_norm, v_radius, v_samples)


def growth_constants(lagrangian: LagrangianModel) -> dict[str, float]:
    """Explicit envelope constants for the power growth of L and its dual.

    L obeys  C1 |v|^g' / g' <= L <= C2 |v|^g' / g' + K2  with C1 = g' a_min,
    C2 = g' a_max 2^(g'/2) and K2 = a_max 2^(g'/2), so the dual obeys
    c1 |p|^g / g - k1 <= H0 <= c2 |p|^g / g, conjugation swapping the roles
    of the two envelope constants.
    """
    w = np.asarray(lagrangian.weight, dtype=float)
    a_min, a_max = float(np.min(w)), float(np.max(w))
    gp = lagrangian.gamma_prime
    g = lagrangian.gamma
    upper_coef = gp * a_max * 2.0 ** (0.5 * gp)
    upper_shift = a_max * 2.0 ** (0.5 * gp)
    lower_coef = gp * a_min
    return {
        "gamma": g,
        "lower_coef": lower_coef,
        "upper_coef": upper_coef,
        "upper_shift": upper_shift,
        "dual_lower_coef": upper_coef ** (1.0 - g),
        "dual_lower_shift": upper_shift,
        "dual_upper_coef": lower_coef ** (1.0 - g),
    }


@dataclass(frozen=True)
class DualityTable:
    """What :func:`duality_table` measured, with its pass rule and its text."""

    max_deviation: float                # worst |L** - L| over the sampled speeds
    ratio_range: tuple[float, float]    # H0 / (|p|^gamma / gamma) over the momenta
    window: tuple[float, float]         # envelope the ratios must stay in
    envelope_margin: float              # worst slack of L in its envelope at the speeds

    @property
    def passed(self) -> bool:
        lo, hi = self.ratio_range
        return (
            self.max_deviation <= 1e-6
            and self.window[0] <= lo
            and hi <= self.window[1]
            and self.envelope_margin >= -1e-10
        )

    def lines(self) -> list[str]:
        return [
            f"double_transform_max_deviation={self.max_deviation:.3e} (tol 1e-6)",
            f"growth_ratio_range=[{self.ratio_range[0]:.6f}, {self.ratio_range[1]:.6f}] "
            f"window=[{self.window[0]:.6f}, {self.window[1]:.6f}]",
            f"lagrangian_envelope_margin={self.envelope_margin:.6e} (tol -1e-10)",
        ]


def duality_table(lagrangian: LagrangianModel, seed: int) -> DualityTable:
    """Brute-force convex-duality oracle for the running cost.

    Draws 100 (node, speed) pairs with ``seed`` and transforms L twice,
    L -> H0 -> L**, which must give L back; at the same pairs L must lie in
    its envelope C1 |v|^g' / g' <= L <= C2 |v|^g' / g' + K2, whose lower
    side also makes L positive.  The double transform is one
    :func:`conjugate_radial` call whose profile, H0 on each pair's row, is a
    batched :func:`conjugate_radial` call itself, made on blocks of pairs
    (``_DUAL_BLOCK_VALUES``) when the outer grid asks for many radii.  Then one
    :func:`legendre_transform` call compares H0 at 16 momenta in [10, 100],
    each at a drawn node, with |p|^gamma / gamma; the ratios must lie in
    [c1 / 2, 2 c2] for the dual envelope constants of :func:`growth_constants`.
    Raises :class:`LegendreBoundaryError` when a search radius was too small.
    """
    rng = np.random.default_rng(seed)
    nodes = np.size(lagrangian.weight)
    idx = rng.integers(0, nodes, 100)
    speeds = rng.uniform(0.0, 3.0, 100)
    gp = lagrangian.gamma_prime
    weight = np.broadcast_to(lagrangian.weight, nodes)
    consts = growth_constants(lagrangian)
    # the maximizing momentum for speed v has size w gp v (1+v^2)^(gp/2-1)
    p_star = weight[idx] * gp * speeds * (1.0 + speeds**2) ** (0.5 * gp - 1.0)

    def dual(r):
        size = max(1, _DUAL_BLOCK_VALUES // (r.shape[-1] * 129))
        out = []
        for start in range(0, r.shape[0], size):
            rows, sel = r[start : start + size], idx[start : start + size, None]
            v_star = (rows / (gp * weight[sel])) ** (1.0 / (gp - 1.0))
            out.append(conjugate_radial(lagrangian.radial(sel), rows, 3.0 * v_star + 5.0,
                                        samples=129))
        return np.concatenate(out)

    back = conjugate_radial(dual, speeds, 3.0 * p_star + 10.0, samples=129)
    l_val = lagrangian.radial(idx)(speeds[:, None])[:, 0]
    scaled = speeds**gp / gp
    envelope = np.minimum(l_val - consts["lower_coef"] * scaled,
                          consts["upper_coef"] * scaled + consts["upper_shift"] - l_val)

    g = consts["gamma"]
    p_mag = np.linspace(10.0, 100.0, 16)
    x = rng.integers(0, nodes, 16)
    v_star = (p_mag / (gp * weight[x])) ** (1.0 / (gp - 1.0))
    ratios = legendre_transform(lagrangian, x, p_mag[None], 4.0 * v_star + 2.0) / (p_mag**g / g)
    return DualityTable(
        max_deviation=float(np.max(np.abs(back - l_val))),
        ratio_range=(float(np.min(ratios)), float(np.max(ratios))),
        window=(0.5 * consts["dual_lower_coef"], 2.0 * consts["dual_upper_coef"]),
        envelope_margin=float(np.min(envelope)),
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

