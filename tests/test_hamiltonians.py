import numpy as np
import pytest

from mfgcon.grids import PeriodicGrid
from mfgcon.hamiltonians import (
    HamiltonianModel,
    LagrangianModel,
    LegendreBoundaryError,
    conjugate_radial,
    duality_table,
    growth_constants,
    legendre_transform,
    uniqueness_terms,
)

GAMMA = 1.5


def unit_model():
    return HamiltonianModel(GAMMA, 1.0)


def test_model_validation():
    with pytest.raises(ValueError):
        HamiltonianModel(2.5, 1.0)
    with pytest.raises(ValueError):
        HamiltonianModel(1.5, -1.0)


def test_value_at_reference_points():
    model = unit_model()
    values = model.value(np.array([[0.0, 1.0]]))
    assert values[0] == pytest.approx(1.0, abs=1e-15)
    assert values[1] == pytest.approx(2.0**0.75, rel=1e-14)
    blend = HamiltonianModel.blend(HamiltonianModel(GAMMA, 3.7), lam=1.0)
    assert blend.value(np.zeros((1, 1)))[0] == pytest.approx(1.0, abs=1e-15)


def test_blend_is_convex_combination():
    rng = np.random.default_rng(5)
    base = HamiltonianModel(GAMMA, 2.0)
    unit = unit_model()
    blend = HamiltonianModel.blend(base, lam=0.3)
    p = rng.normal(size=(2, 200)) * 3.0
    lo = np.minimum(base.value(p), unit.value(p))
    hi = np.maximum(base.value(p), unit.value(p))
    mid = blend.value(p)
    assert np.all(mid >= lo - 1e-12) and np.all(mid <= hi + 1e-12)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("per_node", [False, True])
@pytest.mark.parametrize("lam", [0.3, 1.0])
def test_blend_is_power_model_with_blended_weight(dim, per_node, lam):
    rng = np.random.default_rng(17)
    n = 200
    weight = rng.uniform(0.5, 3.0, n) if per_node else 2.7
    base = HamiltonianModel(GAMMA, weight)
    unit = unit_model()
    blend = HamiltonianModel.blend(base, lam)
    assert HamiltonianModel.blend(base, 0.0) is base

    p = rng.normal(size=(dim, n)) * 3.0
    checks = [
        (blend.value(p), (1.0 - lam) * base.value(p) + lam * unit.value(p)),
        (blend.grad(p), (1.0 - lam) * base.grad(p) + lam * unit.grad(p)),
    ]
    for got, b_part, u_part in zip(blend.hess_coeffs(p), base.hess_coeffs(p), unit.hess_coeffs(p)):
        checks.append((got, (1.0 - lam) * b_part + lam * u_part))
    for got, want in checks:
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    lo, hi = base.weight_bounds()
    assert blend.weight_bounds() == ((1.0 - lam) * lo + lam, (1.0 - lam) * hi + lam)


def test_gradient_zero_at_origin():
    model = unit_model()
    assert np.max(np.abs(model.grad(np.zeros((2, 1))))) == 0.0


def dense_hessian(model, p):
    """a I + b p (x) p from ``hess_coeffs``, shape (d, d, n)."""
    a, b = model.hess_coeffs(p)
    return a * np.eye(p.shape[0])[:, :, None] + b * (p[:, None] * p[None, :])


@pytest.mark.parametrize("dim", [1, 2])
def test_derivatives_match_finite_differences(dim):
    # the per-node weight makes each column of p its own point
    rng = np.random.default_rng(2)
    n = 6
    model = HamiltonianModel.blend(HamiltonianModel(GAMMA, rng.uniform(0.5, 3.0, n)), 0.4)
    p0 = rng.normal(size=(dim, n)) * 2.0
    grad = model.grad(p0)
    hessian = dense_hessian(model, p0)
    errs_g, errs_h = [], []
    for eps in (1e-4, 5e-5):
        fd_g = np.zeros((dim, n))
        fd_h = np.zeros((dim, dim, n))
        for a in range(dim):
            e = np.zeros((dim, 1))
            e[a] = eps
            fd_g[a] = (model.value(p0 + e) - model.value(p0 - e)) / (2 * eps)
            fd_h[:, a] = (model.grad(p0 + e) - model.grad(p0 - e)) / (2 * eps)
        errs_g.append(np.max(np.abs(fd_g - grad)))
        errs_h.append(np.max(np.abs(fd_h - hessian)))
    # second-order central differences: error drops by ~4x when eps halves
    assert errs_g[0] / max(errs_g[1], 1e-16) > 3.0
    assert errs_h[0] / max(errs_h[1], 1e-16) > 3.0


def test_hessian_positive_definite_on_sample():
    model = HamiltonianModel(GAMMA, 0.8)
    rng = np.random.default_rng(9)
    p = rng.normal(size=(2, 1000))
    p = p / np.linalg.norm(p, axis=0) * rng.uniform(0, 10.0, 1000)
    eig_min = uniqueness_terms(model, p, alpha=0.5).eig_min
    assert np.min(eig_min) > 0.0
    # closed-form eigenvalues against a dense eigensolve at a few points
    full = dense_hessian(model, p[:, :5])
    for j in range(5):
        w = np.linalg.eigvalsh(full[:, :, j])
        assert w[0] == pytest.approx(eig_min[j], rel=1e-12)


def test_batched_conjugate_matches_the_quadratic_dual():
    # sup over t of s t - a t^2 / 2 is s^2 / (2a), at t = s / a; slope 0 has
    # its maximizer at t = 0, the left end of its bracket
    a = np.array([0.5, 1.0, 3.0])
    slopes = np.array([0.0, 0.3, 1.0, 2.5])
    radii = np.array([6.0, 3.0, 1.0])[:, None]
    got = conjugate_radial(lambda t: a[:, None, None] * t * t / 2, slopes, radii, samples=129)
    assert got.shape == (3, 4)
    np.testing.assert_allclose(got, slopes**2 / (2 * a[:, None]), rtol=1e-12, atol=1e-12)
    # one scalar radius for a row of slopes, each with its own curvature
    b = np.array([0.5, 1.0, 2.0, 4.0])
    got = conjugate_radial(lambda t: b[:, None] * t * t / 2, slopes, 6.0)
    np.testing.assert_allclose(got, slopes**2 / (2 * b), rtol=1e-12, atol=1e-12)


def test_batched_conjugate_names_the_entry_past_its_radius():
    a = np.array([1.0, 1.0, 2.0])
    with pytest.raises(LegendreBoundaryError, match=r"t=2\.0 for slope 5\.0;"):
        conjugate_radial(lambda t: a[:, None] * t * t / 2, np.array([1.0, 5.0, 1.0]), 2.0)


def test_legendre_at_zero_momentum_and_boundary_error():
    lagr = LagrangianModel(gamma_prime=3.0, weight=2.5)
    val = legendre_transform(lagr, 0, [0.0], v_radius=3.0)
    assert val == pytest.approx(-2.5, rel=1e-12)
    with pytest.raises(LegendreBoundaryError):
        legendre_transform(lagr, 0, [50.0], v_radius=0.5)


@pytest.fixture(scope="module")
def per_node_table():
    """The duality oracle on a running cost with one weight per node."""
    x = PeriodicGrid(1, 32).coordinates()[0]
    lagr = LagrangianModel(gamma_prime=3.0, weight=1.0 + 0.3 * np.cos(2 * np.pi * x))
    return lagr, duality_table(lagr, seed=4)


def test_legendre_double_transform_recovers_lagrangian(per_node_table):
    _, table = per_node_table
    assert table.max_deviation <= 1e-12
    assert table.passed


def test_legendre_growth_matches_dual_envelope(per_node_table):
    lagr, table = per_node_table
    consts = growth_constants(lagr)
    assert table.window == (0.5 * consts["dual_lower_coef"], 2.0 * consts["dual_upper_coef"])
    lo, hi = table.ratio_range
    assert (lo, hi) == pytest.approx((0.35683207722021876, 0.6469200649099244), abs=1e-9)
    assert table.window[0] <= lo <= hi <= table.window[1]
    # the weight varies by 1.3 / 0.7 across nodes, and so do the sampled ratios
    assert hi / lo > 1.2
    lines = table.lines()
    assert lines[0].startswith("double_transform_max_deviation=")
    assert lines[1].startswith(f"growth_ratio_range=[{lo:.6f}, {hi:.6f}] window=")


def test_dual_uniqueness_inequality_sharp_in_alpha():
    # For the dual of the power running cost the raw inequality
    # p.DpH - H > (alpha/4) p.D2H.p holds for all p exactly when alpha < 4/gamma;
    # checked through radial finite differences of the duality oracle.
    lagr = LagrangianModel(gamma_prime=3.0, weight=1.0)  # gamma = 1.5, 4/gamma = 8/3
    eps = 1e-4
    r = np.array([0.05, 0.3, 1.0, 4.0, 30.0, 60.0])
    stencil = r[:, None] + eps * np.array([-1.0, 0.0, 1.0])
    h = conjugate_radial(lagr.radial(0), stencil, 3.0 * (stencil / 3.0) ** 0.5 + 6.0, samples=129)
    h0 = h[:, 1]
    dh = (h[:, 2] - h[:, 0]) / (2 * eps)
    d2h = (h[:, 2] - 2 * h0 + h[:, 0]) / eps**2
    coercive = r * dh - h0
    curvature = r * r * d2h
    assert np.all(coercive > 0.25 * 0.5 * curvature - 1e-6)          # alpha = 0.5 passes
    # the curvature-to-coercivity ratio tends to gamma from below, so
    # alpha = 3 > 4/gamma is violated once the momentum is large
    large = r >= 30.0
    assert np.all(coercive[large] < 0.25 * 3.0 * curvature[large])


def test_lagrangian_envelope_in_duality_table(per_node_table):
    # C1 |v|^g' / g' <= L <= C2 |v|^g' / g' + K2 at the table's speeds, with
    # the constants growth_constants derives; the lower side makes L positive
    lagr, table = per_node_table
    consts = growth_constants(lagr)
    gp = lagr.gamma_prime
    w = np.asarray(lagr.weight)
    assert consts["lower_coef"] == pytest.approx(gp * np.min(w), rel=1e-15)
    assert consts["upper_coef"] == pytest.approx(gp * np.max(w) * 2.0 ** (0.5 * gp), rel=1e-15)
    assert consts["upper_shift"] == pytest.approx(np.max(w) * 2.0 ** (0.5 * gp), rel=1e-15)
    assert table.envelope_margin >= -1e-10
    assert table.envelope_margin == pytest.approx(0.706396851738599, abs=1e-9)
    assert table.passed
    assert table.lines()[2] == (
        f"lagrangian_envelope_margin={table.envelope_margin:.6e} (tol -1e-10)"
    )
