import numpy as np
import pytest

from mfgcon.grids import (
    Field,
    PeriodicGrid,
    SpaceTimeField,
    TimeGrid,
    VectorField,
    _div_lap_stack,
    _div_stack,
    _grad_lap_stack,
    _grad_stack,
    _lap_stack,
    divergence,
    fourier_interpolate,
    gradient,
    heat_smoothing_norm,
    heat_step,
    integrate,
    laplacian,
)

from mfgcon.linearized import Perturbation, apply_L
from mfgcon.system import LambdaData, SolutionPair

from conftest import band_limited, make_problem

GRID = PeriodicGrid(1, 64)
X = GRID.coordinates()[0]


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(3, 64)
    with pytest.raises(ValueError):
        PeriodicGrid(1, 48)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    assert PeriodicGrid(2, 16).num_nodes == 256
    assert TimeGrid(0.05, 64).dt * 64 == pytest.approx(0.05, abs=1e-17)


def test_gradient_constant_is_zero():
    g = gradient(Field.constant(GRID, 1.0))
    assert np.max(np.abs(g.values)) == 0.0


def test_gradient_resolved_mode_exact():
    f = Field(GRID, np.sin(2 * np.pi * X))
    g = gradient(f)
    assert np.max(np.abs(g.values[0] - 2 * np.pi * np.cos(2 * np.pi * X))) < 1e-12


def test_gradient_matches_finite_differences_second_order():
    # oracle: central differences of the analytic field at shrinking h
    fn = lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x)
    spectral = gradient(Field(GRID, fn(X))).values[0]
    errs = []
    for h in (1e-3, 5e-4, 2.5e-4):
        fd = (fn(X + h) - fn(X - h)) / (2 * h)
        errs.append(np.max(np.abs(spectral - fd)))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert rate1 == pytest.approx(2.0, abs=0.1)
    assert rate2 == pytest.approx(2.0, abs=0.1)
    expected = 2 * np.pi * np.cos(2 * np.pi * X) - 1.8 * np.pi * np.sin(6 * np.pi * X)
    assert np.max(np.abs(spectral - expected)) < 1e-11


def test_divergence_analytic_and_mean_free():
    const = VectorField(GRID, np.ones((1, GRID.num_nodes)))
    assert np.max(np.abs(divergence(const).values)) == 0.0
    f = VectorField(GRID, np.sin(2 * np.pi * X)[None, :])
    expected = 2 * np.pi * np.cos(2 * np.pi * X)
    assert np.max(np.abs(divergence(f).values - expected)) < 1e-12
    rng = np.random.default_rng(0)
    anyf = VectorField(GRID, rng.normal(size=(1, GRID.num_nodes)))
    assert abs(integrate(divergence(anyf))) < 1e-13


def test_component_grid_mismatch_rejected():
    other = PeriodicGrid(1, 32)
    with pytest.raises(ValueError):
        VectorField.from_components(
            [Field.constant(GRID, 1.0), Field.constant(other, 1.0)]
        )


def test_summation_by_parts():
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = band_limited(GRID, rng, k_max=10)
        g = band_limited(GRID, rng, k_max=10)
        F = VectorField(GRID, g.values[None, :])
        lhs = integrate(Field(GRID, f.values * divergence(F).values))
        rhs = -integrate(Field(GRID, gradient(f).values[0] * F.values[0]))
        scale = np.max(np.abs(f.values)) * np.max(np.abs(F.values)) + 1.0
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_laplacian_eigenfunction_and_composition():
    assert np.max(np.abs(laplacian(Field.constant(GRID, 2.0)).values)) == 0.0
    f = Field(GRID, np.cos(2 * np.pi * X))
    expected = -4 * np.pi**2 * np.cos(2 * np.pi * X)
    assert np.max(np.abs(laplacian(f).values - expected)) < 1e-11
    rng = np.random.default_rng(3)
    g = band_limited(GRID, rng, k_max=12)
    direct = laplacian(g).values
    composed = divergence(gradient(g)).values
    assert np.max(np.abs(direct - composed)) <= 1e-12 * np.max(np.abs(direct))


def test_nonfinite_input_rejected():
    bad = Field(GRID, np.ones(GRID.num_nodes))
    bad.values[3] = np.nan
    with pytest.raises(ValueError):
        gradient(bad)
    with pytest.raises(ValueError):
        laplacian(bad)


def test_integrate_exact_values():
    assert integrate(Field.constant(GRID, 1.0)) == pytest.approx(1.0, abs=1e-15)
    assert integrate(Field(GRID, np.sin(2 * np.pi * X))) == pytest.approx(0.0, abs=1e-15)
    assert integrate(Field(GRID, np.sin(2 * np.pi * X) ** 2)) == pytest.approx(0.5, abs=1e-14)


def test_heat_step_steady_state_and_decay():
    const = Field.constant(GRID, 1.0)
    assert np.max(np.abs(heat_step(const, 0.1).values - 1.0)) < 1e-14
    f = Field(GRID, np.cos(2 * np.pi * X))
    out = heat_step(f, 0.1)
    factor = np.exp(-4 * np.pi**2 * 0.1)
    assert np.max(np.abs(out.values - factor * np.cos(2 * np.pi * X))) < 1e-14
    with pytest.raises(ValueError):
        heat_step(f, -0.01)


def test_heat_step_conserves_mass_and_positivity():
    rng = np.random.default_rng(11)
    for dt in (1e-5, 1e-3, 0.1):
        g = band_limited(GRID, rng, k_max=8, amp=0.5)
        f = Field(GRID, g.values**2)  # nonnegative band-limited data
        out = heat_step(f, dt)
        assert integrate(out) == pytest.approx(integrate(f), abs=1e-13)
        assert np.min(out.values) >= -1e-12


def test_heat_smoothing_norm_uniform_and_monotone():
    horizon = 0.3
    const = Field.constant(GRID, 1.0)
    val = heat_smoothing_norm(const, 0.0, horizon, q=1.2)
    assert val == pytest.approx(horizon, rel=1e-12)

    bump_fn = lambda x: np.exp(8.0 * np.cos(2 * np.pi * x))
    bump = Field(GRID, bump_fn(X))
    bump = Field(GRID, bump.values / integrate(bump))
    v0 = heat_smoothing_norm(bump, 0.0, horizon, q=1.2)
    v1 = heat_smoothing_norm(bump, 0.1, horizon, q=1.2)
    assert np.isfinite(v0) and v0 > v1 > 0.0

    fine = PeriodicGrid(1, 128)
    xf = fine.coordinates()[0]
    bump_f = Field(fine, bump_fn(xf))
    bump_f = Field(fine, bump_f.values / integrate(bump_f))
    vf = heat_smoothing_norm(bump_f, 0.0, horizon, q=1.2)
    assert abs(vf - v0) < 1e-6

    with pytest.raises(ValueError):
        heat_smoothing_norm(const, 0.0, horizon, q=0.9)
    with pytest.raises(ValueError):
        heat_smoothing_norm(Field.constant(GRID, -1.0), 0.0, horizon, q=1.2)


def test_fourier_interpolate_band_limited_exact():
    fn = lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x) - 0.2 * np.sin(6 * np.pi * x)
    coarse = Field(GRID, fn(X))
    fine = fourier_interpolate(coarse, 128)
    xf = fine.grid.coordinates()[0]
    assert np.max(np.abs(fine.values - fn(xf))) < 1e-12


def test_two_dimensional_operators():
    grid = PeriodicGrid(2, 16)
    xx, yy = grid.coordinates()
    f = Field(grid, (np.sin(2 * np.pi * xx) * np.cos(4 * np.pi * yy)).ravel())
    g = gradient(f)
    gx = 2 * np.pi * np.cos(2 * np.pi * xx) * np.cos(4 * np.pi * yy)
    gy = -4 * np.pi * np.sin(2 * np.pi * xx) * np.sin(4 * np.pi * yy)
    assert np.max(np.abs(g.values[0] - gx.ravel())) < 1e-12
    assert np.max(np.abs(g.values[1] - gy.ravel())) < 1e-12
    lap = laplacian(f)
    expected = -(4 * np.pi**2 + 16 * np.pi**2) * f.values
    assert np.max(np.abs(lap.values - expected)) < 1e-10
    # interpolation consistency in 2d
    fine = fourier_interpolate(f, 32)
    xf, yf = fine.grid.coordinates()
    target = np.sin(2 * np.pi * xf) * np.cos(4 * np.pi * yf)
    assert np.max(np.abs(fine.values - target.ravel())) < 1e-12


# ---------------------------------------------------------------------------
# half-spectrum kernels against a full complex-FFT reference
# ---------------------------------------------------------------------------


class ComplexReference:
    """Gradient, divergence and Laplacian of (K, N**d) stacks through the full
    complex fftn, with the Nyquist mode of every first derivative dropped."""

    def __init__(self, grid):
        n = grid.points_per_dim
        w = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
        d1 = w.copy()
        d1[n // 2] = 0.0
        if grid.dim == 1:
            self.deriv, self.ksq = [d1], w**2
        else:
            self.deriv = [d1[:, None], d1[None, :]]
            self.ksq = w[:, None] ** 2 + w[None, :] ** 2
        self.grid = grid
        self.axes = tuple(range(-grid.dim, 0))

    def _spec(self, values):
        return np.fft.fftn(values.reshape(values.shape[:-1] + self.grid.shape), axes=self.axes)

    def _back(self, spec, shape):
        return np.fft.ifftn(spec, axes=self.axes).real.reshape(shape)

    def grad(self, values):
        spec = self._spec(values)
        return np.stack([self._back(1j * d * spec, values.shape) for d in self.deriv])

    def div(self, comps):
        acc = sum(1j * d * self._spec(c) for d, c in zip(self.deriv, comps))
        return self._back(acc, comps.shape[1:])

    def lap(self, values):
        return self._back(-self.ksq * self._spec(values), values.shape)


def rough_stack(grid, rng, k_slices):
    """White noise plus an explicit Nyquist mode: nothing is band-limited."""
    nyquist = np.cos(np.pi * grid.points_per_dim * sum(grid.coordinates())).ravel()
    return rng.normal(size=(k_slices, grid.num_nodes)) + nyquist


def rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)], ids=["d1", "d2"])
def test_half_spectrum_stacks_match_complex_reference(dim, n):
    grid = PeriodicGrid(dim, n)
    ref = ComplexReference(grid)
    rng = np.random.default_rng(17)
    vals = rough_stack(grid, rng, 9)
    comps = np.stack([rough_stack(grid, rng, 9) for _ in range(dim)])

    assert rel_err(_grad_stack(vals, grid), ref.grad(vals)) <= 1e-12
    assert rel_err(_div_stack(comps, grid), ref.div(comps)) <= 1e-12
    assert rel_err(_lap_stack(vals, grid), ref.lap(vals)) <= 1e-12
    grad_lap = _grad_lap_stack(vals, grid)
    assert rel_err(grad_lap[:dim], ref.grad(vals)) <= 1e-12
    assert rel_err(grad_lap[dim], ref.lap(vals)) <= 1e-12
    stack = np.concatenate([comps, vals[None]])
    assert rel_err(_div_lap_stack(stack, grid), ref.div(comps) + ref.lap(vals)) <= 1e-12
    # a single field (no batch axis) takes the same path
    assert rel_err(_grad_stack(vals[0], grid), ref.grad(vals[:1])[:, 0]) <= 1e-12


@pytest.mark.parametrize("dim, n", [(1, 32), (2, 16)], ids=["d1", "d2"])
def test_apply_L_matches_complex_reference_composition(dim, n):
    problem = make_problem(n=n, n_t=8, dim=dim)
    grid, time, alpha = problem.grid, problem.time, problem.alpha
    k, dt = time.num_slices, time.dt
    lam = LambdaData.from_problem(problem, 0.3)
    ref = ComplexReference(grid)
    rng = np.random.default_rng(5)
    u = 0.01 * rough_stack(grid, rng, k)
    m = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=(k, grid.num_nodes))
    v, f = rough_stack(grid, rng, k), rough_stack(grid, rng, k)
    base = SolutionPair(SpaceTimeField(grid, time, u), SpaceTimeField(grid, time, m))
    direction = Perturbation(SpaceTimeField(grid, time, v), SpaceTimeField(grid, time, f))
    got = apply_L(problem, lam, base, direction)

    # the linearization written out with the reference operators
    ham, b = lam.hamiltonian, lam.b_values[:, None, :]
    q = ref.grad(u) / m**alpha
    dp_h, h = ham.grad(q), ham.value(q)
    a_c, b_c = ham.hess_coeffs(q)
    dv = ref.grad(v)
    hess_dv = a_c * dv + b_c * np.sum(q * dv, axis=0) * q
    hess_q = (a_c + b_c * np.sum(q * q, axis=0)) * q
    flux = (dp_h - alpha * hess_q + b) * f + m ** (1.0 - alpha) * hess_dv
    zero_u = alpha * m ** (alpha - 1.0) * (h - np.sum(q * dp_h, axis=0)) - lam.potential_dz(m)
    fp = f.copy()
    fp[1:] = (f[1:] - f[:-1]) / dt - ref.lap(f)[1:] - ref.div(flux)[1:]
    hjb = v.copy()
    spatial = -ref.lap(v) + zero_u * f + np.sum((dp_h + b) * dv, axis=0)
    hjb[:-1] = (v[:-1] - v[1:]) / dt + spatial[:-1]

    assert rel_err(got.fp.values, fp) <= 1e-12
    assert rel_err(got.hjb.values, hjb) <= 1e-12
