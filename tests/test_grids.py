import numpy as np
import pytest

from mfgcon.grids import (
    PeriodicGrid,
    SpaceTimeField,
    TimeGrid,
    _div_lap_stack,
    _grad_lap_stack,
    _irfft_stack,
    _rfft_stack,
    integrate,
)

from mfgcon.hamiltonians import HamiltonianModel
from mfgcon.linearized import Perturbation, apply_L
from mfgcon.system import LambdaData, MFGProblem, Potential, SolutionPair

from conftest import band_limited, fourier_interpolate, grad_stack, make_problem

GRID = PeriodicGrid(1, 64)
X = GRID.coordinates()[0]


def grad_and_lap(values, grid=GRID):
    """(gradient components, Laplacian) of one field through the fused kernel."""
    out = _grad_lap_stack(values, grid)
    return out[: grid.dim], out[grid.dim]


def div(comps, grid=GRID):
    """Divergence of (d, N**d) components through the fused kernel, zero Laplacian part."""
    return _div_lap_stack(np.concatenate([comps, np.zeros((1, grid.num_nodes))]), grid)


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(3, 64)
    with pytest.raises(ValueError):
        PeriodicGrid(1, 48)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    assert PeriodicGrid(2, 16).num_nodes == 256
    assert PeriodicGrid(np.int64(1), np.int64(32)) == PeriodicGrid(1, 32)
    assert TimeGrid(0.05, 64).dt * 64 == pytest.approx(0.05, abs=1e-17)


@pytest.mark.parametrize("make, message", [
    (lambda: PeriodicGrid(1, 32.0), "points_per_dim must be an integer"),
    (lambda: PeriodicGrid(1.0, 32), "dim must be an integer"),
    (lambda: TimeGrid(float("nan"), 4), "horizon must be finite and positive"),
    (lambda: TimeGrid(float("inf"), 4), "horizon must be finite and positive"),
    (lambda: TimeGrid(0.05, 2.5), "steps must be an integer"),
])
def test_grids_refuse_unusable_values(make, message):
    # each used to construct (or failed on an unrelated operator), leaving a
    # grid with a NaN dt or a fractional slice count
    with pytest.raises(ValueError, match=message):
        make()


def test_grids_compare_and_hash_by_value():
    assert PeriodicGrid(2, 16) == PeriodicGrid(2, 16) != PeriodicGrid(1, 16)
    assert TimeGrid(0.05, 8) == TimeGrid(0.05, 8) != TimeGrid(0.05, 16)
    assert len({PeriodicGrid(1, 16), PeriodicGrid(1, 16), TimeGrid(0.05, 8)}) == 2
    for record in (PeriodicGrid(1, 16), TimeGrid(0.05, 8)):
        with pytest.raises(AttributeError):
            record.dim = 2


def test_gradient_constant_is_zero():
    g, _ = grad_and_lap(np.ones(GRID.num_nodes))
    assert np.max(np.abs(g)) == 0.0
    assert np.max(np.abs(grad_stack(np.ones(GRID.num_nodes), GRID))) == 0.0


def test_gradient_resolved_mode_exact():
    g, _ = grad_and_lap(np.sin(2 * np.pi * X))
    assert np.max(np.abs(g[0] - 2 * np.pi * np.cos(2 * np.pi * X))) < 1e-12


def test_gradient_matches_finite_differences_second_order():
    # oracle: central differences of the analytic field at shrinking h
    fn = lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x)
    spectral = grad_and_lap(fn(X))[0][0]
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
    assert np.max(np.abs(div(np.ones((1, GRID.num_nodes))))) == 0.0
    expected = 2 * np.pi * np.cos(2 * np.pi * X)
    assert np.max(np.abs(div(np.sin(2 * np.pi * X)[None, :]) - expected)) < 1e-12
    rng = np.random.default_rng(0)
    # the transport rows rely on it: Laplacian plus divergence is mean-free
    stack = rng.normal(size=(2, GRID.num_nodes))
    assert abs(integrate(_div_lap_stack(stack, GRID), GRID)) < 1e-13


def test_component_grid_mismatch_rejected():
    # a data field sampled on another grid is refused with the problem: a drift
    # on 64 nodes, a drift with the wrong number of components, a coupling
    # field on 64 nodes, which Potential.value would otherwise meet mid-solve,
    # and a Hamiltonian weight of 2 x 16 nodes, the node count in another shape
    problem = make_problem(n=32)
    other = PeriodicGrid(1, 64)

    def rebuilt(problem, **fields):
        return MFGProblem(**{**vars(problem), **fields})

    def weighted(problem, shape):
        return {"hamiltonian": HamiltonianModel(problem.hamiltonian.gamma, np.ones(shape))}

    wrong = [
        {"b": np.zeros((1, other.num_nodes))},
        {"b": np.zeros((2, problem.grid.num_nodes))},
        {"potential": Potential(v1=np.zeros(other.num_nodes))},
        weighted(problem, (2, 16)),
    ]
    for fields in wrong:
        with pytest.raises(ValueError, match="problem grid"):
            rebuilt(problem, **fields)
    # in d = 2 the weight holds the nodes in one axis, not in the grid's shape
    square = make_problem(n=16, dim=2)
    with pytest.raises(ValueError, match="problem grid"):
        rebuilt(square, **weighted(square, (16, 16)))
    rebuilt(square, **weighted(square, (256,)))


def test_summation_by_parts():
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = band_limited(GRID, rng, k_max=10)
        g = band_limited(GRID, rng, k_max=10)
        lhs = integrate(f * div(g[None, :]), GRID)
        rhs = -integrate(grad_and_lap(f)[0][0] * g, GRID)
        scale = np.max(np.abs(f)) * np.max(np.abs(g)) + 1.0
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_laplacian_eigenfunction_and_composition():
    assert np.max(np.abs(grad_and_lap(np.full(GRID.num_nodes, 2.0))[1])) == 0.0
    expected = -4 * np.pi**2 * np.cos(2 * np.pi * X)
    assert np.max(np.abs(grad_and_lap(np.cos(2 * np.pi * X))[1] - expected)) < 1e-11
    rng = np.random.default_rng(3)
    g = band_limited(GRID, rng, k_max=12)
    grad, direct = grad_and_lap(g)
    composed = div(grad)
    assert np.max(np.abs(direct - composed)) <= 1e-12 * np.max(np.abs(direct))


def test_integrate_exact_values():
    assert integrate(np.ones(GRID.num_nodes), GRID) == pytest.approx(1.0, abs=1e-15)
    assert integrate(np.sin(2 * np.pi * X), GRID) == pytest.approx(0.0, abs=1e-15)
    assert integrate(np.sin(2 * np.pi * X) ** 2, GRID) == pytest.approx(0.5, abs=1e-14)


def test_fourier_interpolate_band_limited_exact():
    fn = lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x) - 0.2 * np.sin(6 * np.pi * x)
    fine = fourier_interpolate(fn(X), 128, GRID)
    xf = PeriodicGrid(1, 128).coordinates()[0]
    assert np.max(np.abs(fine - fn(xf))) < 1e-12


def test_two_dimensional_operators():
    grid = PeriodicGrid(2, 16)
    xx, yy = grid.coordinates()
    f = (np.sin(2 * np.pi * xx) * np.cos(4 * np.pi * yy)).ravel()
    g, lap = grad_and_lap(f, grid)
    gx = 2 * np.pi * np.cos(2 * np.pi * xx) * np.cos(4 * np.pi * yy)
    gy = -4 * np.pi * np.sin(2 * np.pi * xx) * np.sin(4 * np.pi * yy)
    assert np.max(np.abs(g[0] - gx.ravel())) < 1e-12
    assert np.max(np.abs(g[1] - gy.ravel())) < 1e-12
    expected = -(4 * np.pi**2 + 16 * np.pi**2) * f
    assert np.max(np.abs(lap - expected)) < 1e-10
    # div grad = Laplacian, and the divergence of the gradient's rotation is zero
    assert np.max(np.abs(div(g, grid) - lap)) <= 1e-12 * np.max(np.abs(lap))
    assert np.max(np.abs(div(np.stack([-g[1], g[0]]), grid))) <= 1e-11
    # interpolation consistency in 2d
    fine = fourier_interpolate(f, 32, grid)
    xf, yf = PeriodicGrid(2, 32).coordinates()
    target = np.sin(2 * np.pi * xf) * np.cos(4 * np.pi * yf)
    assert np.max(np.abs(fine - target.ravel())) < 1e-12


# ---------------------------------------------------------------------------
# half-spectrum kernels against a full complex-FFT reference
# ---------------------------------------------------------------------------


class ComplexReference:
    """Gradient, divergence and Laplacian of (K, N**d) stacks through the full
    complex fftn, with the Nyquist mode of every first derivative dropped, and
    resampling by zero-padding the full spectrum one axis at a time."""

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

    def resample(self, values, m):
        """Zero-pad to m points per axis; each Nyquist bin splits between +-N/2."""
        n, half = self.grid.points_per_dim, self.grid.points_per_dim // 2
        spec = self._spec(values)
        for axis in self.axes:
            padded = np.zeros(spec.shape[:axis] + (m,) + spec.shape[axis:][1:], dtype=complex)
            src, dst = np.moveaxis(spec, axis, 0), np.moveaxis(padded, axis, 0)
            dst[:half] = src[:half]
            dst[m - half + 1:] = src[half + 1:]
            dst[half] = dst[m - half] = 0.5 * src[half]
            spec = padded
        out = np.fft.ifftn(spec, axes=self.axes).real * (m / n) ** self.grid.dim
        return out.reshape(values.shape[:-1] + (m**self.grid.dim,))


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

    assert rel_err(grad_stack(vals, grid), ref.grad(vals)) <= 1e-12
    grad_lap = _grad_lap_stack(vals, grid)
    assert rel_err(grad_lap[:dim], ref.grad(vals)) <= 1e-12
    assert rel_err(grad_lap[dim], ref.lap(vals)) <= 1e-12
    stack = np.concatenate([comps, vals[None]])
    assert rel_err(_div_lap_stack(stack, grid), ref.div(comps) + ref.lap(vals)) <= 1e-12
    # a single field (no batch axis) takes the same path
    assert rel_err(grad_stack(vals[0], grid), ref.grad(vals[:1])[:, 0]) <= 1e-12
    # the stack transforms are rfftn/irfftn over the grid axes, bit for bit
    axes = tuple(range(-dim, 0))
    spec = np.fft.rfftn(vals.reshape((9,) + grid.shape), axes=axes)
    assert np.array_equal(_rfft_stack(vals, grid), spec)
    out = np.empty_like(spec)
    assert _rfft_stack(vals, grid, out=out) is out and np.array_equal(out, spec)
    back = np.fft.irfftn(spec, s=grid.shape, axes=axes).reshape(vals.shape)
    assert np.array_equal(_irfft_stack(spec, grid), back)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)], ids=["d1", "d2"])
def test_fourier_interpolate_matches_complex_zero_padding(dim, n):
    grid = PeriodicGrid(dim, n)
    ref = ComplexReference(grid)
    vals = rough_stack(grid, np.random.default_rng(23), 9)
    stack = SpaceTimeField(grid, TimeGrid(1.0, 8), vals)
    for m in (2 * n, 4 * n):
        fine = fourier_interpolate(stack, m)
        assert isinstance(fine, SpaceTimeField) and fine.grid == PeriodicGrid(dim, m)
        assert fine.time == stack.time
        assert rel_err(fine.values, ref.resample(vals, m)) <= 1e-12
    # a single field's node values take the same path
    single = fourier_interpolate(vals[4], 2 * n, grid)
    assert rel_err(single, ref.resample(vals[4:5], 2 * n)[0]) <= 1e-12


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
