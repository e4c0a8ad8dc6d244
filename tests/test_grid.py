import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from regenfv import (
    Grid,
    gradient_components,
    gradient_sq,
    integrate,
    laplacian_neumann,
)
from regenfv.grid import _axes, _cells, _face_diffs, _flat, _flux_divergence, _upwind_flux

from references import taxis_divergence


def library_taxis_divergence(g, c, s, coeff):
    """The taxis divergence as ``stepping._transport_faces`` and ``_advance``
    build it from the grid's face helpers, on flat cells: per axis the face
    differences of s times coeff, the upwind flux of c, then the divergence.
    ``coeff`` is a number or a ``(k, 1, ...)`` column. The taxis properties
    below are checked on it, and it is compared bit for bit with the
    references written without the face helpers."""
    c, s = _flat(g, c), _flat(g, s)
    if np.ndim(coeff):
        coeff = np.reshape(coeff, (-1, 1))  # a column over the flat cells

    def flux(stride, cross, inv_h):
        v = _face_diffs(s, stride, cross, inv_h)
        v *= coeff
        return _upwind_flux(v, c, stride, cross, out=v)

    return _cells(g, _flux_divergence((flux(stride, cross, inv_h), stride, inv_h)
                                      for stride, cross, inv_h in _axes(g)))


class TestGrid:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Grid((2,), (1.0,))
        with pytest.raises(ValueError):
            Grid((8, 8), (1.0,))
        with pytest.raises(ValueError):
            Grid((8,), (0.0,))

    def test_measure_and_volume(self):
        g = Grid((10, 20), (2.0, 3.0))
        assert g.measure == pytest.approx(6.0)
        assert g.cell_volume == pytest.approx(0.2 * 0.15)

    def test_field_validation(self):
        g = Grid((4,), (1.0,))
        with pytest.raises(ValueError):
            g.field(np.ones(5))
        with pytest.raises(ValueError):
            g.field(np.array([1.0, np.nan, 0.0, 0.0]))


class TestIntegrate:
    def test_constant_on_unit_square(self):
        g = Grid((16, 16), (1.0, 1.0))
        assert integrate(g, g.field(2.0)) == pytest.approx(2.0, rel=1e-14)

    def test_zero_field(self):
        g = Grid((16,), (1.0,))
        assert integrate(g, g.field(0.0)) == 0.0

    def test_single_cell_indicator(self):
        g = Grid((10,), (1.0,))
        f = np.zeros(10)
        f[3] = 1.0
        assert integrate(g, f) == pytest.approx(0.1, rel=1e-15)


class TestLaplacian:
    def test_constant_maps_to_zero(self):
        g = Grid((32,), (1.0,))
        assert np.array_equal(laplacian_neumann(g, g.field(3.7)), np.zeros(32))

    def test_cosine_eigenfunction_second_order(self):
        # cos(pi x) is an exact eigenvector of the mirrored stencil; the
        # eigenvalue error is O(h^2), so halving h divides the error by ~4.
        errs = []
        for n in (128, 256):
            g = Grid((n,), (1.0,))
            f = np.cos(np.pi * g.axis_centers(0))
            errs.append(np.max(np.abs(laplacian_neumann(g, f) + np.pi**2 * f)))
        assert errs[0] <= 10.0 * (1.0 / 128) ** 2 * np.pi**4
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)

    def test_zero_flux_summation_identity(self):
        rng = np.random.default_rng(0)
        for shape, lengths in (((64,), (1.0,)), ((12, 17), (1.0, 2.0))):
            g = Grid(shape, lengths)
            f = rng.standard_normal(shape)
            total = integrate(g, laplacian_neumann(g, f))
            assert abs(total) <= 1e-12 * np.linalg.norm(f.ravel())

    def test_2d_separable_eigenfunction(self):
        g = Grid((96, 96), (1.0, 1.0))
        x, y = g.coordinate_arrays()
        f = np.cos(np.pi * x) * np.cos(2 * np.pi * y)
        lam = np.pi**2 + (2 * np.pi) ** 2
        err = np.max(np.abs(laplacian_neumann(g, f) + lam * f))
        assert err <= 1e-2 * lam


class TestTaxisDivergence:
    def test_constant_signal_gives_zero(self):
        g = Grid((32,), (1.0,))
        rng = np.random.default_rng(1)
        c = rng.uniform(0, 1, 32)
        assert np.array_equal(library_taxis_divergence(g, c, g.field(2.0), 1.5), np.zeros(32))

    def test_reduces_to_laplacian_for_unit_density(self):
        g = Grid((256,), (1.0,))
        s = np.cos(np.pi * g.axis_centers(0))
        out = library_taxis_divergence(g, g.field(1.0), s, 1.0)
        assert np.array_equal(out, laplacian_neumann(g, s))

    def test_positivity_under_cfl_euler_step(self):
        # one forward-Euler step of dc/dt = -div(c grad s) keeps c >= 0
        rng = np.random.default_rng(2)
        g = Grid((40,), (1.0,))
        h = g.spacing[0]
        for _ in range(100):
            c = rng.uniform(0, 2, 40)
            s = rng.standard_normal(40)
            vmax = np.max(np.abs(np.diff(s))) / h
            dt = 0.9 * h / (2 * vmax)
            c_new = c - dt * library_taxis_divergence(g, c, s, 1.0)
            assert np.min(c_new) >= -1e-15

    def test_conservation(self):
        rng = np.random.default_rng(3)
        g = Grid((13, 9), (1.0, 1.5))
        c = rng.uniform(0, 1, g.shape)
        s = rng.standard_normal(g.shape)
        total = integrate(g, library_taxis_divergence(g, c, s, 0.8))
        assert abs(total) <= 1e-13

    def test_first_order_convergence_on_smooth_data(self):
        # c = 1 + 0.5 cos(pi x), s = cos(pi x):
        # div(c s') = -pi^2 cos(pi x) - (pi^2/2) cos(2 pi x)
        def error(n):
            g = Grid((n,), (1.0,))
            x = g.axis_centers(0)
            c = 1.0 + 0.5 * np.cos(np.pi * x)
            s = np.cos(np.pi * x)
            exact = -np.pi**2 * np.cos(np.pi * x) - 0.5 * np.pi**2 * np.cos(2 * np.pi * x)
            return np.max(np.abs(library_taxis_divergence(g, c, s, 1.0) - exact))

        e1, e2 = error(128), error(256)
        assert math.log2(e1 / e2) >= 0.8  # upwinding is first order


class TestGradientSq:
    def test_constant_gives_zero(self):
        g = Grid((16, 16), (1.0, 1.0))
        assert np.array_equal(gradient_sq(g, g.field(5.0)), np.zeros(g.shape))

    def test_linear_profile_interior(self):
        g = Grid((64,), (1.0,))
        gs = gradient_sq(g, g.axis_centers(0).copy())
        assert np.allclose(gs[1:-1], 1.0, rtol=0, atol=1e-13)

    def test_cosine_dirichlet_energy(self):
        # int_0^1 |d/dx cos(pi x)|^2 = pi^2/2
        g = Grid((256,), (1.0,))
        f = np.cos(np.pi * g.axis_centers(0))
        value = integrate(g, gradient_sq(g, f))
        assert value == pytest.approx(np.pi**2 / 2, abs=5.0 * (1.0 / 256) ** 2 * np.pi**2)

    def test_gradient_components_match_linear_field(self):
        g = Grid((32, 32), (1.0, 1.0))
        x, y = g.coordinate_arrays()
        gx, gy = gradient_components(g, 2.0 * x + 3.0 * y)
        assert np.allclose(gx[1:-1, :], 2.0, atol=1e-12)
        assert np.allclose(gy[:, 1:-1], 3.0, atol=1e-12)


class TestReflectionSymmetry:
    def test_operators_commute_with_axis_flips(self):
        rng = np.random.default_rng(4)
        g = Grid((24,), (1.0,))
        f = rng.standard_normal(24)
        c = rng.uniform(0, 1, 24)
        assert np.allclose(
            laplacian_neumann(g, f[::-1]), laplacian_neumann(g, f)[::-1], atol=1e-13
        )
        assert np.allclose(
            gradient_sq(g, f[::-1]), gradient_sq(g, f)[::-1], atol=1e-13
        )
        assert np.allclose(
            library_taxis_divergence(g, c[::-1], f[::-1], 1.2),
            library_taxis_divergence(g, c, f, 1.2)[::-1],
            atol=1e-13,
        )


# Densities: nonnegative, with zeros of both signs (a clamped or empty cell
# may hold -0.0, and the upwind flux carries that sign to its face).
DENSITIES = st.floats(0.0, 10.0) | st.just(-0.0)


@st.composite
def grid_and_fields(draw):
    """A 1D or 2D grid with 3-17 cells per axis (2D grids may be non-square),
    a signed field f and a nonnegative density c on it."""
    cells = tuple(draw(st.lists(st.integers(3, 17), min_size=1, max_size=2)))
    lengths = tuple(draw(st.floats(0.5, 3.0)) for _ in cells)
    values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    f = draw(arrays(np.float64, cells, elements=values))
    c = draw(arrays(np.float64, cells, elements=DENSITIES))
    return Grid(cells, lengths), f, c


@st.composite
def grid_and_stacks(draw):
    """A grid as in ``grid_and_fields``, k = 1-4 stacked signed fields and
    nonnegative densities of shape (k, *cells), and k taxis coefficients."""
    cells = tuple(draw(st.lists(st.integers(3, 17), min_size=1, max_size=2)))
    lengths = tuple(draw(st.floats(0.5, 3.0)) for _ in cells)
    k = draw(st.integers(1, 4))
    values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    f = draw(arrays(np.float64, (k, *cells), elements=values))
    c = draw(arrays(np.float64, (k, *cells), elements=DENSITIES))
    coeffs = draw(st.lists(st.floats(0.0, 5.0), min_size=k, max_size=k))
    return Grid(cells, lengths), f, c, coeffs


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_operators(g, f, c, coeff):
    """The operators written axis by axis with explicit zero boundary faces:
    (laplacian, taxis divergence, |grad|^2, gradient components)."""
    lap = tax = None
    sq, comps = [], []
    for axis, h in enumerate(g.spacing):
        inv_h = 1.0 / h
        fl, cl = np.moveaxis(f, axis, -1), np.moveaxis(c, axis, -1)  # this axis last
        pad = lambda faces: np.pad(faces, [(0, 0)] * (faces.ndim - 1) + [(1, 1)])
        back = lambda cells: np.moveaxis(cells, -1, axis)
        diffs = (fl[..., 1:] - fl[..., :-1]) * inv_h
        v = diffs * coeff
        lap_term = back(np.diff(pad(diffs)) * inv_h)
        tax_term = back(np.diff(pad(v * np.where(v > 0, cl[..., :-1], cl[..., 1:]))) * inv_h)
        lap = lap_term if lap is None else lap + lap_term
        tax = tax_term if tax is None else tax + tax_term
        for faces, out in ((diffs ** 2, sq), (diffs, comps)):
            padded = pad(faces)
            out.append(back((padded[..., 1:] + padded[..., :-1]) * 0.5))
    return lap, tax, sum(sq), tuple(comps)


class TestOperatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(grid_and_fields(), st.floats(0.0, 5.0))
    def test_flux_form_operators_integrate_to_zero(self, data, coeff):
        g, f, c = data
        scale = g.cell_volume * g.n_cells / min(g.spacing) ** 2
        lap = integrate(g, laplacian_neumann(g, f))
        assert abs(lap) <= 1e-12 * scale * (1.0 + np.max(np.abs(f)))
        tax = integrate(g, library_taxis_divergence(g, c, f, coeff))
        bound = scale * (1.0 + coeff) * (1.0 + np.max(c)) * (1.0 + np.max(np.abs(f)))
        assert abs(tax) <= 1e-12 * bound

    @settings(max_examples=60, deadline=None)
    @given(grid_and_fields(), st.floats(-10.0, 10.0))
    def test_constant_maps_to_exact_zero(self, data, value):
        g, _, c = data
        const = g.field(value)
        zero = np.zeros(g.shape)
        assert np.array_equal(laplacian_neumann(g, const), zero)
        assert np.array_equal(library_taxis_divergence(g, c, const, 1.3), zero)
        assert np.array_equal(gradient_sq(g, const), zero)
        for comp in gradient_components(g, const):
            assert np.array_equal(comp, zero)

    @settings(max_examples=60, deadline=None)
    @given(grid_and_fields(), st.integers(0, 1))
    def test_operators_commute_with_mirroring(self, data, axis):
        # exact: mirroring only negates face differences and reverses their order
        g, f, c = data
        axis = min(axis, g.dim - 1)
        flip = lambda a: np.flip(a, axis=axis)
        assert np.array_equal(laplacian_neumann(g, flip(f)), flip(laplacian_neumann(g, f)))
        assert np.array_equal(library_taxis_divergence(g, flip(c), flip(f), 0.7),
                              flip(library_taxis_divergence(g, c, f, 0.7)))
        assert np.array_equal(gradient_sq(g, flip(f)), flip(gradient_sq(g, f)))
        comps, flipped = gradient_components(g, f), gradient_components(g, flip(f))
        for a in range(g.dim):
            sign = -1.0 if a == axis else 1.0  # mirroring reverses that component
            assert np.array_equal(flipped[a], sign * flip(comps[a]))

    @settings(max_examples=60, deadline=None)
    @given(grid_and_fields(), st.floats(0.0, 5.0))
    def test_operators_equal_explicit_face_formulas(self, data, coeff):
        # bit for bit: each cell sees the same operations in the same order
        g, f, c = data
        lap, tax, sq, comps = reference_operators(g, f, c, coeff)
        assert same_bits(laplacian_neumann(g, f), lap)
        assert same_bits(library_taxis_divergence(g, c, f, coeff), tax)
        assert same_bits(taxis_divergence(g, c, f, coeff), tax)
        assert same_bits(gradient_sq(g, f), sq)
        for got, ref in zip(gradient_components(g, f), comps, strict=True):
            assert same_bits(got, ref)

    @settings(max_examples=60, deadline=None)
    @given(grid_and_stacks())
    def test_stacked_fields_equal_single_field_calls(self, data):
        # leading axes pass through: row i of a stacked call is, bit for bit,
        # the single-field call on row i with coefficient i
        g, f, c, coeffs = data
        column = np.array(coeffs).reshape((-1,) + (1,) * g.dim)
        lap = laplacian_neumann(g, f)
        tax = library_taxis_divergence(g, c, f, column)
        assert lap.shape == tax.shape == f.shape
        assert same_bits(taxis_divergence(g, c, f, column), tax)
        for i, coeff in enumerate(coeffs):
            assert same_bits(lap[i], laplacian_neumann(g, f[i]))
            assert same_bits(tax[i], taxis_divergence(g, c[i], f[i], coeff))

    def test_row_crossing_faces_hold_positive_zero(self):
        # Along the last axis of a 2D grid, faces 3 and 6 of the flat layout
        # lie between the end of one grid row and the start of the next. There
        # the face speed is +0.0, so the upwind flux takes the density of the
        # next row's first cell, -0.0, and is -0.0 until the reset; cell
        # (1, 0), whose own faces carry -0.0 fluxes too, would then come out
        # +0.0 instead of -0.0.
        g = Grid((3, 3), (1.0, 1.0))
        f = np.ones(g.shape)
        f[0, 0] = 0.0
        c = np.zeros(g.shape)
        c[1, 0] = c[1, 1] = c[2, 0] = -0.0
        tax = reference_operators(g, f, c, 1.0)[1]
        assert np.signbit(tax).tolist() == [[False] * 3, [True, False, False], [False] * 3]
        assert same_bits(library_taxis_divergence(g, c, f, 1.0), tax)
        assert same_bits(taxis_divergence(g, c, f, 1.0), tax)
