import math
import re

import numpy as np
import pytest

from mixdiv import (
    EllipsoidBody,
    ball,
    body_densities,
    ith_mixed_affine_surface_area,
    make_generator,
    mixed_affine_surface_area,
    sphere_grid,
)
from mixdiv.errors import DimensionMismatch, MixdivError, UnsupportedDimension
from mixdiv.geometry import curvature_values, support_values

QUARTER_POWER = make_generator("power", alpha=0.25)


def _rel_err(a, b):
    return abs(a - b) / abs(b)


def test_circle_grid_resolution_four():
    grid = sphere_grid(2, 4)
    assert np.allclose(grid.weights, math.pi / 2.0)
    assert grid.weights.sum() == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_sphere_grid_weight_sums():
    assert sphere_grid(2, 64).weights.sum() == pytest.approx(2 * math.pi, rel=1e-12)
    assert sphere_grid(3, 32).weights.sum() == pytest.approx(4 * math.pi, rel=1e-12)


def test_grid_weights_are_the_spaces_read_only_array():
    grid = sphere_grid(3, 8)
    assert grid.weights is grid.space.weights
    with pytest.raises(ValueError):
        grid.weights[0] = 99.0
    assert grid.space.weights[0] == grid.weights[0] != 99.0


def _raw_nodes(dimension, resolution):
    """The grid's nodes before normalization, built as sphere_grid builds them."""
    if dimension == 2:
        theta = 2.0 * math.pi * np.arange(resolution) / resolution
        return np.column_stack([np.cos(theta), np.sin(theta)])
    x, _ = np.polynomial.legendre.leggauss(resolution)
    phi = 2.0 * math.pi * np.arange(2 * resolution) / (2 * resolution)
    sin_polar = np.sqrt(1.0 - x**2)
    return np.column_stack([np.outer(sin_polar, np.cos(phi)).ravel(),
                            np.outer(sin_polar, np.sin(phi)).ravel(),
                            np.repeat(x, 2 * resolution)])


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("resolution", [4, 5, 17, 64, 129, 256])
def test_grid_nodes_match_linalg_norm_bit_for_bit(dimension, resolution):
    raw = _raw_nodes(dimension, resolution)
    want = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    assert np.array_equal(sphere_grid(dimension, resolution).nodes, want)


def test_sphere_grid_nodes_are_unit():
    for dim in (2, 3):
        grid = sphere_grid(dim, 16)
        norms = np.linalg.norm(grid.nodes, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-14


def test_sphere_grid_rejects_dimension():
    with pytest.raises(UnsupportedDimension):
        sphere_grid(4, 16)
    with pytest.raises(UnsupportedDimension):
        sphere_grid(1, 16)


def test_sphere_grid_rejects_tiny_resolution():
    with pytest.raises(MixdivError):
        sphere_grid(2, 2)


@pytest.mark.parametrize("dimension, resolution", [(3, 1449), (2, 2**22 + 1)])
def test_sphere_grid_rejects_more_than_max_nodes(dimension, resolution):
    with pytest.raises(MixdivError, match="at most 4194304"):
        sphere_grid(dimension, resolution)


def test_ellipsoid_validation():
    with pytest.raises(MixdivError):
        EllipsoidBody(semi_axes=(1.0, 0.0))
    with pytest.raises(MixdivError):
        EllipsoidBody(semi_axes=())
    # numeric strings, booleans and integers beyond float range are not numbers
    for axes in (("2", True), (10**400, 1, 1)):
        with pytest.raises(MixdivError, match="must be a finite number"):
            EllipsoidBody(semi_axes=axes)


@pytest.mark.parametrize("axes", [(1e200, 1.0, 1.0), (1e300, 1e300, 1e300), (1e-120, 1e-120)])
def test_ellipsoid_beyond_float_range_is_typed_and_named(axes):
    with pytest.raises(MixdivError, match=re.escape(repr(axes))):
        EllipsoidBody(semi_axes=axes)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axes", [(1e50, 1e50, 1e50), (1e-50, 1e-50, 1e-50), (1e60, 1e-60, 1.0)])
def test_extreme_ellipsoid_within_float_range_has_normal_densities(axes):
    grid = sphere_grid(3, 8)
    for density in body_densities(EllipsoidBody(semi_axes=axes), grid):
        assert np.all(density.values >= np.finfo(float).tiny)


def test_ball_boundary_data():
    grid = sphere_grid(3, 8)
    b = ball(2.0, 3)
    h = support_values(b, grid)
    f = curvature_values(b, grid)
    assert np.allclose(h, 2.0)
    assert np.allclose(f, 4.0)  # r**(n-1)
    p, q = body_densities(b, grid)
    assert np.allclose(p.values, 2.0**-3)
    assert np.allclose(q.values, 2.0**3)
    assert not p.prob_certified and not q.prob_certified


def test_unit_ball_densities_are_one():
    grid = sphere_grid(3, 8)
    p, q = body_densities(ball(1.0, 3), grid)
    assert np.allclose(p.values, 1.0)
    assert np.allclose(q.values, 1.0)


def test_ellipsoid_boundary_data_along_axis():
    grid = sphere_grid(3, 8)
    body = EllipsoidBody(semi_axes=(1.0, 2.0, 3.0))
    # evaluate the closed forms directly at u = e1
    u = np.array([[1.0, 0.0, 0.0]])

    class _G:  # minimal stand-in grid for the node-wise formulas
        dimension = 3
        nodes = u

    assert support_values(body, _G) == pytest.approx(1.0)
    assert curvature_values(body, _G) == pytest.approx(36.0)


def test_dimension_mismatch():
    grid = sphere_grid(3, 8)
    with pytest.raises(DimensionMismatch):
        body_densities(ball(1.0, 2), grid)
    with pytest.raises(DimensionMismatch):
        mixed_affine_surface_area([ball(1.0, 3)] * 2, [QUARTER_POWER] * 2, grid)
    with pytest.raises(DimensionMismatch, match="2 generators for 3 bodies"):
        mixed_affine_surface_area([ball(1.0, 3)] * 3, [QUARTER_POWER] * 2, grid)
    with pytest.raises(DimensionMismatch):
        ith_mixed_affine_surface_area(
            ball(1.0, 3), ball(2.0, 3), [QUARTER_POWER], 1.0, grid
        )


def test_unit_ball_gives_sphere_measure():
    grid = sphere_grid(3)
    for g in (QUARTER_POWER, make_generator("sqrt")):
        v = mixed_affine_surface_area([ball(1.0, 3)] * 3, [g] * 3, grid)
        assert _rel_err(v, 4.0 * math.pi) <= 1e-12


def test_ball_affine_surface_area_closed_form():
    grid = sphere_grid(3)
    for r in (0.5, 1.0, 2.0, 3.5):
        v = mixed_affine_surface_area([ball(r, 3)] * 3, [QUARTER_POWER] * 3, grid)
        assert _rel_err(v, 4.0 * math.pi * r**1.5) <= 1e-12, r


def test_circle_affine_surface_area_closed_form():
    # dimension 2: the integrand reduces to f_K**(2/3) = r**(2/3)
    grid = sphere_grid(2)
    third = make_generator("power", alpha=1.0 / 3.0)
    v = mixed_affine_surface_area([ball(2.0, 2)] * 2, [third] * 2, grid)
    assert _rel_err(v, 2.0 * math.pi * 2.0 ** (2.0 / 3.0)) <= 1e-12


def test_ellipsoid_closed_form_and_refinement():
    body = EllipsoidBody(semi_axes=(1.0, 2.0, 3.0))
    exact = 4.0 * math.pi * math.sqrt(6.0)
    errors = []
    for res in (8, 16, 32, 64):
        v = mixed_affine_surface_area(
            [body] * 3, [QUARTER_POWER] * 3, sphere_grid(3, res)
        )
        errors.append(_rel_err(v, exact))
    # refinement confirms the closed form: errors fall fast and monotonically
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-6


def test_ellipsoid_default_resolution_accuracy():
    body = EllipsoidBody(semi_axes=(1.0, 2.0, 3.0))
    v = mixed_affine_surface_area([body] * 3, [QUARTER_POWER] * 3, sphere_grid(3))
    assert _rel_err(v, 4.0 * math.pi * math.sqrt(6.0)) <= 1e-6


def test_ith_endpoints_match_single_body():
    grid = sphere_grid(3)
    b1, b2 = ball(1.0, 3), ball(2.0, 3)
    gens = [QUARTER_POWER, QUARTER_POWER]
    v0 = ith_mixed_affine_surface_area(b1, b2, gens, 0.0, grid)
    v3 = ith_mixed_affine_surface_area(b1, b2, gens, 3.0, grid)
    single1 = mixed_affine_surface_area([b1] * 3, [QUARTER_POWER] * 3, grid)
    single2 = mixed_affine_surface_area([b2] * 3, [QUARTER_POWER] * 3, grid)
    assert _rel_err(v0, single2) <= 1e-12
    assert _rel_err(v3, single1) <= 1e-12


def test_ith_ball_interpolation_closed_form():
    grid = sphere_grid(3)
    v = ith_mixed_affine_surface_area(
        ball(1.0, 3), ball(2.0, 3), [QUARTER_POWER, QUARTER_POWER], 1.5, grid
    )
    assert _rel_err(v, 4.0 * math.pi * 2.0**0.75) <= 1e-12
