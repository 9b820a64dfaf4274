"""Grid, field, and quadrature-norm behavior."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdeconv import (
    Field,
    dense_matrices,
    h1_seminorm,
    inner_product,
    l2_norm,
    make_grid,
    neg_laplacian,
    quadrature_weights,
    sample_function,
    write_field_csv,
    zero_field,
)


def test_make_grid_reference_spacing():
    grid = make_grid(1, (0.0, 2.0), 1000)
    assert grid.h == (0.002,)
    assert grid.interior_count == 999


def test_make_grid_smallest_legal():
    grid = make_grid(1, (0.0, 1.0), 2)
    assert grid.interior_shape == (1,)
    assert grid.axis_nodes(0).tolist() == [0.5]


def test_make_grid_2d_square():
    grid = make_grid(2, ((0.0, 2.0), (0.0, 2.0)), 60)
    assert grid.interior_shape == (59, 59)
    assert grid.interior_count == 59 * 59
    # shared-bounds shorthand builds the same grid
    assert make_grid(2, (0.0, 2.0), 60) == grid


@pytest.mark.parametrize("dim,bounds,n", [
    (1, (0.0, 1.0), 1),
    (1, (1.0, 1.0), 4),
    (1, (2.0, 0.0), 4),
    (3, (0.0, 1.0), 4),
    (1, ((0.0, 1.0), (0.0, 2.0)), (4, 5)),
    (2, ((0.0, 1.0),), (4,)),
])
def test_make_grid_rejects_bad_input(dim, bounds, n):
    with pytest.raises(ValueError):
        make_grid(dim, bounds, n)


def test_sample_zero_function():
    grid = make_grid(1, (0.0, 1.0), 8)
    f = sample_function(grid, lambda x: 0.0 * x)
    assert not f.values.any()


def test_sample_sine_small_grid():
    grid = make_grid(1, (0.0, 2.0), 4)
    f = sample_function(grid, lambda x: np.sin(np.pi * x))
    assert f.values == pytest.approx([1.0, 0.0, -1.0], abs=1e-15)


def test_sample_scalar_callable_fallback():
    import math

    grid = make_grid(2, (0.0, 1.0), 4)
    f = sample_function(grid, lambda x, y: math.sin(math.pi * x) * y)
    xs = grid.axis_nodes(0)
    ys = grid.axis_nodes(1)
    expected = np.outer(np.sin(np.pi * xs), ys)
    assert f.values == pytest.approx(expected)


def test_field_shape_validation_and_immutability():
    grid = make_grid(1, (0.0, 1.0), 8)
    with pytest.raises(ValueError):
        Field(grid, np.zeros(3))
    f = Field(grid, np.arange(7, dtype=float))
    with pytest.raises(ValueError):
        f.values[0] = 99.0
    g = f + f - f
    assert g.values == pytest.approx(f.values)
    assert (2.0 * f).values == pytest.approx(2 * f.values)
    assert (-f).values == pytest.approx(-f.values)


def test_field_arithmetic_rejects_grid_mismatch():
    f = zero_field(make_grid(1, (0.0, 1.0), 8))
    g = zero_field(make_grid(1, (0.0, 1.0), 16))
    with pytest.raises(ValueError):
        f + g


def test_l2_norm_zero_field():
    assert l2_norm(zero_field(make_grid(1, (0.0, 1.0), 10))) == 0.0


def test_l2_norm_sine_matches_integral():
    # int_0^2 sin(pi x)^2 dx = 1 exactly
    grid = make_grid(1, (0.0, 2.0), 1000)
    f = sample_function(grid, lambda x: np.sin(np.pi * x))
    assert abs(l2_norm(f) - 1.0) < 1e-6
    assert abs(l2_norm(f, "simpson") - 1.0) < 1e-9


def test_simpson_requires_even_intervals():
    grid = make_grid(1, (0.0, 1.0), 9)
    with pytest.raises(ValueError):
        l2_norm(zero_field(grid), "simpson")


def test_unknown_quadrature_rejected():
    grid = make_grid(1, (0.0, 1.0), 8)
    with pytest.raises(ValueError):
        quadrature_weights(grid, "gauss")


def test_inner_product_definition_and_symmetry():
    rng = np.random.default_rng(7)
    grid = make_grid(2, (0.0, 1.0), 8)
    f = Field(grid, rng.standard_normal(grid.interior_shape))
    g = Field(grid, rng.standard_normal(grid.interior_shape))
    for quad in ("trapezoid", "simpson"):
        assert inner_product(f, f, quad) == pytest.approx(l2_norm(f, quad) ** 2, rel=1e-14)
        assert inner_product(f, g, quad) == pytest.approx(inner_product(g, f, quad), rel=1e-14)
    with pytest.raises(ValueError):
        inner_product(f, zero_field(make_grid(2, (0.0, 1.0), 10)))


def test_axis_weights_are_cached_and_read_only():
    grid = make_grid(1, (0.0, 1.0), 8)
    for quad in ("trapezoid", "simpson"):
        w = quadrature_weights(grid, quad)
        assert quadrature_weights(grid, quad) is w
        with pytest.raises(ValueError):
            w[0] = 0.0


def test_trapezoid_weights_are_uniform():
    grid = make_grid(2, ((0.0, 1.0), (0.0, 2.0)), (5, 4))
    w = quadrature_weights(grid)
    assert w.shape == (4, 3)
    assert w == pytest.approx(np.full((4, 3), 0.2 * 0.5))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.lists(st.integers(2, 24), min_size=1, max_size=2),
    a=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    length=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
)
def test_h1_seminorm_matches_laplacian_pairing(seed, n, a, length):
    # with trapezoid weights: |f|_1^2 == (-lap f, f) exactly, on 1D and on
    # 2D grids with unequal intervals and bounds per axis
    grid = make_grid(len(n), [(lo, lo + span) for lo, span, _ in zip(a, length, n)], n)
    f = Field(grid, np.random.default_rng(seed).standard_normal(grid.interior_shape))
    lap_f = neg_laplacian(f)
    dense = dense_matrices(grid, 0.1)[0] @ f.values.ravel()
    assert np.linalg.norm(lap_f.values.ravel() - dense) <= 1e-12 * np.linalg.norm(dense)
    assert h1_seminorm(f) ** 2 == pytest.approx(inner_product(lap_f, f), rel=1e-12)


def test_h1_seminorm_eigenmode():
    grid = make_grid(1, (0.0, 1.0), 64)
    h = grid.h[0]
    k = 3
    f = sample_function(grid, lambda x: np.sin(k * np.pi * x))
    lam = 4.0 / h**2 * np.sin(k * np.pi * h / 2.0) ** 2
    assert h1_seminorm(f) == pytest.approx(np.sqrt(lam) * l2_norm(f), rel=1e-12)


def reference_field_csv(field):
    """The field CSV as a csv.writer loop over the nodes writes it."""
    grid = field.grid
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    if grid.dim == 1:
        writer.writerow(["i", "x", "value"])
        for i, (x, v) in enumerate(zip(grid.axis_nodes(0), field.values), start=1):
            writer.writerow([i, format(x, ".16e"), format(v, ".16e")])
    else:
        writer.writerow(["i", "j", "x", "y", "value"])
        for i, x in enumerate(grid.axis_nodes(0), start=1):
            for j, y in enumerate(grid.axis_nodes(1), start=1):
                writer.writerow([i, j, format(x, ".16e"), format(y, ".16e"),
                                 format(field.values[i - 1, j - 1], ".16e")])
    return buffer.getvalue().encode("utf-8")


def assert_field_csv_bytes(path, field):
    data = path.read_bytes()
    assert data == reference_field_csv(field)
    rows = field.grid.interior_count + 1
    assert data.count(b"\r\n") == data.count(b"\n") == rows
    assert b"-0.0000000000000000e+00" in data


def test_write_field_csv_1d(tmp_path):
    grid = make_grid(1, (0.0, 2.0), 4)
    f = sample_function(grid, lambda x: np.sin(np.pi * x))
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,x,value"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(0.5)
    assert float(first[2]) == pytest.approx(1.0)
    write_field_csv(Field(grid, [0.25, -0.0, -1e-300]), path)
    assert_field_csv_bytes(path, Field(grid, [0.25, -0.0, -1e-300]))


def test_write_field_csv_2d(tmp_path):
    grid = make_grid(2, (0.0, 1.0), 3)
    f = sample_function(grid, lambda x, y: x + 10 * y)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,x,y,value"
    assert len(lines) == 1 + 4
    row = lines[2].split(",")  # i=1, j=2
    assert row[:2] == ["1", "2"]
    assert float(row[4]) == pytest.approx(1.0 / 3.0 + 10 * 2.0 / 3.0)
    # anisotropic: unequal intervals and bounds per axis, rows in (i, j) order
    grid = make_grid(2, ((0.0, 2.0), (-1.0, 0.5)), (5, 3))
    values = np.random.default_rng(5).standard_normal(grid.interior_shape)
    values[1, 0] = -0.0
    write_field_csv(Field(grid, values), path)
    assert_field_csv_bytes(path, Field(grid, values))
    assert path.read_bytes().split(b"\r\n")[1].startswith(b"1,1,4.0000000000000002e-01,")
