import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bgrecon.bspline import CubicBSplineBasis, delta_moments, interpolate
from bgrecon.grid import SampledFunction, UniformGrid


@pytest.fixture
def basis():
    return CubicBSplineBasis(UniformGrid(10))


def test_center_and_neighbor_node_values(basis):
    h = basis.grid.h
    for j in (2, 5, 9):
        tj = j * h
        assert basis.eval_spline(j, tj) == pytest.approx(1.0)
        assert basis.eval_spline(j, tj - h) == pytest.approx(0.25)
        assert basis.eval_spline(j, tj + h) == pytest.approx(0.25)


def test_support_is_two_cells_each_side(basis):
    h = basis.grid.h
    j = 5
    tj = j * h
    assert basis.eval_spline(j, tj - 2 * h) == pytest.approx(0.0, abs=1e-15)
    assert basis.eval_spline(j, tj + 2 * h) == pytest.approx(0.0, abs=1e-15)
    assert basis.eval_spline(j, tj - 2.5 * h) == 0.0
    assert basis.eval_spline(j, tj + 2.5 * h) == 0.0
    assert basis.eval_spline(j, tj - 1.5 * h) > 0.0


def test_partition_sums_at_interior_nodes(basis):
    # 1 + 1/4 + 1/4 from the three splines covering an interior node
    vals = basis.node_values()
    sums = vals.sum(axis=0)
    for k in range(2, basis.size - 1):
        assert sums[k] == pytest.approx(1.5)


def test_spline_index_out_of_range(basis):
    with pytest.raises(IndexError):
        basis.eval_spline(-1, 0.5)
    with pytest.raises(IndexError):
        basis.eval_spline(basis.size, 0.5)


def test_eval_combination_matches_manual_sum(basis):
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(basis.size)
    t = np.linspace(0, 1, 57)
    manual = sum(coeffs[j] * basis.eval_spline(j, t) for j in range(basis.size))
    np.testing.assert_allclose(basis.eval_combination(coeffs, t), manual)


def test_delta_moments_are_spline_values(basis):
    t0 = 0.47
    m = delta_moments(basis, t0)
    assert m.shape == (basis.size,)
    for j in range(basis.size):
        assert m[j] == pytest.approx(basis.eval_spline(j, t0))
    with pytest.raises(ValueError):
        delta_moments(basis, 1.2)


def test_interpolation_reproduces_spline_combinations(basis):
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(basis.size)
    vals = basis.eval_combination(coeffs, basis.grid.nodes)
    samples = SampledFunction(basis.grid, vals)
    recovered = interpolate(basis, samples)
    np.testing.assert_allclose(recovered, coeffs, atol=1e-10)


def test_interpolation_collocates_at_nodes(basis):
    samples = SampledFunction.from_callable(basis.grid, lambda t: np.sin(2 * t))
    coeffs = interpolate(basis, samples)
    nodes = basis.grid.nodes[: basis.size]
    np.testing.assert_allclose(
        basis.eval_combination(coeffs, nodes), samples.values[: basis.size], atol=1e-10
    )


def test_interpolation_grid_mismatch(basis):
    other = SampledFunction.from_callable(UniformGrid(11), lambda t: t)
    with pytest.raises(ValueError):
        interpolate(basis, other)


def test_collocation_matrix_is_tridiagonal(basis):
    n = basis.size
    nodes = basis.grid.nodes[:n]
    mat = np.stack([basis.eval_spline(j, nodes) for j in range(n)], axis=1)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                assert mat[i, j] == pytest.approx(0.0, abs=1e-14)


@given(
    st.integers(1, 40),
    st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=30),
)
def test_values_match_eval_spline_bit_for_bit(n, points):
    basis = CubicBSplineBasis(UniformGrid(n))
    t = np.asarray(points)
    mat = basis.values(t)
    assert mat.shape == (n, t.size)
    for j in range(n):
        assert np.array_equal(mat[j], basis.eval_spline(j, t))
        assert mat[j, 0] == basis.eval_spline(j, points[0])
