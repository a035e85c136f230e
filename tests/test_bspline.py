import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bgrecon.bspline import CubicBSplineBasis, delta_moments, interpolate
from bgrecon.grid import SampledFunction, UniformGrid


@pytest.fixture
def basis():
    return CubicBSplineBasis(UniformGrid(10))


def spline(basis, j, t):
    """Closed-form S_j(t): the cardinal cubic B-spline at u = t / h - j,
    (4 - 6 u^2 + 3 |u|^3) / 6 on |u| <= 1 and (2 - |u|)^3 / 6 on
    1 <= |u| <= 2, scaled by 6/4 to 1 at u = 0."""
    u = np.abs(np.asarray(t, dtype=float) / basis.grid.h - j)
    outer = np.where(u <= 2, (2 - u) ** 3 / 4, 0.0)
    return np.where(u <= 1, 1 - 1.5 * u**2 + 0.75 * u**3, outer)


def test_center_and_neighbor_node_values(basis):
    h = basis.grid.h
    for j in (2, 5, 9):
        tj = j * h
        center, left, right = basis.values(np.array([tj, tj - h, tj + h]))[j]
        assert center == pytest.approx(1.0)
        assert left == pytest.approx(0.25)
        assert right == pytest.approx(0.25)


def test_support_is_two_cells_each_side(basis):
    h = basis.grid.h
    j = 5
    tj = j * h
    offsets = np.array([-2.0, 2.0, -2.5, 2.5, -1.5])
    edge_l, edge_r, out_l, out_r, inside = basis.values(tj + offsets * h)[j]
    assert edge_l == pytest.approx(0.0, abs=1e-15)
    assert edge_r == pytest.approx(0.0, abs=1e-15)
    assert out_l == 0.0
    assert out_r == 0.0
    assert inside > 0.0


def test_partition_sums_at_interior_nodes(basis):
    # 1 + 1/4 + 1/4 from the three splines covering an interior node
    vals = basis.node_values()
    sums = vals.sum(axis=0)
    for k in range(2, basis.size - 1):
        assert sums[k] == pytest.approx(1.5)


def test_eval_combination_matches_manual_sum(basis):
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(basis.size)
    t = np.linspace(0, 1, 57)
    manual = sum(coeffs[j] * spline(basis, j, t) for j in range(basis.size))
    np.testing.assert_allclose(basis.eval_combination(coeffs, t), manual)


def test_delta_moments_are_spline_values(basis):
    t0 = 0.47
    m = delta_moments(basis, t0)
    assert m.shape == (basis.size,)
    for j in range(basis.size):
        assert m[j] == pytest.approx(spline(basis, j, t0))
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
    mat = basis.values(basis.grid.nodes[:n]).T
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                assert mat[i, j] == pytest.approx(0.0, abs=1e-14)


@given(
    st.integers(1, 40),
    st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=30),
)
def test_values_match_closed_form_whatever_the_shape(n, points):
    # the closed form rounds differently (by at most 6e-15 on a dense
    # sweep of N = 1..40), so it is matched to 1e-14; a column does not
    # depend on the other points, bit for bit
    basis = CubicBSplineBasis(UniformGrid(n))
    t = np.asarray(points)
    mat = basis.values(t)
    assert mat.shape == (n, t.size)
    for j in range(n):
        np.testing.assert_allclose(mat[j], spline(basis, j, t), rtol=0, atol=1e-14)
    for k, point in enumerate(points):
        assert np.array_equal(mat[:, k], basis.values(np.array([point]))[:, 0])


def test_node_values_are_cached_read_only_per_basis():
    # a basis computes its node values once, the matrix values() gives
    basis = CubicBSplineBasis(UniformGrid(11))
    first = basis.node_values()
    assert basis.node_values() is first
    assert not first.flags.writeable
    assert np.array_equal(first, basis.values(basis.grid.nodes))
