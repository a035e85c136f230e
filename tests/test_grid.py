import numpy as np
import pytest

from bgrecon.grid import (
    SampledFunction,
    UniformGrid,
    noise_direction,
    quad_weighted_integral,
)


def test_grid_nodes_and_spacing():
    grid = UniformGrid(4)
    assert grid.h == 0.25
    np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_nodes_are_cached_read_only():
    grid = UniformGrid(6)
    assert grid.nodes is grid.nodes
    assert not grid.nodes.flags.writeable
    np.testing.assert_array_equal(grid.nodes, np.arange(7) / 6)


def test_grid_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        UniformGrid(0)


def test_sampled_function_shape_check():
    grid = UniformGrid(5)
    with pytest.raises(ValueError):
        SampledFunction(grid, np.zeros(5))
    with pytest.raises(ValueError):
        SampledFunction(grid, np.full(6, np.nan))


def test_sampled_function_interpolates_and_clamps():
    grid = UniformGrid(10)
    f = SampledFunction.from_callable(grid, lambda t: 3 * t)
    assert f(0.05) == pytest.approx(0.15)
    # arguments outside [0,1] are clamped to the endpoint values
    assert f(-0.3) == pytest.approx(0.0)
    assert f(1.7) == pytest.approx(3.0)


def test_quad_exact_for_piecewise_linear():
    grid = UniformGrid(8)
    f = SampledFunction.from_callable(grid, lambda t: 2 * t + 1)
    assert quad_weighted_integral(f, 0.0, 1.0) == pytest.approx(2.0, abs=1e-14)
    # off-grid endpoints: integral of 2t+1 over [0.1, 0.6]
    assert quad_weighted_integral(f, 0.1, 0.6) == pytest.approx(
        0.6**2 + 0.6 - (0.1**2 + 0.1), abs=1e-14
    )


def test_quad_degenerate_and_invalid_interval():
    grid = UniformGrid(4)
    f = SampledFunction.from_callable(grid, lambda t: t)
    assert quad_weighted_integral(f, 0.3, 0.3) == 0.0
    with pytest.raises(ValueError):
        quad_weighted_integral(f, 0.7, 0.2)
    with pytest.raises(ValueError):
        quad_weighted_integral(f, -0.1, 0.5)


def test_quad_second_order_for_smooth_integrand():
    errs = []
    for n in (16, 32, 64):
        f = SampledFunction.from_callable(UniformGrid(n), lambda t: np.sin(3 * t))
        exact = (1 - np.cos(3.0)) / 3
        errs.append(abs(quad_weighted_integral(f, 0.0, 1.0) - exact))
    rate = np.log2(errs[0] / errs[1])
    assert 1.8 < rate < 2.2
    rate = np.log2(errs[1] / errs[2])
    assert 1.8 < rate < 2.2


def test_noise_direction_is_seeded_uniform_on_unit_interval():
    u = noise_direction((3, 50), seed=7)
    np.testing.assert_array_equal(u, noise_direction((3, 50), seed=7))
    assert not np.array_equal(u, noise_direction((3, 50), seed=8))
    assert u.shape == (3, 50)
    assert np.all((-1.0 <= u) & (u <= 1.0))
