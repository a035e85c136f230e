import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgrecon import volterra
from bgrecon.cli import x_a, x_b, x_c, x_sq
from bgrecon.grid import SampledFunction, UniformGrid, quad_weighted_integral
from bgrecon.volterra import (
    DiscreteForwardMap,
    QuadraticVolterraOperator,
    forward_data,
    forward_data_exact,
    forward_dA,
    linearization_matrix,
)


def _apply_A(op, x, t):
    """Reference (Ax)(t), one point at a time: the grid trapezoid rule of
    quad_weighted_integral, kernel values at non-node arguments linearly
    interpolated."""
    s = op.grid.nodes
    integrand = op.kernel(t - s) * x.values + op.nu * x(t - s) * x.values
    return quad_weighted_integral(SampledFunction(op.grid, integrand), 0.0, t)


def _apply_dA(op, x, f, t):
    """Reference dA(x)f (t) = int_0^t [k(t-s) + 2 nu x(t-s)] f(s) ds by the
    same rule."""
    s = op.grid.nodes
    integrand = op.kernel(t - s) * f.values + 2 * op.nu * x(t - s) * f.values
    return quad_weighted_integral(SampledFunction(op.grid, integrand), 0.0, t)


def make_op(n=20, nu=0.0):
    grid = UniformGrid(n)
    kernel = SampledFunction(grid, grid.nodes.copy())  # x0(t) = t
    return QuadraticVolterraOperator(kernel, nu)


def test_operator_rejects_negative_nu():
    with pytest.raises(ValueError):
        make_op(nu=-0.5)


def test_forward_map_default_nodes():
    op = make_op(10)
    fmap = DiscreteForwardMap(op)
    np.testing.assert_allclose(fmap.nodes, np.arange(1, 11) / 10)


def test_linear_part_exact_for_constant_input():
    # int_0^t (t-s) ds = t^2/2; the integrand is linear in s, so the
    # trapezoid rule on grid nodes is exact at grid-node evaluation points
    op = make_op(16)
    x = SampledFunction.from_callable(op.grid, lambda t: 1.0)
    for t in (0.25, 0.5, 1.0):
        assert _apply_A(op, x, t) == pytest.approx(t**2 / 2, abs=1e-14)


def test_quadratic_part_closed_form():
    # nu * int_0^t (t-s) s ds = nu t^3/6 for x(t) = t
    op = make_op(200, nu=0.7)
    x = SampledFunction.from_callable(op.grid, lambda t: t)
    for t in (0.5, 1.0):
        expected = t**3 / 6 + 0.7 * t**3 / 6
        assert _apply_A(op, x, t) == pytest.approx(expected, rel=5e-4)


def test_forward_data_matches_pointwise_apply():
    op = make_op(12, nu=0.3)
    x = SampledFunction.from_callable(op.grid, lambda t: np.cos(t))
    fmap = DiscreteForwardMap(op)
    y = forward_data(fmap, x)
    for i, t in enumerate(fmap.nodes):
        assert y[i] == pytest.approx(_apply_A(op, x, t))


def test_forward_data_exact_against_closed_form():
    # kernel t, x(t) = 2t: int_0^t (t-s) 2s ds = t^3/3
    op = make_op(10)
    y = forward_data_exact(op, lambda t: 2 * t, m=2048)
    for i, t in enumerate(op.grid.nodes[1:]):
        assert y[i] == pytest.approx(t**3 / 3, rel=1e-6)


def test_forward_data_exact_rejects_no_subintervals():
    with pytest.raises(ValueError):
        forward_data_exact(make_op(4), x_b, m=0)


def _forward_data_exact_loop(op, x_fn, nodes=None, m=4096):
    """Reference: the per-point loop that hands x_fn numpy.float64 points."""
    if nodes is None:
        nodes = op.grid.nodes[1:]
    out = np.zeros(len(nodes))
    for i, t in enumerate(nodes):
        s = np.linspace(0.0, t, m + 1)
        x_s = np.asarray([x_fn(v) for v in s])
        x_rev = x_s[::-1]
        integrand = op.kernel(t - s) * x_s + op.nu * x_rev * x_s
        out[i] = np.trapezoid(integrand, s)
    return out


@pytest.mark.parametrize("x_fn", [x_a, x_b, x_c, x_sq])
@pytest.mark.parametrize("m", [8 * 16, 4096])
def test_forward_data_exact_matches_loop_bit_for_bit(x_fn, m):
    op = make_op(16, nu=0.3)
    assert np.array_equal(
        forward_data_exact(op, x_fn, m=m), _forward_data_exact_loop(op, x_fn, m=m)
    )


def _doubled_rows(nodes):
    """Nodes that follow a node of half their value when visited by
    binary mantissa, then exponent: equal mantissa, exponent one higher,
    mantissa not 0."""
    f, e = np.frexp(nodes)
    order = np.lexsort((e, f))
    f, e = f[order], e[order]
    return int(np.sum((f[1:] == f[:-1]) & (e[1:] == e[:-1] + 1) & (f[1:] != 0)))


def _expected_calls(op, nodes, m):
    if nodes is None:
        nodes = op.grid.nodes[1:]
    return len(nodes) * (m + 1) - _doubled_rows(nodes) * ((m + 1) // 2)


@st.composite
def piecewise_linear_cases(draw):
    """Operator, scalar piecewise-linear callable with if branches, m and
    measurement nodes: None for the grid nodes, else off-grid nodes with
    doubling chains t, 2t, 4t, duplicates and 0.0, in any order."""
    n = draw(st.integers(4, 8))
    op = make_op(n, nu=draw(st.floats(0.0, 1.0)))
    k1, k2 = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2)))
    v0, v1, v2 = draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))

    def x_fn(t):
        if t < k1:
            return v0 + (v1 - v0) * t
        if t < k2:
            return v1 - v2 * (t - k1)
        return v2 * t

    m = draw(st.sampled_from([1, 2, 3, 7, 8 * n, 8 * n + 1, 4096]))
    nodes = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6))
    chains = draw(st.lists(st.floats(1e-3, 0.25), max_size=3))
    nodes += [t * 2**j for t in chains for j in range(3)]
    nodes += draw(st.lists(st.sampled_from(nodes), max_size=3))
    nodes += [0.0] * draw(st.integers(0, 2))
    nodes = draw(st.none() | st.permutations(nodes).map(np.asarray))
    return op, x_fn, m, nodes


@settings(max_examples=40)
@given(piecewise_linear_cases())
def test_forward_data_exact_matches_loop_for_branchy_callables(case):
    op, x_fn, m, nodes = case
    args = []

    def counted(t):
        args.append(t)
        return x_fn(t)

    assert np.array_equal(
        forward_data_exact(op, counted, nodes, m=m),
        _forward_data_exact_loop(op, x_fn, nodes, m=m),
    )
    assert len(args) == _expected_calls(op, nodes, m)


@pytest.mark.parametrize("zero_node", [False, True])
def test_forward_data_exact_matches_loop_across_blocks(zero_node):
    # at m = 320 a block holds 25 of the 40 grid nodes, and the chain
    # 1/40, 2/40, ..., 32/40 crosses from the first block into the second;
    # a 0.0 node is visited first, inside the first block
    op = make_op(40, nu=0.3)
    nodes = op.grid.nodes[int(not zero_node) :]
    m = 320
    assert volterra._BLOCK_POINTS // (m + 1) == 25
    f, e = np.frexp(nodes)
    t = nodes[np.lexsort((e, f))]
    assert t[25 + zero_node] == 2 * t[24 + zero_node]
    assert np.array_equal(
        forward_data_exact(op, x_b, nodes, m=m),
        _forward_data_exact_loop(op, x_b, nodes, m=m),
    )


@pytest.mark.parametrize("m", [3, 5, 96])
def test_forward_data_exact_matches_loop_where_steps_underflow(m):
    # t/m rounds to 0 or to a subnormal step: np.linspace then takes
    # (k/m)*t, and fl(2t/m) can differ from 2 fl(t/m); x counts the
    # smallest subnormals in t, so a misplaced dense point shows in y
    op = make_op(8, nu=0.3)
    nodes = np.array([3.0, 6.0, 12.0, 1.0, 2.0, 2.0**60]) * 2.0**-1074

    def x_fn(t):
        return t * 2.0**537 * 2.0**537

    assert np.array_equal(
        forward_data_exact(op, x_fn, nodes, m=m),
        _forward_data_exact_loop(op, x_fn, nodes, m=m),
    )


@pytest.mark.parametrize(
    "n, nodes, m, calls",
    [
        (12, None, 96, 876),
        (12, np.array([0.13, 0.5, 0.91]), 96, 291),
        (64, None, 4096, 196_672),
    ],
    ids=["None", "nodes1", "N64-m4096"],
)
def test_forward_data_exact_calls_x_with_python_floats(n, nodes, m, calls):
    # one call per dense point, less the first (m + 1) // 2 points of each
    # node exactly twice another: every even grid node i/N
    op = make_op(n, nu=0.2)
    args = []

    def x_fn(t):
        args.append(t)
        return x_b(t)

    forward_data_exact(op, x_fn, nodes, m=m)
    assert len(args) == calls
    assert calls == _expected_calls(op, nodes, m)
    assert all(type(t) is float for t in args)


def test_linearization_uses_doubled_quadratic_term():
    # A(x) - dA(x)x = -nu A1(x,x), so dA carries the factor 2 on nu
    op = make_op(30, nu=0.4)
    x = SampledFunction.from_callable(op.grid, lambda t: 1 + t)
    fmap = DiscreteForwardMap(op)
    lhs = forward_data(fmap, x) - forward_dA(fmap, x, x)
    op_lin = QuadraticVolterraOperator(op.kernel, 0.0)
    pure_quad = forward_data(fmap, x) - forward_data(DiscreteForwardMap(op_lin), x)
    np.testing.assert_allclose(lhs, -pure_quad, atol=1e-12)


def test_linearization_reduces_to_operator_for_nu_zero():
    op = make_op(15, nu=0.0)
    x0 = SampledFunction.from_callable(op.grid, lambda t: t**2)
    f = SampledFunction.from_callable(op.grid, lambda t: np.sin(t))
    fmap = DiscreteForwardMap(op)
    np.testing.assert_allclose(
        forward_dA(fmap, x0, f), forward_data(fmap, f), atol=1e-14
    )


@st.composite
def linearizations(draw):
    """Operator with a random sampled kernel, its forward map and sampled
    functions x and f."""
    n = draw(st.integers(1, 40))
    grid = UniformGrid(n)
    samples = st.lists(
        st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1
    ).map(lambda v: SampledFunction(grid, np.asarray(v)))
    op = QuadraticVolterraOperator(draw(samples), draw(st.floats(0.0, 1.0)))
    return DiscreteForwardMap(op), draw(samples), draw(samples)


@given(linearizations())
def test_matrix_path_matches_scalar_reference(case):
    fmap, x, f = case
    op = fmap.op
    np.testing.assert_allclose(
        forward_data(fmap, x),
        [_apply_A(op, x, t) for t in fmap.nodes],
        rtol=0,
        atol=1e-13,
    )
    np.testing.assert_allclose(
        forward_dA(fmap, x, f),
        [_apply_dA(op, x, f, t) for t in fmap.nodes],
        rtol=0,
        atol=1e-13,
    )


@given(linearizations(), st.data())
def test_discrete_duality_is_exact(case, data):
    fmap, x, f = case
    w = np.asarray(
        data.draw(
            st.lists(
                st.floats(-1.0, 1.0), min_size=fmap.nodes.size, max_size=fmap.nodes.size
            )
        )
    )
    d = linearization_matrix(fmap, x)
    lhs = w @ forward_dA(fmap, x, f)
    assert lhs == pytest.approx((d.T @ w) @ f.values, rel=0, abs=1e-12)
