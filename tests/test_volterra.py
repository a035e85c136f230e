from fractions import Fraction
from unittest import mock

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


def _table_cut(op, x_fn, nodes, m):
    """forward_data_exact's y, and the cut of the key table it filled
    (its largest key)."""
    with mock.patch.object(volterra, "_key_table", wraps=volterra._key_table) as table:
        y = forward_data_exact(op, x_fn, nodes, m=m)
    return y, table.call_args.args[-1]


def _ramp(t):
    return np.maximum(t - 0.5, 0.0)


# (Ax)(t) for kernel t in closed form: the linear part is the second
# antiderivative of x (x_a = s/2 + (s - 1/2)_+ / 2, x_b = 2s - 4 (s - 1/2)_+),
# and x_sq's autoconvolution is t^5/30.
CLOSED_FORMS = {
    "x_a": (x_a, 0.0, lambda t: t**3 / 12 + _ramp(t) ** 3 / 12),
    "x_b": (x_b, 0.0, lambda t: t**3 / 3 - 2 * _ramp(t) ** 3 / 3),
    "x_sq": (x_sq, 0.0, lambda t: t**4 / 12),
    "x_sq-nu0.5": (x_sq, 0.5, lambda t: t**4 / 12 + 0.5 * t**5 / 30),
}


@pytest.mark.parametrize("case", CLOSED_FORMS)
@pytest.mark.parametrize("n", [25, 32, 50, 64])
def test_forward_data_exact_against_closed_forms_on_both_paths(case, n):
    # at m = 4096, N * m is a power of two for N = 32 and 64 (the dense
    # points are np.linspace's) and not for N = 25 and 50; every grid
    # node takes the key table, and all stay within the dense trapezoid
    # rule's error
    x_fn, nu, exact = CLOSED_FORMS[case]
    op = make_op(n, nu=nu)
    y, cut = _table_cut(op, x_fn, None, 4096)
    assert cut == 4096 * n // 2
    closed = exact(op.grid.nodes[1:])
    assert np.max(np.abs(y - closed)) <= 1e-7 * np.max(np.abs(closed))


def test_forward_data_exact_rejects_no_subintervals():
    with pytest.raises(ValueError):
        forward_data_exact(make_op(4), x_b, m=0)


@pytest.mark.parametrize(
    "node, m",
    [(0.3, 64), (1.25, 64), (-1 / 8, 64), (np.nan, 64), (np.inf, 64), (1.0, 2**50)],
    ids=["off-grid", "above-one", "below-zero", "nan", "inf", "n-m-2**53"],
)
def test_forward_data_exact_rejects_nodes_it_cannot_integrate(node, m):
    # only the nodes i / 8, 0 <= i <= 8, are integrated exactly: a node
    # beyond 1 would read the kernel clamped at 1 (t = 1.25 gives 0.74997
    # for x = 1, not 0.78125), and at N * m = 2**53 the keys k * i are no
    # longer exact. A NaN must not reach an integer cast, whose warning
    # the suite raises as an error
    op = make_op(8)
    calls = []
    with pytest.raises(ValueError):
        forward_data_exact(op, lambda t: calls.append(t) or 1.0, [0.5, node], m=m)
    assert calls == []


def _grid_index(n, t):
    """Exact oracle of the grid index: the i, 0 <= i <= n, with
    i / n == t."""
    i = round(Fraction(float(t)) * n)
    assert 0 <= i <= n and float(Fraction(i, n)) == t
    return i


def _dense_points(n, t, m):
    """A grid node t = i / n's dense points fl(k * i / (n * m)),
    k = 0 ... m."""
    i = _grid_index(n, t)
    return np.array([float(Fraction(k * i, n * m)) for k in range(m + 1)])


def _linspace_points(n, t, m):
    return np.linspace(0.0, t, m + 1)


def _forward_data_exact_loop(op, x_fn, nodes=None, m=4096, points=_dense_points):
    """Reference: the per-node loop that hands x_fn numpy.float64 points,
    on the grid rule's dense points or on np.linspace's."""
    if nodes is None:
        nodes = op.grid.nodes[1:]
    out = np.zeros(len(nodes))
    for j, t in enumerate(nodes):
        s = points(op.grid.n, t, m)
        x_s = np.asarray([x_fn(v) for v in s])
        x_rev = x_s[::-1]
        integrand = op.kernel(t - s) * x_s + op.nu * x_rev * x_s
        out[j] = np.trapezoid(integrand, s)
    return out


@pytest.mark.parametrize("x_fn", [x_a, x_b, x_c, x_sq])
@pytest.mark.parametrize("m", [8 * 16, 4096])
def test_forward_data_exact_matches_loop_bit_for_bit(x_fn, m):
    op = make_op(16, nu=0.3)
    assert np.array_equal(
        forward_data_exact(op, x_fn, m=m), _forward_data_exact_loop(op, x_fn, m=m)
    )


@pytest.mark.parametrize("x_fn", [x_a, x_c])
@pytest.mark.parametrize("n, m", [(1, 8), (8, 64), (32, 4096), (64, 4096)])
def test_forward_data_exact_keeps_linspace_points_where_n_m_is_dyadic(x_fn, n, m):
    # fl(k * i / (N * m)) = k * fl((i / N) / m) when N * m is a power of two
    op = make_op(n, nu=0.3)
    assert np.array_equal(
        forward_data_exact(op, x_fn, m=m),
        _forward_data_exact_loop(op, x_fn, m=m, points=_linspace_points),
    )


@pytest.mark.parametrize("x_fn", [x_a, x_b, x_sq])
@pytest.mark.parametrize("n, m", [(12, 96), (25, 200), (60, 480), (25, 4096)])
def test_forward_data_exact_near_linspace_loop_where_n_m_is_not_dyadic(x_fn, n, m):
    # a dense point moves by at most two ulps from np.linspace's. Not for
    # the step x_c: at N = 60, m = 480 the points k * i / (N * m) = 1/4
    # and 3/4 are now exact, where np.linspace's lay an ulp off its jumps
    op = make_op(n, nu=0.3)
    y = forward_data_exact(op, x_fn, m=m)
    old = _forward_data_exact_loop(op, x_fn, m=m, points=_linspace_points)
    assert np.all(np.abs(y - old) <= 1e-15 * np.abs(old))


@pytest.mark.parametrize("n, m", [(12, 96), (25, 200), (60, 480)])
def test_forward_data_exact_grid_points_reflect_exactly(n, m):
    # x(t - s_k) is read as x(s_{m-k}): on a grid node t = i / N that
    # point is the exact reflection i / N - k * i / (N * m) rounded once,
    # which np.linspace's k * fl(t / m) is not on every node
    op = make_op(n)
    linspace_exact = True
    for i in range(1, n + 1):
        args = []
        forward_data_exact(op, lambda t: args.append(t) or t, [i / n], m=m)
        s = sorted(args)
        assert len(s) == m + 1 and s[-1] == i / n
        reflected = [float(Fraction(i, n) - Fraction(k * i, n * m)) for k in range(m + 1)]
        assert s[::-1] == reflected
        linspace_exact &= _linspace_points(n, i / n, m)[::-1].tolist() == reflected
    assert not linspace_exact


def _expected_calls(op, nodes, m):
    """x_fn calls of forward_data_exact: one per distinct key k * i at or
    below the cut and one per point above it; the cut is half the
    largest key m * max(i), but the table holds at most half of the
    dense points."""
    if nodes is None:
        nodes = op.grid.nodes[1:]
    index = [_grid_index(op.grid.n, t) for t in nodes]
    cut = min(m * max(index) // 2, len(nodes) * (m + 1) // 2 - 1)
    keys = set()
    calls = 0
    for i in index:
        node_keys = np.arange(m + 1) * i
        keys.update(node_keys[node_keys <= cut].tolist())
        calls += int(np.sum(node_keys > cut))
    return len(keys) + calls


def _check_calls(op, x_fn, nodes, m):
    """forward_data_exact equals the loop oracle bit for bit, calls x_fn
    with Python floats as often as expected, and keeps its key table
    within half of the dense points; returns the call count."""
    args = []

    def counted(t):
        args.append(t)
        return x_fn(t)

    y, cut = _table_cut(op, counted, nodes, m)
    assert np.array_equal(y, _forward_data_exact_loop(op, x_fn, nodes, m=m))
    assert len(args) == _expected_calls(op, nodes, m)
    assert all(type(t) is float for t in args)
    assert 2 * (cut + 1) <= len(y) * (m + 1)
    return len(args)


@st.composite
def branchy_callables(draw):
    """Scalar piecewise-linear callable with if branches."""
    k1, k2 = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2)))
    v0, v1, v2 = draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))

    def x_fn(t):
        if t < k1:
            return v0 + (v1 - v0) * t
        if t < k2:
            return v1 - v2 * (t - k1)
        return v2 * t

    return x_fn


DYADIC_N = [2**p for p in range(6)]


@st.composite
def grid_node_cases(draw, sizes=st.integers(1, 12) | st.sampled_from(DYADIC_N)):
    """Operator, branchy callable, m and measurement nodes: None for the
    grid nodes t_1 ... t_N, else grid nodes i / N with some dropped, with
    duplicates and 0.0, in any order."""
    n = draw(sizes)
    op = make_op(n, nu=draw(st.floats(0.0, 1.0)))
    x_fn = draw(branchy_callables())
    m = draw(st.sampled_from([1, 2, 3, 7, 8 * n, 8 * n + 1, 4096]))
    dropped = draw(st.sets(st.integers(1, n), max_size=n - 1))
    i = [j for j in range(1, n + 1) if j not in dropped]
    i += draw(st.lists(st.integers(1, n), max_size=4))
    nodes = [j / n for j in i] + [0.0] * draw(st.integers(0, 2))
    nodes = draw(st.none() | st.permutations(nodes).map(np.asarray))
    return op, x_fn, m, nodes


@settings(max_examples=40)
@given(grid_node_cases())
def test_forward_data_exact_matches_loop_for_branchy_callables(case):
    op, x_fn, m, nodes = case
    _check_calls(op, x_fn, nodes, m)


@settings(max_examples=40)
@given(grid_node_cases())
def test_forward_data_exact_node_value_ignores_other_nodes(case):
    op, x_fn, m, nodes = case
    if nodes is None:
        nodes = op.grid.nodes[1:]
    alone = [forward_data_exact(op, x_fn, nodes[j : j + 1], m=m) for j in range(len(nodes))]
    assert np.array_equal(forward_data_exact(op, x_fn, nodes, m=m), np.concatenate(alone))


@settings(max_examples=40)
@given(grid_node_cases(st.sampled_from(DYADIC_N)))
def test_forward_data_exact_key_table_on_dyadic_nodes(case):
    # with N = 2**p, and m a power of two too, the dense points are
    # np.linspace's
    op, x_fn, m, nodes = case
    _check_calls(op, x_fn, nodes, m)
    if m & (m - 1) == 0:
        assert np.array_equal(
            forward_data_exact(op, x_fn, nodes, m=m),
            _forward_data_exact_loop(op, x_fn, nodes, m=m, points=_linspace_points),
        )


@pytest.mark.parametrize("zero_node", [False, True])
def test_forward_data_exact_matches_loop_across_blocks(zero_node):
    # at m = 320 a block holds 25 of the 40 grid nodes, so the rows that
    # read the key table fall in two blocks; a 0.0 node comes first
    op = make_op(40, nu=0.3)
    nodes = op.grid.nodes[int(not zero_node) :]
    m = 320
    assert volterra._BLOCK_POINTS // (m + 1) == 25
    _check_calls(op, x_b, nodes, m)


@pytest.mark.parametrize(
    "n, m, calls", [(12, 96, 601), (64, 4096, 118_424)], ids=["None", "N64-m4096"]
)
def test_forward_data_exact_calls_x_with_python_floats(n, m, calls):
    # N = 12, m = 96: the table holds the keys up to 576 (t = 1/2) that
    # some node reads, once each. At N = 64, m = 4096 the table serves
    # every point up to t = 1/2 once.
    op = make_op(n, nu=0.2)
    assert _check_calls(op, x_b, None, m) == calls


@pytest.mark.parametrize(
    "nodes, m, cut",
    [
        # a 0.0 node is the grid node i = 0: every point is key 0, read
        # from the table beside the keys of 1/4 up to the cut
        ([0.0, 0.25, 0.0], 4, 2),
        # 0.0 alone: the table is key 0, and x is called once
        ([0.0], 4, 0),
        # one subinterval: the table of at most half the 2 dense points
        # is key 0, and the last point is called
        ([1.0], 1, 0),
    ],
    ids=["zero-node", "zero-only", "one-subinterval"],
)
def test_forward_data_exact_key_table_edges(nodes, m, cut):
    op = make_op(4, nu=0.3)
    nodes = np.asarray(nodes)
    _check_calls(op, x_b, nodes, m)
    assert _table_cut(op, x_b, nodes, m)[1] == cut


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
