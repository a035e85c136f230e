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
    # points are np.linspace's) and not for N = 25 and 50; both stay
    # within the dense trapezoid rule's error
    x_fn, nu, exact = CLOSED_FORMS[case]
    op = make_op(n, nu=nu)
    y = forward_data_exact(op, x_fn, m=4096)
    closed = exact(op.grid.nodes[1:])
    assert np.max(np.abs(y - closed)) <= 1e-7 * np.max(np.abs(closed))


def test_forward_data_exact_rejects_no_subintervals():
    with pytest.raises(ValueError):
        forward_data_exact(make_op(4), x_b, m=0)


def _replaced(t, j, value):
    t = t.copy()
    t[j] = value
    return t


@pytest.mark.parametrize(
    "nodes, m",
    [
        pytest.param(lambda t: t[[0, 2, 5]], 64, id="subset"),
        pytest.param(lambda t: t[::-1], 64, id="permutation"),
        pytest.param(lambda t: _replaced(t, 3, t[2]), 64, id="duplicate"),
        pytest.param(lambda t: np.r_[0.0, t], 64, id="leading-zero"),
        pytest.param(lambda t: _replaced(t, 4, np.nextafter(t[4], 1.0)), 64, id="off-grid"),
        pytest.param(lambda t: _replaced(t, 7, 1.25), 64, id="above-one"),
        pytest.param(lambda t: _replaced(t, 0, -1 / 8), 64, id="below-zero"),
        pytest.param(lambda t: _replaced(t, 7, np.nan), 64, id="nan"),
        pytest.param(lambda t: _replaced(t, 7, np.inf), 64, id="inf"),
        pytest.param(lambda t: _replaced(t, 0, -np.inf), 64, id="minus-inf"),
        pytest.param(lambda t: UniformGrid(16).nodes[1:], 64, id="wrong-length"),
        pytest.param(lambda t: None, 2**50, id="n-m-2**53"),
    ],
)
def test_forward_data_exact_rejects_nodes_it_cannot_integrate(nodes, m):
    # only the measurement nodes i / 8, i = 1 ... 8, in order, are
    # integrated, and at N * m = 2**53 the keys k * i are no longer exact
    op = make_op(8)
    calls = []
    with pytest.raises(ValueError):
        forward_data_exact(
            op, lambda t: calls.append(t) or 1.0, nodes(op.grid.nodes[1:]), m=m
        )
    assert calls == []


def test_forward_data_exact_takes_the_measurement_nodes_in_any_form():
    op = make_op(8, nu=0.3)
    fmap = DiscreteForwardMap(op)
    y = forward_data_exact(op, x_b, None, m=64)
    assert np.array_equal(forward_data_exact(op, x_b, fmap.nodes, m=64), y)
    assert np.array_equal(forward_data_exact(op, x_b, fmap.nodes.tolist(), m=64), y)


def _dense_points(n, i, m):
    """The node t_i = i / n's dense points fl(k * i / (n * m)),
    k = 0 ... m."""
    return np.array([float(Fraction(k * i, n * m)) for k in range(m + 1)])


def _linspace_points(n, i, m):
    return np.linspace(0.0, i / n, m + 1)


def _forward_data_exact_loop(op, x_fn, m=4096, points=_dense_points):
    """Reference: the per-node loop that hands x_fn numpy.float64 points,
    on the grid rule's dense points or on np.linspace's."""
    n = op.grid.n
    out = np.zeros(n)
    for j, t in enumerate(op.grid.nodes[1:]):
        s = points(n, j + 1, m)
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


@pytest.mark.parametrize("x_fn", [x_a, x_b, x_c, x_sq])
@pytest.mark.parametrize("m", [8 * 16, 4096])
def test_forward_data_exact_at_nu_zero_matches_loop_bit_for_bit(x_fn, m):
    # at nu = 0 the blocks skip the quadratic integrand, which the loop
    # still adds as 0 * x_rev * x
    op = make_op(16, nu=0.0)
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
    # x(t_i - s_k) is read as x(s_{m-k}): that point is the exact
    # reflection i / N - k * i / (N * m) rounded once, which np.linspace's
    # k * fl(t_i / m) is not on every node. With x the identity, kernel 1
    # and nu = 0 the integrand rows of one full call are the arguments
    # x_fn received at each node's dense points.
    grid = UniformGrid(n)
    op = QuadraticVolterraOperator(SampledFunction(grid, np.ones(n + 1)), 0.0)
    with mock.patch.object(np, "trapezoid", wraps=np.trapezoid) as trapezoid:
        forward_data_exact(op, lambda t: t, m=m)
    rows = np.concatenate([c.args[0] for c in trapezoid.call_args_list])
    assert rows.shape == (n, m + 1)
    linspace_exact = True
    for i, args in enumerate(rows.tolist(), start=1):
        reflected = [float(Fraction(i, n) - Fraction(k * i, n * m)) for k in range(m + 1)]
        assert args[::-1] == reflected
        linspace_exact &= _linspace_points(n, i, m)[::-1].tolist() == reflected
    assert not linspace_exact


def _expected_calls(op, m):
    """x_fn calls of forward_data_exact: one per distinct key k * i,
    k = 0 ... m, i = 1 ... N."""
    n = op.grid.n
    return len(set().union(*(range(0, m * i + 1, i) for i in range(1, n + 1))))


def _check_calls(op, x_fn, nodes, m):
    """forward_data_exact equals the loop oracle bit for bit, calls x_fn
    with Python floats as often as expected and never twice with one
    argument, and fills a key table of N * m + 1 entries; returns the
    call count."""
    args = []
    tables = []
    key_table = volterra._key_table

    def counted(t):
        args.append(t)
        return x_fn(t)

    def kept(*a):
        tables.append(key_table(*a))
        return tables[-1]

    with mock.patch.object(volterra, "_key_table", kept):
        y = forward_data_exact(op, counted, nodes, m=m)
    assert np.array_equal(y, _forward_data_exact_loop(op, x_fn, m=m))
    assert len(args) == _expected_calls(op, m)
    assert len(set(args)) == len(args)
    assert all(type(t) is float for t in args)
    assert [len(table) for table in tables] == [op.grid.n * m + 1]
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
    """Operator, branchy callable, m and the measurement nodes t_1 ... t_N:
    None, the forward map's array or the same nodes as a list."""
    n = draw(sizes)
    op = make_op(n, nu=draw(st.floats(0.0, 1.0)))
    x_fn = draw(branchy_callables())
    m = draw(st.sampled_from([1, 2, 3, 7, 8 * n, 8 * n + 1, 4096]))
    nodes = DiscreteForwardMap(op).nodes
    nodes = draw(st.sampled_from([None, nodes, nodes.tolist()]))
    return op, x_fn, m, nodes


@settings(max_examples=40)
@given(grid_node_cases())
def test_forward_data_exact_matches_loop_for_branchy_callables(case):
    op, x_fn, m, nodes = case
    _check_calls(op, x_fn, nodes, m)


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
            _forward_data_exact_loop(op, x_fn, m=m, points=_linspace_points),
        )


def test_forward_data_exact_matches_loop_across_blocks():
    # at m = 320 a block holds 25 of the 40 measurement nodes, so the
    # nodes' gathers from the key table fall in two blocks
    op = make_op(40, nu=0.3)
    m = 320
    assert volterra._BLOCK_POINTS // (m + 1) == 25
    _check_calls(op, x_b, None, m)


@pytest.mark.parametrize(
    "n, m, calls", [(12, 96, 559), (64, 4096, 107_007)], ids=["None", "N64-m4096"]
)
def test_forward_data_exact_calls_x_with_python_floats(n, m, calls):
    # one call per distinct key k * i: 559 for the 1,164 dense points at
    # N = 12, m = 96, and 107,007 for the 262,208 at N = 64, m = 4096
    op = make_op(n, nu=0.2)
    assert _check_calls(op, x_b, None, m) == calls


@pytest.mark.parametrize(
    "n, m, calls",
    [
        # one subinterval: keys 0 and 1, the table's every entry
        (1, 1, 2),
        # one node: keys 0 ... 4
        (1, 4, 5),
        # two nodes: keys 0 and 1 of node 1 and 0 and 2 of node 2
        (2, 1, 3),
    ],
    ids=["one-subinterval", "one-node", "two-nodes"],
)
def test_forward_data_exact_key_table_edges(n, m, calls):
    op = make_op(n, nu=0.3)
    assert _check_calls(op, x_b, None, m) == calls


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


@pytest.mark.parametrize("n", [1, 2, 7, 25])
def test_weights_integrate_each_hat_up_to_each_node(n):
    # with kernel 1 and nu = 0, D is the trapezoid weight matrix: W[i - 1, k]
    # is the integral of the hat at s_k over [0, t_i], exactly 0 beyond t_i
    grid = UniformGrid(n)
    op = QuadraticVolterraOperator(SampledFunction(grid, np.ones(n + 1)), 0.0)
    fmap = DiscreteForwardMap(op)
    w = linearization_matrix(fmap, op.kernel)
    hats = [SampledFunction(grid, e) for e in np.eye(n + 1)]
    direct = [[quad_weighted_integral(f, 0.0, t) for f in hats] for t in fmap.nodes]
    np.testing.assert_allclose(w, direct, rtol=0, atol=1e-15)
    assert np.all(w[np.triu_indices(n, 2, n + 1)] == 0.0)


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


@given(linearizations())
def test_forward_data_is_the_linearization_at_nu_zero(case):
    # Ax = dA(x)x - nu A1(x, x), and at nu = 0 the quadratic term is a
    # vector of zeros, so the data are D x bit for bit
    fmap, x, _ = case
    linear = DiscreteForwardMap(QuadraticVolterraOperator(fmap.op.kernel, 0.0))
    assert np.array_equal(
        forward_data(linear, x), linearization_matrix(linear, x) @ x.values
    )


@given(linearizations())
def test_linearization_at_nu_zero_is_the_full_formula(case):
    # at nu = 0 linearization_matrix skips 2 nu x0(lags), a term of zeros
    fmap, x, _ = case
    linear = DiscreteForwardMap(QuadraticVolterraOperator(fmap.op.kernel, 0.0))
    lags = linear.lags
    full = linear.op.grid.trapezoid_weights * (
        linear.op.kernel(lags) + 2 * linear.op.nu * x(lags)
    )
    assert np.array_equal(linearization_matrix(linear, x), full)


def test_quadratic_data_at_nu_zero_does_not_read_x():
    fmap = DiscreteForwardMap(make_op(12, nu=0.0))
    x = mock.Mock(side_effect=AssertionError("x evaluated"))
    data = volterra.quadratic_data(fmap, x)
    assert np.array_equal(data, np.zeros(12)) and not np.signbit(data).any()
    assert x.mock_calls == []
    assert "lags" not in vars(fmap)


def test_per_grid_arrays_are_cached_read_only():
    fmap = DiscreteForwardMap(make_op(9, nu=0.2))
    grid = fmap.op.grid
    for first, again in [
        (fmap.lags, fmap.lags),
        (grid.trapezoid_weights, grid.trapezoid_weights),
    ]:
        assert first is again
        assert not first.flags.writeable
    # the products built from them are the caller's own
    assert linearization_matrix(fmap, fmap.op.kernel).flags.writeable


def test_operators_on_one_grid_multiply_by_its_one_trapezoid_weights():
    # both weighted matrices of every operator on a grid read the grid's
    # cached W: with W replaced by a marker they are products with it
    grid = UniformGrid(9)
    marker = np.arange(90.0).reshape(grid.trapezoid_weights.shape)
    vars(grid)["trapezoid_weights"] = marker
    x = SampledFunction(grid, np.cos(grid.nodes))
    for kernel, nu in [(grid.nodes.copy(), 0.0), (np.ones(10), 0.3)]:
        fmap = DiscreteForwardMap(QuadraticVolterraOperator(SampledFunction(grid, kernel), nu))
        lags = fmap.lags
        assert np.array_equal(
            linearization_matrix(fmap, x), marker * (fmap.op.kernel(lags) + 2 * nu * x(lags))
        )
        assert np.array_equal(
            volterra.quadratic_data(fmap, x), (marker * (nu * x(lags))) @ x.values
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
