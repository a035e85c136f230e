from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bgrecon import annulus, solver
from bgrecon.bspline import CubicBSplineBasis, delta_moments, interpolate
from bgrecon.grid import SampledFunction, UniformGrid, quad_weighted_integral
from bgrecon.solver import (
    AssembledSystem,
    ErrorBudget,
    NearSingularSystemError,
    WeightVector,
    assemble_adjoint_system,
    error_budget,
    iterative_refinement,
    reconstruct_profile,
    reconstruct_value,
    solve_weights,
)
from bgrecon.volterra import (
    DiscreteForwardMap,
    QuadraticVolterraOperator,
    forward_data,
    linearization_matrix,
)


def make_setup(n=10, nu=0.0):
    grid = UniformGrid(n)
    kernel = SampledFunction(grid, grid.nodes.copy())
    op = QuadraticVolterraOperator(kernel, nu)
    return grid, CubicBSplineBasis(grid), op, DiscreteForwardMap(op)


@pytest.mark.parametrize("n", [1, 2, 7, 25])
def test_toy_matrix_entries_match_brute_force_quadrature(n):
    grid, basis, op, fmap = make_setup(n)
    x0 = op.kernel
    system = assemble_adjoint_system(op, basis, x0, np.zeros(n), fmap)
    s = grid.nodes
    for j in range(n):
        spline = SampledFunction(grid, basis.values(s)[j])
        for i, ti in enumerate(fmap.nodes):
            integrand = SampledFunction(grid, op.kernel(ti - s) * spline.values)
            direct = quad_weighted_integral(integrand, 0.0, ti)
            assert system.matrix[j, i] == pytest.approx(direct, abs=1e-10)


def test_adjoint_block_upper_band_sparsity():
    # spline j is supported on [t_{j-2}, t_{j+2}], so row j pairs to zero
    # with every data node t_i <= t_{j-2}; equivalently entry (j, i)
    # vanishes whenever i <= j - 2 (data index i maps to node t_{i+1})
    grid, basis, op, fmap = make_setup(12)
    system = assemble_adjoint_system(op, basis, op.kernel, np.zeros(12), fmap)
    for j in range(basis.size):
        for i in range(fmap.nodes.size):
            if fmap.nodes[i] <= (j - 2) * grid.h:
                assert system.matrix[j, i] == pytest.approx(0.0, abs=1e-14)


def assembled_constraint_row(op, basis, fmap):
    system = assemble_adjoint_system(op, basis, op.kernel, np.zeros(basis.size), fmap)
    return system.matrix[-1]


def test_constraint_row_vanishes_for_linear_operator():
    grid, basis, op, fmap = make_setup(8, nu=0.0)
    row = assembled_constraint_row(op, basis, fmap)
    np.testing.assert_allclose(row, 0.0, atol=1e-14)


def test_constraint_row_scales_linearly_in_nu():
    grid, basis, _, _ = make_setup(8)
    rows = []
    for nu in (0.1, 0.2):
        op = QuadraticVolterraOperator(
            SampledFunction(grid, grid.nodes.copy()), nu
        )
        rows.append(assembled_constraint_row(op, basis, DiscreteForwardMap(op)))
    np.testing.assert_allclose(2 * rows[0], rows[1], atol=1e-13)


def test_constraint_row_is_the_linearization_remainder():
    # the row is A x0 - dA(x0) x0, built without the difference
    grid, basis, op, fmap = make_setup(12, nu=0.3)
    x0 = SampledFunction.from_callable(grid, lambda t: 1 + np.sin(3 * t))
    system = assemble_adjoint_system(op, basis, x0, np.zeros(basis.size), fmap)
    remainder = forward_data(fmap, x0) - linearization_matrix(fmap, x0) @ x0.values
    np.testing.assert_allclose(system.matrix[-1], remainder, rtol=1e-13, atol=0)


def test_assembly_builds_the_weighted_kernel_once(monkeypatch):
    # one linearization matrix D serves the block; the constraint row is
    # the quadratic term alone, so no forward data are computed
    grid, basis, op, fmap = make_setup(8, nu=0.1)
    calls = {"linearization_matrix": [], "forward_data": []}
    for name, made in calls.items():
        original = getattr(solver, name)

        def counting(*args, original=original, made=made):
            made.append(args)
            return original(*args)

        monkeypatch.setattr(solver, name, counting)
    assemble_adjoint_system(op, basis, op.kernel, np.zeros(basis.size), fmap)
    assert len(calls["linearization_matrix"]) == 1
    assert calls["forward_data"] == []


def test_near_singular_block_is_rejected():
    # a zero kernel at nu = 0 makes the linearization, and so the block, 0
    grid = UniformGrid(8)
    op = QuadraticVolterraOperator(SampledFunction(grid, np.zeros(9)), 0.0)
    basis = CubicBSplineBasis(grid)
    with pytest.raises(NearSingularSystemError, match="condition inf"):
        assemble_adjoint_system(op, basis, op.kernel, np.zeros(basis.size))
    with pytest.raises(NearSingularSystemError, match="condition inf"):
        reconstruct_profile(op, basis, op.kernel, np.ones(8), [0.5])


def test_assemble_rejects_wrong_moment_count():
    grid, basis, op, fmap = make_setup(6)
    with pytest.raises(ValueError):
        assemble_adjoint_system(op, basis, op.kernel, np.zeros(5), fmap)
    with pytest.raises(ValueError):
        assemble_adjoint_system(op, basis, op.kernel, np.zeros((6, 2, 1)), fmap)


def test_assemble_takes_one_moment_column_per_target():
    grid, basis, op, fmap = make_setup(8, nu=0.3)
    targets = np.array([0.1, 0.5, 0.9])
    system = assemble_adjoint_system(
        op, basis, op.kernel, delta_moments(basis, targets), fmap
    )
    assert system.rhs.shape == (9, 3)
    for column, t0 in zip(system.rhs.T, targets):
        single = assemble_adjoint_system(
            op, basis, op.kernel, delta_moments(basis, t0), fmap
        )
        np.testing.assert_array_equal(single.matrix, system.matrix)
        np.testing.assert_array_equal(single.rhs, column)


def test_solve_weights_consistent_square_subsystem():
    rng = np.random.default_rng(1)
    n = 6
    block = rng.standard_normal((n, n)) + 3 * np.eye(n)
    rhs_top = rng.standard_normal(n)
    direct = np.linalg.solve(block, rhs_top)
    # appending the zero constraint row keeps the system consistent
    matrix = np.vstack([block, np.zeros(n)])
    system = AssembledSystem(matrix, np.concatenate([rhs_top, [0.0]]), 1.0)
    phi = solve_weights(system)
    np.testing.assert_allclose(phi.coefficients, direct, atol=1e-8)
    assert phi.residual == pytest.approx(0.0, abs=1e-10)


def test_solve_weights_zero_rhs():
    matrix = np.vstack([np.eye(4), np.ones(4)])
    system = AssembledSystem(matrix, np.zeros(5), 1.0)
    phi = solve_weights(system)
    np.testing.assert_allclose(phi.coefficients, 0.0)


def test_solve_weights_min_norm_on_rank_deficiency():
    # a hand-built rank-2 system: the weights are lstsq's minimum-norm
    # least-squares solution
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
    rhs = rng.standard_normal(5)
    expected, _, rank, _ = np.linalg.lstsq(matrix, rhs, rcond=None)
    assert rank == 2
    phi = solve_weights(AssembledSystem(matrix, rhs, 1.0))
    np.testing.assert_allclose(phi.coefficients, expected, rtol=1e-12, atol=0)


def test_weight_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        WeightVector(np.array([1.0, np.inf]))


def test_reconstruct_value_is_dot_product():
    phi = WeightVector(np.array([1.0, -2.0, 0.5]))
    assert reconstruct_value(phi, np.array([2.0, 1.0, 4.0])) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        reconstruct_value(phi, np.zeros(2))


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    st.sampled_from([0.0, 0.05]),
)
def test_profile_matches_single_target_solves(targets, nu):
    grid, basis, op, fmap = make_setup(10, nu)
    x0 = op.kernel
    x = SampledFunction.from_callable(grid, lambda t: 1 + t * t)
    y = forward_data(fmap, x)
    pairs = reconstruct_profile(op, basis, x0, y, targets, fmap)
    for t0, value in pairs:
        system = assemble_adjoint_system(op, basis, x0, delta_moments(basis, t0), fmap)
        phi = solve_weights(system)
        np.testing.assert_allclose(value, reconstruct_value(phi, y), rtol=1e-10, atol=0)


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    st.integers(0, 12),
    st.sampled_from([0.0, 0.05]),
)
def test_profile_value_independent_of_other_targets(targets, cut, nu):
    # iterative_refinement reconstructs nodes and targets in one call;
    # splitting the targets must not change a single bit
    grid, basis, op, fmap = make_setup(10, nu)
    y = forward_data(fmap, SampledFunction.from_callable(grid, lambda t: 1 + t * t))
    whole = reconstruct_profile(op, basis, op.kernel, y, targets, fmap)
    parts = reconstruct_profile(op, basis, op.kernel, y, targets[:cut], fmap)
    parts += reconstruct_profile(op, basis, op.kernel, y, targets[cut:], fmap)
    assert whole == parts


@settings(max_examples=40)
@given(
    st.integers(4, 24),
    st.integers(1, 4),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    st.sampled_from([0.0, 0.05]),
    st.data(),
)
def test_batch_rows_equal_single_calls_bit_for_bit(n, k, targets, nu, data):
    # the figures reconstruct every curve of one (N, nu) from one batch;
    # row k must give exactly the floats of a call on that row alone
    grid, basis, op, fmap = make_setup(n, nu)
    rows = data.draw(hnp.arrays(float, (k, n), elements=st.floats(-1.0, 1.0)))
    batch = reconstruct_profile(op, basis, op.kernel, rows, targets, fmap)
    assert batch == [reconstruct_profile(op, basis, op.kernel, y, targets, fmap) for y in rows]


def test_batch_of_no_targets_is_one_empty_profile_per_row():
    grid, basis, op, fmap = make_setup(6)
    assert reconstruct_profile(op, basis, op.kernel, np.ones((3, 6)), [], fmap) == [[], [], []]
    with pytest.raises(ValueError):
        reconstruct_profile(op, basis, op.kernel, np.ones((1, 3, 6)), [0.5], fmap)


def test_error_budget_triangle_identity():
    grid, basis, op, fmap = make_setup(12, nu=0.05)
    x0 = op.kernel
    x_star = SampledFunction.from_callable(grid, lambda t: t + 0.1 * np.sin(3 * t))
    t0 = 0.5
    system = assemble_adjoint_system(op, basis, x0, delta_moments(basis, t0), fmap)
    phi = solve_weights(system)
    y = forward_data(fmap, x_star)
    rng = np.random.default_rng(2)
    y_eps = y * (1 + 0.01 * rng.uniform(-1, 1, y.shape))
    mu = lambda x: float(x(t0))
    budget = error_budget(op, x_star, x0, phi, mu, y, y_eps, fmap, basis)
    recon = reconstruct_value(phi, y_eps)
    assert abs(mu(x_star) - recon) <= budget.total + 1e-10


@st.composite
def spline_cases(draw):
    """Kernel t at nu = 0 on N in [4, 200], two random spline
    coefficient vectors in [-1, 1], two scalars and targets in [0, 1]
    with t = 1 included."""
    n = draw(st.integers(4, 200))
    grid, basis, op, fmap = make_setup(n)
    coeffs = hnp.arrays(float, n, elements=st.floats(-1.0, 1.0))
    targets = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)) + [1.0]
    scalars = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    return basis, op, fmap, draw(coeffs), draw(coeffs), scalars, targets


@settings(max_examples=20)
@given(spline_cases())
def test_profile_is_exact_on_the_spline_subspace_up_to_rounding(case):
    # at nu = 0 the data of a spline are D S^T c, and block phi = S(t0)
    # makes phi . y the spline's value S(t0)^T c. Rounding in the weight
    # solve scales as eps cond(block) max|c| (measured at most 1.2 times
    # it for N <= 200), so 8 times that is the bound; a pinv perturbed
    # by a relative 1e-3 exceeds it by a factor of 6.7e6 or more. The
    # profile is linear in the data under a bound of the same form, and
    # a repeat call gives the same bits.
    basis, op, fmap, c1, c2, (a, b), targets = case
    cond = assemble_adjoint_system(op, basis, op.kernel, np.zeros(basis.size), fmap).condition
    bound = 8 * np.finfo(float).eps * cond

    def data(c):
        return forward_data(fmap, SampledFunction(op.grid, basis.eval_combination(c, op.grid.nodes)))

    def profile(y):
        return np.array([v for _, v in reconstruct_profile(op, basis, op.kernel, y, targets, fmap)])

    p1 = profile(data(c1))
    exact = basis.eval_combination(c1, np.asarray(targets))
    assert np.max(np.abs(p1 - exact)) <= bound * np.max(np.abs(c1))
    combined = profile(a * data(c1) + b * data(c2))
    deviation = np.max(np.abs(combined - (a * p1 + b * profile(data(c2)))))
    assert deviation <= bound * (abs(a) * np.max(np.abs(c1)) + abs(b) * np.max(np.abs(c2)))
    assert reconstruct_profile(op, basis, op.kernel, data(c1), targets, fmap) == list(zip(targets, p1))


# Largest |mass - 1| of the averaging kernels at the interval midpoints
# in [0.1, 0.9], per N: measured 0.0736, 0.0197 and 3.8e-4.
MIDPOINT_MASS_DEFECT = {12: 0.08, 25: 0.02, 50: 5e-4}


@pytest.mark.parametrize("n", [12, 25, 50])
def test_averaging_kernel_is_centred_inside_and_biased_at_the_right_edge(n):
    # The averaging kernel of target t0 is K = phi^T D over the grid: the
    # reconstructed value is sum_j K_j x(t_j) at nu = 0. Measured for
    # these N: at every node t0 <= 1 - h, mass and centroid are 1 and t0
    # within 2.1e-12. No basis member is centred at t = 1, so there the
    # kernel keeps mass 0.2113 with its centroid about 0.79 h inside.
    # Midpoints are not exact: inside [0.1, 0.9] the mass is off by up to
    # MIDPOINT_MASS_DEFECT and the centroid by up to 0.103 h, and at the
    # last midpoint 1 - h/2 the mass is 0.6269 with the centroid at
    # 1 - 0.8308 h, at every N.
    grid, basis, op, fmap = make_setup(n)
    t = grid.nodes
    mids = t[:-1] + grid.h / 2
    targets = np.concatenate([t, mids])
    system = assemble_adjoint_system(op, basis, op.kernel, delta_moments(basis, targets), fmap)
    kernels = solve_weights(system).coefficients.T @ linearization_matrix(fmap, op.kernel)
    mass = kernels.sum(axis=1)
    centroid = kernels @ t / mass
    edge = t.size - 1  # the target t = 1
    assert np.max(np.abs(mass[:edge] - 1)) <= 1e-11
    assert np.max(np.abs(centroid[:edge] - t[:-1])) <= 1e-11
    assert mass[edge] == pytest.approx(0.2113, abs=1e-4)
    assert (1 - centroid[edge]) / grid.h == pytest.approx(0.7887, abs=1e-4)
    inside = t.size + np.flatnonzero((mids >= 0.1) & (mids <= 0.9))
    assert np.max(np.abs(mass[inside] - 1)) <= MIDPOINT_MASS_DEFECT[n]
    assert np.max(np.abs(centroid[inside] - targets[inside])) <= 0.11 * grid.h
    assert mass[-1] == pytest.approx(0.6269, abs=1e-4)
    assert (1 - centroid[-1]) / grid.h == pytest.approx(0.8308, abs=1e-4)


def _x_b(t):
    return np.where(t <= 0.5, 2 * t, 2 - 2 * t)


# Test functions with their data at nu = 0 under the kernel t, in closed
# form, and their Lipschitz constants on [0, 1]
CLOSED_FORM_CASES = {
    "x_sq": (lambda t: t * t, lambda t: t**4 / 12, 2.0),
    "x_b": (_x_b, lambda t: t**3 / 3 - 2 / 3 * np.maximum(t - 0.5, 0) ** 3, 2.0),
}


@pytest.mark.parametrize("n", [24, 48, 96])
@pytest.mark.parametrize("case", CLOSED_FORM_CASES)
def test_exact_data_error_is_model_error_at_nodes_and_bounded_spread_at_midpoints(case, n):
    # With exact data y, the error phi . y - x*(t0) is the model term
    # phi . (y - D x*), from the trapezoid forward model, plus the spread
    # K . x* - x*(t0) of the averaging kernel K = phi^T D. At grid nodes
    # K is delta to rounding, so the error is the model term within
    # 8 eps cond(block) max|x*| (measured at most 0.13 of that). At
    # midpoints the spread obeys the a priori bound
    # Lip(x*) sum_k |K_k| |s_k - t0| + |1 - sum K| |x*(t0)|, since
    # K . x* - x*(t0) = sum_k K_k (x*(s_k) - x*(t0)) + (sum K - 1) x*(t0)
    # (measured at most 0.19 of it).
    x, y, lipschitz = CLOSED_FORM_CASES[case]
    grid, basis, op, fmap = make_setup(n)
    t = grid.nodes
    nodes = t[(t >= 0.1) & (t <= 0.9)]
    mids = t[:-1] + grid.h / 2
    mids = mids[(mids >= 0.1) & (mids <= 0.9)]
    data = y(fmap.nodes)
    system = assemble_adjoint_system(op, basis, op.kernel, delta_moments(basis, nodes), fmap)
    d = linearization_matrix(fmap, op.kernel)
    model = solve_weights(system).coefficients.T @ (data - d @ x(t))
    values = np.array([v for _, v in reconstruct_profile(op, basis, op.kernel, data, nodes, fmap)])
    scale = 8 * np.finfo(float).eps * system.condition * np.max(np.abs(x(t)))
    assert np.max(np.abs(np.abs(values - x(nodes)) - np.abs(model))) <= scale
    system = assemble_adjoint_system(op, basis, op.kernel, delta_moments(basis, mids), fmap)
    kernels = solve_weights(system).coefficients.T @ d
    spread = np.abs(kernels @ x(t) - x(mids))
    bound = lipschitz * np.sum(np.abs(kernels) * np.abs(t - mids[:, None]), axis=1)
    bound += np.abs(1 - kernels.sum(axis=1)) * np.abs(x(mids))
    assert np.all(spread <= bound)


@st.composite
def linearization_remainders(draw):
    """Operator with a sampled kernel and weight nu, sampled x* and x0, and
    a weight vector over the measurement nodes."""
    n = draw(st.integers(1, 40))
    grid = UniformGrid(n)
    values = st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1)
    sampled = values.map(lambda v: SampledFunction(grid, np.asarray(v)))
    op = QuadraticVolterraOperator(draw(sampled), draw(st.floats(0.0, 1.0)))
    w = draw(values.map(lambda v: np.asarray(v[1:])))
    return op, draw(sampled), draw(sampled), w


@given(linearization_remainders())
def test_linearization_remainder_is_exact(case):
    # A is quadratic, so A x* - A x0 - D(x0)(x* - x0) = nu A1(x* - x0),
    # with A1 the quadratic part alone (zero kernel, nu = 1); the error
    # budget's linearization term is that remainder under the weights
    op, x_star, x0, w = case
    fmap = DiscreteForwardMap(op)
    diff = SampledFunction(op.grid, x_star.values - x0.values)
    zero = SampledFunction(op.grid, np.zeros_like(diff.values))
    quadratic = op.nu * forward_data(DiscreteForwardMap(QuadraticVolterraOperator(zero, 1.0)), diff)
    remainder = (
        forward_data(fmap, x_star)
        - forward_data(fmap, x0)
        - linearization_matrix(fmap, x0) @ diff.values
    )
    np.testing.assert_allclose(remainder, quadratic, rtol=0, atol=1e-14)
    y = np.zeros(w.size)
    budget = error_budget(op, x_star, x0, WeightVector(w), lambda f: 0.0, y, y, fmap)
    assert budget.linearization_term == pytest.approx(abs(w @ quadratic), rel=0, abs=1e-12)


@given(linearization_remainders())
def test_error_budget_nu_zero_terms_are_exactly_zero(case):
    # both terms are products with the quadratic term nu A1, not
    # differences of nearly equal vectors, so at nu = 0 they are 0
    op, x_star, x0, w = case
    linear = QuadraticVolterraOperator(op.kernel, 0.0)
    y = np.zeros(w.size)
    budget = error_budget(linear, x_star, x0, WeightVector(w), lambda f: 0.0, y, y)
    assert budget.linearization_term == 0.0
    assert budget.constraint_term == 0.0


@st.composite
def budget_cases(draw):
    """Operator with kernel 1 + t and weight nu, random sampled x*, a
    smooth x0 with |x0| <= 0.3 (so the linearization's kernel
    1 + t + 2 nu x0 stays >= 0.4 and the block well conditioned), data
    noise and a target."""
    n = draw(st.integers(4, 30))
    grid = UniformGrid(n)

    def floats(bound, size):
        return st.lists(st.floats(-bound, bound), min_size=size, max_size=size).map(np.asarray)

    op = QuadraticVolterraOperator(SampledFunction(grid, 1.0 + grid.nodes), draw(st.floats(0.0, 1.0)))
    x_star = SampledFunction(grid, draw(floats(1.0, n + 1)))
    a = draw(floats(0.1, 3))
    x0 = SampledFunction(grid, a[0] + a[1] * grid.nodes + a[2] * np.sin(3 * grid.nodes))
    return op, x_star, x0, draw(floats(0.01, n)), draw(st.floats(0.1, 0.9))


@given(budget_cases())
def test_error_budget_bounds_the_reconstruction_error(case):
    # mu(x*) - phi . y_eps is the sum of the four terms' signed values,
    # so it is bounded by total up to rounding: every quantity is a dot
    # product of at most N + 1 terms, so the slack is 2 (N + 2) eps
    # times the scale S of the magnitudes involved (the measured excess
    # was at most 0.42 eps S over 3000 random draws)
    op, x_star, x0, noise, t0 = case
    fmap = DiscreteForwardMap(op)
    basis = CubicBSplineBasis(op.grid)
    phi = solve_weights(assemble_adjoint_system(op, basis, x0, delta_moments(basis, t0), fmap))
    y = forward_data(fmap, x_star)
    y_eps = y + noise
    mu = lambda f: float(f(t0))
    budget = error_budget(op, x_star, x0, phi, mu, y, y_eps, fmap)
    error = abs(mu(x_star) - reconstruct_value(phi, y_eps))
    w = np.abs(phi.coefficients)
    d = np.abs(linearization_matrix(fmap, x0))
    scale = abs(mu(x_star)) + w @ (np.abs(y_eps) + d @ np.abs(x_star.values))
    assert error <= budget.total + 2 * (op.grid.n + 2) * np.finfo(float).eps * scale


def test_error_budget_rejects_negative_terms():
    with pytest.raises(ValueError, match="constraint_term"):
        ErrorBudget(0.0, 0.0, -1.0, 0.0)
    with pytest.raises(ValueError, match="noise_term"):
        ErrorBudget(-1.0, 0.0, 0.0, 0.0)
    # a NaN term used to pass the check
    with pytest.raises(ValueError, match="noise_term"):
        ErrorBudget(np.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="adjoint_defect_term"):
        ErrorBudget(0.0, 0.0, 0.0, np.nan)


def test_error_budget_total_adds_the_terms_in_order():
    # left to right: pairwise or right-to-left sums read 0.6000000000000001
    assert ErrorBudget(0.1, 0.2, 0.3, 1e-16).total == ((0.1 + 0.2) + 0.3) + 1e-16


# Each moment entry point that takes op and fmap, with data y of x and
# the target t = 0.5
_MOMENT_ENTRY_POINTS = {
    "assemble": lambda op, basis, x, y, fmap: assemble_adjoint_system(
        op, basis, op.kernel, delta_moments(basis, 0.5), fmap
    ),
    "profile": lambda op, basis, x, y, fmap: reconstruct_profile(
        op, basis, op.kernel, y, [0.5], fmap
    ),
    "refinement": lambda op, basis, x, y, fmap: iterative_refinement(
        op, basis, op.kernel, y, [0.5], 1, fmap
    ),
    "error_budget": lambda op, basis, x, y, fmap: error_budget(
        op, x, op.kernel, WeightVector(np.zeros(y.size)), lambda f: float(f(0.5)), y, y, fmap, basis
    ),
}


@pytest.mark.parametrize("entry", _MOMENT_ENTRY_POINTS)
def test_moment_entry_points_reject_a_map_of_another_operator(entry):
    # kernel t, nu = 0, x = 1 + t^2: with the map of a 3t kernel in place
    # of op's own, the profile at t = 0.5 used to read 0.4167, not 1.2500
    grid, basis, op, fmap = make_setup(16)
    x = SampledFunction.from_callable(grid, lambda t: 1 + t * t)
    y = forward_data(fmap, x)
    call = partial(_MOMENT_ENTRY_POINTS[entry], op, basis, x, y)
    call(fmap)
    other = QuadraticVolterraOperator(SampledFunction(grid, 3 * grid.nodes), 0.0)
    with pytest.raises(ValueError, match="another operator"):
        call(DiscreteForwardMap(other))


def test_moment_data_of_the_wrong_shape_is_a_value_error_naming_the_shape():
    grid, basis, op, fmap = make_setup(8)
    with pytest.raises(ValueError, match=r"shape \(8,\) or \(K, 8\), got shape \(7,\)"):
        reconstruct_profile(op, basis, op.kernel, np.zeros(7), [0.5], fmap)
    with pytest.raises(ValueError, match=r"got shape \(3, 9\)"):
        reconstruct_profile(op, basis, op.kernel, np.zeros((3, 9)), [0.5], fmap)
    with pytest.raises(ValueError, match=r"shape \(8,\), got shape \(2, 8\)"):
        iterative_refinement(op, basis, op.kernel, np.zeros((2, 8)), [0.5], 1, fmap)


def test_iterative_refinement_rejects_bad_rounds():
    grid, basis, op, fmap = make_setup(8)
    with pytest.raises(ValueError):
        iterative_refinement(op, basis, op.kernel, np.zeros(8), [0.5], 0, fmap)


def test_iterative_refinement_stationary_for_linear_case():
    # with nu = 0 the linearization point does not matter, so round 2
    # reproduces round 1
    grid, basis, op, fmap = make_setup(10, nu=0.0)
    x = SampledFunction.from_callable(grid, lambda t: 2 * t)
    y = forward_data(fmap, x)
    profiles = iterative_refinement(op, basis, op.kernel, y, [0.5], 2, fmap)
    assert len(profiles) == 2
    assert profiles[0][0][1] == pytest.approx(profiles[1][0][1], abs=1e-7)


def _refinement_from_fresh_spline_values(op, basis, x0, y, targets, rounds):
    """iterative_refinement with its collocation matrix and its re-sampling
    evaluated afresh by basis.values at the grid nodes."""
    nodes = op.grid.nodes
    n = basis.size
    profiles, prev_vals = [], None
    for _ in range(rounds):
        pairs = reconstruct_profile(op, basis, x0, y, [*nodes, *targets])
        node_vals = np.asarray([v for _, v in pairs[: nodes.size]])
        profiles.append(pairs[nodes.size :])
        if prev_vals is not None and np.max(np.abs(node_vals - prev_vals)) < 1e-8:
            break
        prev_vals = node_vals
        coeffs = np.linalg.solve(basis.values(nodes[:n]).T, node_vals[:n])
        assert np.array_equal(interpolate(basis, SampledFunction(op.grid, node_vals)), coeffs)
        x0 = SampledFunction(op.grid, coeffs @ basis.values(nodes))
    return profiles


@pytest.mark.parametrize("nu", [0.01, 0.1])
@pytest.mark.parametrize("n", [8, 25, 32])
def test_refinement_reads_the_basis_node_values_bit_for_bit(n, nu):
    # interpolate and the re-linearization read the basis's cached node
    # values; they give the floats of fresh evaluations
    grid, basis, op, fmap = make_setup(n, nu)
    y = forward_data(fmap, SampledFunction.from_callable(grid, lambda t: t * t))
    targets = [0.25, 0.5, 0.75]
    profiles = iterative_refinement(op, basis, op.kernel, y, targets, 3, fmap)
    assert profiles == _refinement_from_fresh_spline_values(op, basis, op.kernel, y, targets, 3)


def _annulus_trace():
    g = annulus.AnnulusGrid(9, 16)
    return annulus.BoundaryTrace(g, annulus.GAMMA_R, np.zeros(g.n_half + 1))


_KERNEL = SampledFunction(UniformGrid(4), np.arange(5.0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: SampledFunction(UniformGrid(4), np.arange(5.0)),
        lambda: QuadraticVolterraOperator(_KERNEL, 0.5),
        lambda: DiscreteForwardMap(QuadraticVolterraOperator(_KERNEL, 0.5)),
        _annulus_trace,
        lambda: WeightVector(np.ones(3)),
        lambda: AssembledSystem(np.eye(2), np.ones(2), 1.0),
        lambda: annulus.KozlovMazyaResult(
            _annulus_trace(), np.zeros(2), [], True, False
        ),
    ],
    ids=[
        "SampledFunction",
        "QuadraticVolterraOperator",
        "DiscreteForwardMap",
        "BoundaryTrace",
        "WeightVector",
        "AssembledSystem",
        "KozlovMazyaResult",
    ],
)
def test_array_dataclasses_compare_by_identity(make):
    # a generated __eq__ would compare the ndarray fields and raise
    a, b = make(), make()
    assert a == a
    assert not a == b
    hash(a)
