import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bgrecon import annulus as an
from bgrecon.cli import table1_rows

# the 7 valid (Gamma_r, Gamma_l, Gamma_i) boundary patterns
PATTERNS = [
    kinds
    for kinds in itertools.product((an.DIRICHLET, an.NEUMANN), repeat=3)
    if an.DIRICHLET in kinds
]


def dirichlet_solver(grid):
    return an.AnnulusBVPSolver(grid, (an.DIRICHLET, an.DIRICHLET, an.NEUMANN))


def test_grid_validation():
    with pytest.raises(ValueError):
        an.AnnulusGrid(2, 16)
    with pytest.raises(ValueError):
        an.AnnulusGrid(9, 15)
    with pytest.raises(ValueError):
        an.AnnulusGrid(9, 4)


def test_grid_geometry():
    g = an.AnnulusGrid(9, 16)
    assert g.radii[0] == pytest.approx(0.5)
    assert g.radii[-1] == pytest.approx(1.0)
    assert g.thetas[0] == pytest.approx(-np.pi / 2)
    assert g.arc_params[0] == 0.0
    assert g.arc_params[-1] == pytest.approx(np.pi)
    # the two outer halves share the contact nodes at both ends
    right = g.segment_angular_indices(an.GAMMA_R)
    left = g.segment_angular_indices(an.GAMMA_L)
    assert right[0] == left[0] == 0
    assert right[-1] == left[-1] == g.n_half


def test_boundary_trace_validation():
    g = an.AnnulusGrid(9, 16)
    with pytest.raises(ValueError):
        an.BoundaryTrace(g, "outer", np.zeros(9))
    with pytest.raises(ValueError):
        an.BoundaryTrace(g, an.GAMMA_R, np.zeros(4))
    with pytest.raises(ValueError):
        an.BoundaryTrace(g, an.GAMMA_R, np.full(g.n_half + 1, np.inf))
    # the inner circle carries solver data, never a trace
    with pytest.raises(ValueError, match="outer half"):
        an.BoundaryTrace(g, an.GAMMA_I, np.zeros(g.n_theta))


def test_trace_csv_round_trip(tmp_path):
    g = an.AnnulusGrid(9, 16)
    trace = an.BoundaryTrace.from_callable(g, an.GAMMA_R, lambda t: np.sin(t))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,arc_parameter,value"
    assert len(lines) == g.n_half + 2


def test_all_neumann_spec_rejected():
    g = an.AnnulusGrid(9, 16)
    with pytest.raises(ValueError):
        an.AnnulusBVPSolver(g, (an.NEUMANN, an.NEUMANN, an.NEUMANN))


def test_solver_rejects_unknown_kind():
    g = an.AnnulusGrid(9, 16)
    with pytest.raises(ValueError, match="robin"):
        an.AnnulusBVPSolver(g, (an.DIRICHLET, "robin", an.NEUMANN))


@pytest.mark.parametrize(
    "kinds",
    [(an.DIRICHLET, an.NEUMANN), (an.DIRICHLET, an.NEUMANN, an.NEUMANN, an.NEUMANN)],
)
def test_solver_rejects_wrong_kinds_length(kinds):
    with pytest.raises(ValueError, match="one condition kind per segment"):
        an.AnnulusBVPSolver(an.AnnulusGrid(9, 16), kinds)


@pytest.mark.parametrize(
    "data",
    [
        {"gamma_i": np.zeros(1)},
        {"gamma_r": np.zeros(20)},
        {"gamma_l": np.zeros(8)},
        {"gamma_r": np.zeros((9, 1))},
    ],
)
def test_solve_rejects_wrong_length_data(data):
    # 9 x 16: 9 nodes on each outer half, 16 on the hole
    solver = an.pattern_solver(an.AnnulusGrid(9, 16), an.DIRICHLET_R)
    with pytest.raises(ValueError, match="data needs"):
        solver.solve(**data)


def test_constant_dirichlet_data_gives_constant_field():
    g = an.AnnulusGrid(9, 32)
    solver = an.AnnulusBVPSolver(g, an.DIRICHLET_R)
    u = solver.solve(gamma_r=np.full(g.n_half + 1, 2.5))
    np.testing.assert_allclose(u, 2.5, atol=1e-8)


def test_zero_data_gives_zero_field():
    # u = 0 meets the backward-error bound 0 <= 0 with no 0/0, as step
    # (i) of the alternating iteration needs at k = 0 under cli's errstate
    g = an.AnnulusGrid(9, 16)
    solver = an.AnnulusBVPSolver(g, an.DIRICHLET_R)
    with np.errstate(invalid="raise"):
        u = solver.solve(gamma_r=np.zeros(g.n_half + 1))
    np.testing.assert_array_equal(u, 0.0)


def test_dirichlet_data_reproduced_at_nodes():
    g = an.AnnulusGrid(9, 32)
    vals = np.cos(g.arc_params)
    solver = an.AnnulusBVPSolver(g, an.DIRICHLET_R)
    u = solver.solve(gamma_r=vals)
    np.testing.assert_allclose(
        u[-1][g.segment_angular_indices(an.GAMMA_R)], vals, atol=1e-12
    )


def harmonic_oracle_error(n_r, n_theta):
    # u(x, y) = x = r cos(theta) is harmonic; impose its Dirichlet trace
    # on the outer circle and its Neumann data on the hole
    g = an.AnnulusGrid(n_r, n_theta)
    solver = dirichlet_solver(g)
    exact = g.radii[:, None] * np.cos(g.thetas)[None, :]
    u = solver.solve(
        gamma_r=exact[-1][g.segment_angular_indices(an.GAMMA_R)],
        gamma_l=exact[-1][g.segment_angular_indices(an.GAMMA_L)],
        gamma_i=-np.cos(g.thetas),
    )
    return float(np.max(np.abs(u - exact)))


def test_harmonic_oracle_second_order():
    errs = [harmonic_oracle_error(9, 32), harmonic_oracle_error(17, 64),
            harmonic_oracle_error(33, 128)]
    for e0, e1 in zip(errs, errs[1:]):
        slope = np.log2(e0 / e1)
        assert 1.6 <= slope <= 2.4


def test_log_radius_oracle_second_order():
    errs = []
    for n_r, n_theta in ((9, 32), (17, 64), (33, 128)):
        g = an.AnnulusGrid(n_r, n_theta)
        solver = dirichlet_solver(g)
        exact = np.log(g.radii)[:, None] * np.ones(g.n_theta)[None, :]
        u = solver.solve(
            gamma_r=np.zeros(g.n_half + 1),
            gamma_l=np.zeros(g.n_half + 1),
            gamma_i=-np.full(g.n_theta, 1 / g.radii[0]),
        )
        errs.append(np.max(np.abs(u - exact)))
    for e0, e1 in zip(errs, errs[1:]):
        assert 1.6 <= np.log2(e0 / e1) <= 2.4


def test_discrete_maximum_principle():
    g = an.AnnulusGrid(17, 64)
    rng = np.random.default_rng(3)
    vals_r = rng.uniform(-1.0, 2.0, g.n_half + 1)
    vals_l = rng.uniform(-1.0, 2.0, g.n_half + 1)
    solver = dirichlet_solver(g)
    u = solver.solve(gamma_r=vals_r, gamma_l=vals_l)
    lo = min(vals_r.min(), vals_l.min())
    hi = max(vals_r.max(), vals_l.max())
    assert u.min() >= lo - 1e-8
    assert u.max() <= hi + 1e-8


def test_trace_operators_are_linear():
    g = an.AnnulusGrid(9, 32)
    t = g.arc_params
    p1 = an.BoundaryTrace(g, an.GAMMA_R, np.sin(t))
    p2 = an.BoundaryTrace(g, an.GAMMA_R, t * (np.pi - t) ** 2)
    comb = an.BoundaryTrace(g, an.GAMMA_R, 2.5 * p1.values - 1.25 * p2.values)
    dev = np.max(
        np.abs(
            an.apply_A(g, comb).values
            - 2.5 * an.apply_A(g, p1).values
            + 1.25 * an.apply_A(g, p2).values
        )
    )
    assert dev < 1e-8
    q1 = an.BoundaryTrace(g, an.GAMMA_L, np.cos(t))
    q2 = an.BoundaryTrace(g, an.GAMMA_L, t)
    combl = an.BoundaryTrace(g, an.GAMMA_L, 0.5 * q1.values + 3 * q2.values)
    dev = np.max(
        np.abs(
            an.apply_A_sharp(g, combl).values
            - 0.5 * an.apply_A_sharp(g, q1).values
            - 3 * an.apply_A_sharp(g, q2).values
        )
    )
    assert dev < 1e-8
    dev = abs(
        an.correction_functional(g, combl, 1.0, 2.0)
        - 0.5 * an.correction_functional(g, q1, 1.0, 2.0)
        - 3 * an.correction_functional(g, q2, 1.0, 2.0)
    )
    assert dev < 1e-8


def test_apply_A_requires_gamma_r_trace():
    g = an.AnnulusGrid(9, 16)
    wrong = an.BoundaryTrace(g, an.GAMMA_L, np.zeros(g.n_half + 1))
    with pytest.raises(ValueError):
        an.apply_A(g, wrong)
    wrong = an.BoundaryTrace(g, an.GAMMA_R, np.zeros(g.n_half + 1))
    with pytest.raises(ValueError):
        an.apply_A_sharp(g, wrong)


def test_eta_blend_endpoint_values():
    g = an.AnnulusGrid(9, 16)
    eta = an.eta_blend(g, 1.5, -2.0)
    assert eta.values[0] == pytest.approx(1.5)
    assert eta.values[-1] == pytest.approx(-2.0)


def test_correction_zero_on_endpoint_free_traces():
    g = an.AnnulusGrid(9, 32)
    psi = an.BoundaryTrace.from_callable(g, an.GAMMA_L, lambda t: 1 + np.cos(t))
    assert an.correction_functional(g, psi, 0.0, 0.0) == 0.0


def test_correction_is_eta_independent():
    # any smooth blend with the same endpoint values yields the same
    # correction; check the default cosine blend against a linear one
    g = an.AnnulusGrid(17, 64)
    psi = an.BoundaryTrace.from_callable(g, an.GAMMA_L, lambda t: np.sin(t / 2))
    a, b = 2.0, -1.0
    default = an.correction_functional(g, psi, a, b)
    t = g.arc_params
    linear = an.BoundaryTrace(g, an.GAMMA_R, a + (b - a) * t / np.pi)
    alt = an.correction_functional(g, psi, a, b, eta=linear)
    assert default == pytest.approx(alt, abs=5e-3)


def test_duality_identity_on_endpoint_free_traces():
    # <A phi, psi> = -<phi, A_sharp psi> when phi vanishes at the
    # contact points (the correction terms drop out)
    g = an.AnnulusGrid(17, 64)
    t = g.arc_params
    phi = an.BoundaryTrace(g, an.GAMMA_R, np.sin(t) ** 2)
    psi = an.BoundaryTrace.from_callable(g, an.GAMMA_L, lambda t: np.cos(t))
    lhs = an.trace_inner(an.apply_A(g, phi), psi)
    rhs = -an.trace_inner(phi, an.apply_A_sharp(g, psi))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_invariance_for_traces_with_shared_endpoints():
    # the combination <A phi, psi> + <phi, A_sharp psi> depends only on
    # the endpoint values of phi, not on phi itself
    rng = np.random.default_rng(12)
    g = an.AnnulusGrid(17, 64)
    t = g.arc_params
    mesh_sq = max(g.dr, g.dtheta) ** 2
    for _ in range(5):
        a, b = rng.uniform(-2, 2, 2)
        base = an.eta_blend(g, a, b).values
        phi1 = an.BoundaryTrace(g, an.GAMMA_R, base + np.sin(t) * rng.uniform(-1, 1))
        phi2 = an.BoundaryTrace(g, an.GAMMA_R, base + np.sin(2 * t) * rng.uniform(-1, 1))
        for _ in range(3):
            psi = an.BoundaryTrace(
                g, an.GAMMA_L, rng.uniform(-1, 1) * np.cos(t) + rng.uniform(-1, 1)
            )
            s1 = an.trace_inner(an.apply_A(g, phi1), psi) + an.trace_inner(
                phi1, an.apply_A_sharp(g, psi)
            )
            s2 = an.trace_inner(an.apply_A(g, phi2), psi) + an.trace_inner(
                phi2, an.apply_A_sharp(g, psi)
            )
            assert abs(s1 - s2) <= 10 * mesh_sq


def test_kozlov_mazya_zero_data():
    g = an.AnnulusGrid(9, 16)
    mu = an.BoundaryTrace(g, an.GAMMA_R, np.zeros(g.n_half + 1))
    result = an.kozlov_mazya_solve(g, mu, max_iter=5)
    assert result.converged
    np.testing.assert_allclose(result.psi.values, 0.0, atol=1e-12)


def test_kozlov_mazya_requires_gamma_r_data():
    g = an.AnnulusGrid(9, 16)
    wrong = an.BoundaryTrace(g, an.GAMMA_L, np.zeros(g.n_half + 1))
    with pytest.raises(ValueError):
        an.kozlov_mazya_solve(g, wrong)


def test_kozlov_mazya_consistent_data_converges():
    g = an.AnnulusGrid(9, 8)
    psi_bar = an.BoundaryTrace(g, an.GAMMA_L, np.ones(g.n_half + 1))
    mu = an.BoundaryTrace(g, an.GAMMA_R, -an.apply_A_sharp(g, psi_bar).values)
    result = an.kozlov_mazya_solve(g, mu, max_iter=100)
    r = result.residuals
    assert r[100] <= 0.1 * r[1]
    assert not result.inconsistent


def test_kozlov_mazya_flags_delta_spike():
    g = an.AnnulusGrid(9, 8)
    spike = np.zeros(g.n_half + 1)
    spike[g.n_half // 2] = 1.0
    result = an.kozlov_mazya_solve(
        g, an.BoundaryTrace(g, an.GAMMA_R, spike), max_iter=100
    )
    assert result.inconsistent


def test_kozlov_mazya_keeps_requested_iterates():
    g = an.AnnulusGrid(9, 8)
    psi_bar = an.BoundaryTrace(g, an.GAMMA_L, np.ones(g.n_half + 1))
    mu = an.BoundaryTrace(g, an.GAMMA_R, -an.apply_A_sharp(g, psi_bar).values)
    result = an.kozlov_mazya_solve(g, mu, max_iter=10, keep_iterates=(1, 5))
    assert [k for k, _ in result.iterates] == [1, 5]


def test_sentinel_system_contact_columns_are_zero():
    g = an.AnnulusGrid(9, 16)
    m = an.flux_to_trace_matrix(g)
    np.testing.assert_allclose(m[:, 0], 0.0, atol=1e-14)
    np.testing.assert_allclose(m[:, -1], 0.0, atol=1e-14)


def test_sentinel_equation_solve_has_small_residual():
    g = an.AnnulusGrid(9, 16)
    psi_bar = an.BoundaryTrace(g, an.GAMMA_L, np.ones(g.n_half + 1))
    mu = an.BoundaryTrace(g, an.GAMMA_R, an.apply_A_sharp(g, psi_bar).values)
    psi = an.solve_sentinel_equation(g, mu)
    m = an.flux_to_trace_matrix(g)
    assert np.max(np.abs(m @ psi.values + mu.values)) < 1e-8


def test_sentinel_reconstruct_zero_psi():
    g = an.AnnulusGrid(9, 16)
    psi = an.BoundaryTrace(g, an.GAMMA_L, np.zeros(g.n_half + 1))
    f = an.BoundaryTrace.from_callable(g, an.GAMMA_L, lambda t: np.sin(t))
    assert an.sentinel_reconstruct(g, psi, f, 0.0, 0.0) == 0.0


def test_sentinel_reconstruct_recovers_functional():
    # full chain on a trace vanishing at the contact points: generate f,
    # solve for psi, compare <mu, phi> with <psi, f>
    g = an.AnnulusGrid(17, 64)
    psi_bar = an.BoundaryTrace(g, an.GAMMA_L, np.ones(g.n_half + 1))
    mu = an.BoundaryTrace(g, an.GAMMA_R, an.apply_A_sharp(g, psi_bar).values)
    psi = an.solve_sentinel_equation(g, mu)
    phi = an.BoundaryTrace.from_callable(g, an.GAMMA_R, lambda t: np.sin(t))
    f = an.apply_A(g, phi)
    truth = an.trace_inner(mu, phi)
    value = an.sentinel_reconstruct(g, psi, f, 0.0, 0.0)
    assert value == pytest.approx(truth, abs=1e-8)


@pytest.fixture
def factorizations(monkeypatch):
    """Empty the solver and TSVD caches and count AnnulusBVPSolver
    constructions."""
    an.pattern_solver.cache_clear()
    an.flux_to_trace_svd.cache_clear()
    calls = []
    original = an.AnnulusBVPSolver.__init__

    def counting(self, grid, kinds):
        calls.append((grid, kinds))
        original(self, grid, kinds)

    monkeypatch.setattr(an.AnnulusBVPSolver, "__init__", counting)
    yield calls
    an.pattern_solver.cache_clear()
    an.flux_to_trace_svd.cache_clear()


def test_table1_factorizes_once(factorizations):
    table1_rows()
    assert factorizations == [(an.AnnulusGrid(33, 128), an.DIRICHLET_R)]


def test_kozlov_mazya_factorizes_each_pattern_once(factorizations):
    g = an.AnnulusGrid(9, 16)
    mu = an.BoundaryTrace(g, an.GAMMA_R, np.ones(g.n_half + 1))
    first = an.kozlov_mazya_solve(g, mu, max_iter=5)
    assert sorted(kinds for _, kinds in factorizations) == sorted(
        [an.DIRICHLET_R, an.DIRICHLET_L]
    )
    again = an.kozlov_mazya_solve(an.AnnulusGrid(9, 16), mu, max_iter=5)
    assert len(factorizations) == 2
    np.testing.assert_array_equal(again.psi.values, first.psi.values)
    np.testing.assert_array_equal(again.residuals, first.residuals)


def test_cached_trace_operators_match_a_fresh_solver():
    g = an.AnnulusGrid(17, 64)
    t = g.arc_params
    fresh = an.AnnulusBVPSolver(g, an.DIRICHLET_R)
    cached = an.pattern_solver(g, an.DIRICHLET_R)
    assert cached is an.pattern_solver(an.AnnulusGrid(17, 64), an.DIRICHLET_R)
    assert cached is not fresh
    phi = np.sin(t) + t**2
    w = fresh.solve(gamma_r=phi)
    np.testing.assert_array_equal(cached.solve(gamma_r=phi), w)
    np.testing.assert_array_equal(
        an.apply_A(g, an.BoundaryTrace(g, an.GAMMA_R, phi)).values,
        w[-1][g.segment_angular_indices(an.GAMMA_L)],
    )
    psi = np.cos(t) - 0.5
    v = fresh.solve(gamma_l=psi)
    np.testing.assert_array_equal(
        an.apply_A_sharp(g, an.BoundaryTrace(g, an.GAMMA_L, psi)).values,
        fresh.outer_normal_derivative(v)[g.segment_angular_indices(an.GAMMA_R)],
    )


def fresh_tsvd_psi(g, mu):
    """TSVD solve of -A_sharp(psi) = mu from an uncached SVD."""
    u, s, vt = np.linalg.svd(an.flux_to_trace_matrix(g))
    keep = s > an.SENTINEL_RCOND * s[0]
    return vt[keep].T @ ((u[:, keep].T @ (-mu.values)) / s[keep])


def test_sentinel_psi_matches_an_uncached_tsvd(factorizations):
    g = an.AnnulusGrid(17, 64)
    mu = an.apply_A_sharp(g, an.BoundaryTrace(g, an.GAMMA_L, 1.0 + np.cos(g.arc_params)))
    expected = fresh_tsvd_psi(g, mu)
    first = an.solve_sentinel_equation(g, mu)
    again = an.solve_sentinel_equation(an.AnnulusGrid(17, 64), mu)
    np.testing.assert_array_equal(first.values, expected)
    np.testing.assert_array_equal(again.values, expected)


def test_flux_to_trace_matrix_matches_a_fresh_solver():
    # column j: the Gamma_r normal derivative for a unit flux at node j of
    # Gamma_l, with v = 0 on Gamma_r and zero flux on the hole
    g = an.AnnulusGrid(17, 64)
    fresh = an.AnnulusBVPSolver(g, an.DIRICHLET_R)
    gr_idx = g.segment_angular_indices(an.GAMMA_R)
    columns = []
    for unit in np.eye(g.n_half + 1):
        v = fresh.solve(gamma_l=unit)
        columns.append(fresh.outer_normal_derivative(v)[gr_idx])
    np.testing.assert_array_equal(an.flux_to_trace_matrix(g), np.column_stack(columns))


def test_repeated_sentinel_solve_makes_no_bvp_solves(factorizations, monkeypatch):
    g = an.AnnulusGrid(17, 64)
    mu = an.BoundaryTrace(g, an.GAMMA_R, np.sin(g.arc_params))
    calls = []
    original = an.AnnulusBVPSolver.solve

    def counting(self, **data):
        calls.append(data)
        return original(self, **data)

    monkeypatch.setattr(an.AnnulusBVPSolver, "solve", counting)
    an.solve_sentinel_equation(g, mu)
    assert len(calls) == g.n_half + 1
    calls.clear()
    an.solve_sentinel_equation(an.AnnulusGrid(17, 64), mu)
    assert calls == []


def test_cached_tsvd_factors_are_read_only(factorizations):
    g = an.AnnulusGrid(9, 16)
    for factor in an.flux_to_trace_svd(g):
        with pytest.raises(ValueError):
            factor[0] = 1.0
    # the public matrix stays a fresh, writable array
    matrix = an.flux_to_trace_matrix(g)
    matrix[0, 0] = 1.0
    assert an.flux_to_trace_matrix(g)[0, 0] != 1.0


def rhs_by_node(solver, data):
    """Right-hand side written node by node from one array per segment,
    with Dirichlet owning the two contact nodes (Gamma_r when both outer
    halves are Dirichlet or both Neumann)."""
    g = solver.grid
    kinds = dict(zip(an.SEGMENTS, solver.kinds))
    traces = dict(zip(an.SEGMENTS, data))
    n_t = g.n_theta
    rhs = np.zeros(g.n_r * n_t)
    for segment in (an.GAMMA_R, an.GAMMA_L):
        trace = traces[segment]
        for j, m in enumerate(g.segment_angular_indices(segment)):
            if m in (0, g.n_half):
                if kinds[an.GAMMA_R] == an.DIRICHLET:
                    owner = an.GAMMA_R
                elif kinds[an.GAMMA_L] == an.DIRICHLET:
                    owner = an.GAMMA_L
                else:
                    owner = an.GAMMA_R
            else:
                owner = an.GAMMA_R if m < g.n_half else an.GAMMA_L
            if owner == segment:
                rhs[(g.n_r - 1) * n_t + m] = trace[j]
    rhs[:n_t] = traces[an.GAMMA_I]
    return rhs


@pytest.mark.parametrize("kinds", PATTERNS)
def test_rhs_scatter_matches_node_by_node(kinds):
    g = an.AnnulusGrid(9, 16)
    solver = an.AnnulusBVPSolver(g, kinds)
    rng = np.random.default_rng(5)
    # distinct values at the contact nodes on each half, so ownership shows
    data = tuple(rng.uniform(-1.0, 1.0, g.segment_size(seg)) for seg in an.SEGMENTS)
    np.testing.assert_array_equal(solver._rhs(data), rhs_by_node(solver, data))


class _OffsetLU:
    """LU stand-in whose solves are off by a fixed relative error, and
    which counts its solves."""

    def __init__(self, lu, error=0.0):
        self.lu, self.error, self.calls = lu, error, 0

    def solve(self, rhs):
        self.calls += 1
        return self.lu.solve(rhs) * (1.0 + self.error)


def test_fine_grid_solve_is_one_lu_solve_within_the_bound(monkeypatch):
    # Data on which the plain LU solve at 65 x 256 leaves a residual of
    # 2.2e-10 (|A| ~ 9e4, |u| ~ 2.6): a few eps * |A| |u|, so accepted
    # as it is, with no second triangular solve.
    g = an.AnnulusGrid(65, 256)
    t = g.arc_params
    flux = 1.0 - 0.09746079213710429 * np.cos(t) + 0.023852225648510084 * np.sin(2 * t)
    solver = an.pattern_solver(g, an.DIRICHLET_R)
    counting = _OffsetLU(solver._lu)
    monkeypatch.setattr(solver, "_lu", counting)
    u = solver.solve(gamma_l=flux).ravel()
    assert counting.calls == 1
    rhs = solver._rhs((None, flux, None))
    norm = abs(solver._matrix).sum(axis=1).max()
    bound = an.BACKWARD_LIMIT * (norm * np.max(np.abs(u)) + np.max(np.abs(rhs)))
    assert np.max(np.abs(solver._matrix @ u - rhs)) <= bound


@pytest.mark.parametrize("error", [1e-9, 1e-6, 0.5])
def test_solve_rejects_an_inaccurate_lu(error):
    g = an.AnnulusGrid(9, 16)
    solver = an.AnnulusBVPSolver(g, an.DIRICHLET_R)
    solver._lu = _OffsetLU(solver._lu, error)
    with pytest.raises(RuntimeError, match="fails backward-error test"):
        solver.solve(gamma_r=np.cos(g.arc_params))


def outer_kind_by_node(grid, kinds, m):
    """Condition kind at angular node m of the outer circle: Dirichlet
    owns a contact node if either half is Dirichlet."""
    kind_r, kind_l, _ = kinds
    if m in (0, grid.n_half):
        return an.DIRICHLET if an.DIRICHLET in (kind_r, kind_l) else an.NEUMANN
    return kind_r if m < grid.n_half else kind_l


def matrix_by_node(grid, kinds):
    """Reference assembly, one node and one coefficient at a time: the
    conservative 5-point stencil inside; on each rim an identity row for
    a Dirichlet node and the half-cell flux balance for a Neumann node."""
    n_r, n_t = grid.n_r, grid.n_theta
    dr, dt = grid.dr, grid.dtheta
    radii = grid.radii
    rows, cols, vals = [], [], []

    def idx(k, m):
        return k * n_t + m % n_t

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for k in range(1, n_r - 1):
        r = radii[k]
        r_p = r + dr / 2
        r_m = r - dr / 2
        for m in range(n_t):
            row = idx(k, m)
            add(row, idx(k + 1, m), r_p / (dr**2 * r))
            add(row, idx(k - 1, m), r_m / (dr**2 * r))
            add(row, row, -(r_p + r_m) / (dr**2 * r) - 2 / (dt**2 * r**2))
            add(row, idx(k, m + 1), 1 / (dt**2 * r**2))
            add(row, idx(k, m - 1), 1 / (dt**2 * r**2))
    outer_kinds = [outer_kind_by_node(grid, kinds, m) for m in range(n_t)]
    inner_kinds = [kinds[2]] * n_t
    r_out, r_in = radii[-1], radii[0]
    for k_b, k_n, r_b, r_h, ring_kinds in (
        (n_r - 1, n_r - 2, r_out, r_out - dr / 2, outer_kinds),
        (0, 1, r_in, r_in + dr / 2, inner_kinds),
    ):
        for m in range(n_t):
            row = idx(k_b, m)
            if ring_kinds[m] == an.DIRICHLET:
                add(row, row, 1.0)
            else:
                add(row, row, r_h / (dr * r_b) + dr / (dt**2 * r_b**2))
                add(row, idx(k_n, m), -r_h / (dr * r_b))
                add(row, idx(k_b, m + 1), -dr / (2 * dt**2 * r_b**2))
                add(row, idx(k_b, m - 1), -dr / (2 * dt**2 * r_b**2))
    n = n_r * n_t
    return sp.csc_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))


@pytest.mark.parametrize("shape", [(9, 16), (17, 64)])
@pytest.mark.parametrize("kinds", PATTERNS)
def test_matrix_matches_node_by_node(kinds, shape):
    g = an.AnnulusGrid(*shape)
    matrix = an.AnnulusBVPSolver(g, kinds)._matrix
    expected = matrix_by_node(g, kinds)
    np.testing.assert_array_equal(matrix.indptr, expected.indptr)
    np.testing.assert_array_equal(matrix.indices, expected.indices)
    np.testing.assert_array_equal(matrix.data, expected.data)


@pytest.mark.parametrize("kinds", PATTERNS)
def test_outer_neumann_rows_are_the_read_off_rows(kinds):
    # imposing u_nu and reading u_r on the outer circle use the same rows
    g = an.AnnulusGrid(9, 16)
    solver = an.AnnulusBVPSolver(g, kinds)
    rows = solver._matrix.tocsr()
    neumann = [m for m in range(g.n_theta) if outer_kind_by_node(g, kinds, m) == an.NEUMANN]
    assert neumann or an.NEUMANN not in kinds[:2]
    for m in neumann:
        np.testing.assert_array_equal(
            rows[(g.n_r - 1) * g.n_theta + m].toarray(), solver._outer_flux[m].toarray()
        )


def normal_derivative_by_roll(grid, field):
    """u_r at r = 1 from the outer half-cell flux balance, written out
    with np.roll over the two outermost rings."""
    dr, dt = grid.dr, grid.dtheta
    r_out = grid.radii[-1]
    r_om = r_out - dr / 2
    u_b = field[-1]
    angular = (np.roll(u_b, -1) + np.roll(u_b, 1) - 2 * u_b) / (dt**2 * r_out**2)
    return r_om * (u_b - field[-2]) / (dr * r_out) - dr * angular / 2


@pytest.mark.parametrize("shape", [(9, 16), (17, 64), (65, 256)])
def test_read_off_matches_the_rolled_flux_balance(shape):
    g = an.AnnulusGrid(*shape)
    solver = an.pattern_solver(g, an.DIRICHLET_R)
    rng = np.random.default_rng(3)
    for field in (
        rng.uniform(-1.0, 1.0, (g.n_r, g.n_theta)),
        solver.solve(gamma_l=rng.uniform(-1.0, 1.0, g.n_half + 1)),
    ):
        expected = normal_derivative_by_roll(g, field)
        np.testing.assert_allclose(
            solver.outer_normal_derivative(field),
            expected,
            rtol=0,
            atol=1e-13 * np.max(np.abs(expected)),
        )


GRIDS = (an.AnnulusGrid(9, 16), an.AnnulusGrid(17, 64))


def trace_norm(trace):
    return np.sqrt(an.trace_inner(trace, trace))


@st.composite
def grid_and_traces(draw, count):
    """A grid and `count` outer-half traces with values in [-1, 1]; none
    is nonzero below 1e-100 in magnitude, so no square in the scale of a
    pairing underflows."""
    g = draw(st.sampled_from(GRIDS))
    elements = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) > 1e-100)
    values = hnp.arrays(float, g.n_half + 1, elements=elements)
    return g, [draw(values) for _ in range(count)]


def pairing(g, phi, psi):
    """<A phi, psi> + <phi, A_sharp psi> and its Cauchy-Schwarz scale
    |A phi| |psi| + |phi| |A_sharp psi|."""
    phi = an.BoundaryTrace(g, an.GAMMA_R, phi)
    psi = an.BoundaryTrace(g, an.GAMMA_L, psi)
    a_phi, a_sharp_psi = an.apply_A(g, phi), an.apply_A_sharp(g, psi)
    value = an.trace_inner(a_phi, psi) + an.trace_inner(phi, a_sharp_psi)
    scale = trace_norm(a_phi) * trace_norm(psi) + trace_norm(phi) * trace_norm(a_sharp_psi)
    return value, scale


@given(grid_and_traces(2))
def test_duality_holds_for_random_endpoint_free_traces(case):
    # <A phi, psi> = -<phi, A_sharp psi> exactly in the discrete scheme
    # when phi vanishes at the two contact nodes
    g, (phi, psi) = case
    phi[[0, -1]] = 0.0
    value, scale = pairing(g, phi, psi)
    assert abs(value) <= 1e-11 * scale


@given(grid_and_traces(3))
def test_pairing_depends_only_on_endpoint_values(case):
    g, (phi1, phi2, psi) = case
    phi2[[0, -1]] = phi1[[0, -1]]
    value1, scale1 = pairing(g, phi1, psi)
    value2, scale2 = pairing(g, phi2, psi)
    assert abs(value1 - value2) <= 1e-11 * (scale1 + scale2)


@given(
    st.sampled_from(GRIDS),
    st.sampled_from((an.DIRICHLET_R, an.DIRICHLET_L)),
    st.sampled_from((1.0, 1e-310)),
    st.data(),
)
def test_solve_accepts_random_data(g, kinds, scale, data):
    # a plain LU solve is backward stable, so it always meets the bound,
    # also on data scaled into the subnormal range
    elements = st.floats(-1.0, 1.0)
    segments = [
        scale * data.draw(hnp.arrays(float, g.segment_size(segment), elements=elements))
        for segment in an.SEGMENTS
    ]
    u = an.pattern_solver(g, kinds).solve(*segments)
    assert np.all(np.isfinite(u))
