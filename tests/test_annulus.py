import itertools

import numpy as np
import pytest

from bgrecon import annulus as an
from bgrecon.cli import table1_rows


def dirichlet_solver(grid):
    return an.AnnulusBVPSolver(
        grid,
        {an.GAMMA_R: an.DIRICHLET, an.GAMMA_L: an.DIRICHLET, an.GAMMA_I: an.NEUMANN},
    )


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
    z_half = np.zeros(g.n_half + 1)
    z_full = np.zeros(g.n_theta)
    with pytest.raises(ValueError):
        an.MixedBVPSpec(
            (an.NEUMANN, z_half), (an.NEUMANN, z_half), (an.NEUMANN, z_full)
        )
    with pytest.raises(ValueError):
        an.AnnulusBVPSolver(
            g, {an.GAMMA_R: an.NEUMANN, an.GAMMA_L: an.NEUMANN, an.GAMMA_I: an.NEUMANN}
        )


def test_constant_dirichlet_data_gives_constant_field():
    g = an.AnnulusGrid(9, 32)
    solver = an.AnnulusBVPSolver(
        g, {an.GAMMA_R: an.DIRICHLET, an.GAMMA_L: an.NEUMANN, an.GAMMA_I: an.NEUMANN}
    )
    u = solver.solve(an.make_spec(g, gamma_r=(an.DIRICHLET, np.full(g.n_half + 1, 2.5))))
    np.testing.assert_allclose(u, 2.5, atol=1e-8)


def test_zero_data_gives_zero_field():
    g = an.AnnulusGrid(9, 16)
    solver = an.AnnulusBVPSolver(
        g, {an.GAMMA_R: an.DIRICHLET, an.GAMMA_L: an.NEUMANN, an.GAMMA_I: an.NEUMANN}
    )
    u = solver.solve(an.make_spec(g, gamma_r=(an.DIRICHLET, np.zeros(g.n_half + 1))))
    np.testing.assert_allclose(u, 0.0, atol=1e-12)


def test_dirichlet_data_reproduced_at_nodes():
    g = an.AnnulusGrid(9, 32)
    vals = np.cos(g.arc_params)
    solver = an.AnnulusBVPSolver(
        g, {an.GAMMA_R: an.DIRICHLET, an.GAMMA_L: an.NEUMANN, an.GAMMA_I: an.NEUMANN}
    )
    u = solver.solve(an.make_spec(g, gamma_r=(an.DIRICHLET, vals)))
    np.testing.assert_allclose(
        u[-1][g.segment_angular_indices(an.GAMMA_R)], vals, atol=1e-12
    )


def harmonic_oracle_error(n_r, n_theta):
    # u(x, y) = x = r cos(theta) is harmonic; impose its Dirichlet trace
    # on the outer circle and its Neumann data on the hole
    g = an.AnnulusGrid(n_r, n_theta)
    solver = dirichlet_solver(g)
    exact = g.radii[:, None] * np.cos(g.thetas)[None, :]
    spec = an.make_spec(
        g,
        gamma_r=(an.DIRICHLET, exact[-1][g.segment_angular_indices(an.GAMMA_R)]),
        gamma_l=(an.DIRICHLET, exact[-1][g.segment_angular_indices(an.GAMMA_L)]),
        gamma_i=(an.NEUMANN, -np.cos(g.thetas)),
    )
    return float(np.max(np.abs(solver.solve(spec) - exact)))


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
        spec = an.make_spec(
            g,
            gamma_r=(an.DIRICHLET, np.zeros(g.n_half + 1)),
            gamma_l=(an.DIRICHLET, np.zeros(g.n_half + 1)),
            gamma_i=(an.NEUMANN, -np.full(g.n_theta, 1 / g.radii[0])),
        )
        errs.append(np.max(np.abs(solver.solve(spec) - exact)))
    for e0, e1 in zip(errs, errs[1:]):
        assert 1.6 <= np.log2(e0 / e1) <= 2.4


def test_discrete_maximum_principle():
    g = an.AnnulusGrid(17, 64)
    rng = np.random.default_rng(3)
    vals_r = rng.uniform(-1.0, 2.0, g.n_half + 1)
    vals_l = rng.uniform(-1.0, 2.0, g.n_half + 1)
    solver = dirichlet_solver(g)
    u = solver.solve(
        an.make_spec(g, gamma_r=(an.DIRICHLET, vals_r), gamma_l=(an.DIRICHLET, vals_l))
    )
    lo = min(vals_r.min(), vals_l.min())
    hi = max(vals_r.max(), vals_l.max())
    assert u.min() >= lo - 1e-8
    assert u.max() <= hi + 1e-8


def test_solve_rejects_mismatched_spec():
    g = an.AnnulusGrid(9, 16)
    solver = an.AnnulusBVPSolver(
        g, {an.GAMMA_R: an.DIRICHLET, an.GAMMA_L: an.NEUMANN, an.GAMMA_I: an.NEUMANN}
    )
    spec = an.make_spec(g, gamma_l=(an.DIRICHLET, np.zeros(g.n_half + 1)))
    with pytest.raises(ValueError):
        solver.solve(spec)


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
        calls.append((grid, tuple(kinds[seg] for seg in an.SEGMENTS)))
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
    fresh = an.AnnulusBVPSolver(
        g, {an.GAMMA_R: an.DIRICHLET, an.GAMMA_L: an.NEUMANN, an.GAMMA_I: an.NEUMANN}
    )
    cached = an.pattern_solver(g, an.DIRICHLET_R)
    assert cached is an.pattern_solver(an.AnnulusGrid(17, 64), an.DIRICHLET_R)
    assert cached is not fresh
    phi = np.sin(t) + t**2
    spec = an.make_spec(g, gamma_r=(an.DIRICHLET, phi))
    w = fresh.solve(spec)
    np.testing.assert_array_equal(cached.solve(spec), w)
    np.testing.assert_array_equal(
        an.apply_A(g, an.BoundaryTrace(g, an.GAMMA_R, phi)).values,
        w[-1][g.segment_angular_indices(an.GAMMA_L)],
    )
    psi = np.cos(t) - 0.5
    v = fresh.solve(
        an.make_spec(
            g,
            gamma_r=(an.DIRICHLET, np.zeros(g.n_half + 1)),
            gamma_l=(an.NEUMANN, psi),
        )
    )
    np.testing.assert_array_equal(
        an.apply_A_sharp(g, an.BoundaryTrace(g, an.GAMMA_L, psi)).values,
        fresh.outer_normal_derivative(v)[g.segment_angular_indices(an.GAMMA_R)],
    )


def fresh_tsvd_psi(g, mu, rcond=an.SENTINEL_RCOND):
    """TSVD solve of -A_sharp(psi) = mu from an uncached SVD."""
    u, s, vt = np.linalg.svd(an.flux_to_trace_matrix(g))
    keep = s > rcond * s[0]
    return vt[keep].T @ ((u[:, keep].T @ (-mu.values)) / s[keep])


def test_sentinel_psi_matches_an_uncached_tsvd(factorizations):
    g = an.AnnulusGrid(17, 64)
    mu = an.apply_A_sharp(g, an.BoundaryTrace(g, an.GAMMA_L, 1.0 + np.cos(g.arc_params)))
    expected = fresh_tsvd_psi(g, mu)
    first = an.solve_sentinel_equation(g, mu)
    again = an.solve_sentinel_equation(an.AnnulusGrid(17, 64), mu)
    np.testing.assert_array_equal(first.values, expected)
    np.testing.assert_array_equal(again.values, expected)
    # rcond acts on the cached factors at call time
    np.testing.assert_array_equal(
        an.solve_sentinel_equation(g, mu, rcond=1e-3).values,
        fresh_tsvd_psi(g, mu, rcond=1e-3),
    )


def test_repeated_sentinel_solve_makes_no_bvp_solves(factorizations, monkeypatch):
    g = an.AnnulusGrid(17, 64)
    mu = an.BoundaryTrace(g, an.GAMMA_R, np.sin(g.arc_params))
    calls = []
    original = an.AnnulusBVPSolver.solve

    def counting(self, spec):
        calls.append(spec)
        return original(self, spec)

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


def rhs_by_node(solver, spec):
    """Right-hand side written node by node, with Dirichlet owning the
    two contact nodes (Gamma_r when both outer halves are Dirichlet or
    both Neumann)."""
    g, kinds = solver.grid, solver.kinds
    n_t = g.n_theta
    rhs = np.zeros(g.n_r * n_t)
    for segment in (an.GAMMA_R, an.GAMMA_L):
        trace = spec.condition(segment)[1]
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
    rhs[:n_t] = spec.condition(an.GAMMA_I)[1]
    return rhs


@pytest.mark.parametrize(
    "kinds",
    [
        kinds
        for kinds in itertools.product((an.DIRICHLET, an.NEUMANN), repeat=3)
        if an.DIRICHLET in kinds
    ],
)
def test_rhs_scatter_matches_node_by_node(kinds):
    g = an.AnnulusGrid(9, 16)
    solver = an.AnnulusBVPSolver(g, dict(zip(an.SEGMENTS, kinds)))
    rng = np.random.default_rng(5)
    # distinct values at the contact nodes on each half, so ownership shows
    spec = an.MixedBVPSpec(
        *(
            (kind, rng.uniform(-1.0, 1.0, g.segment_size(seg)))
            for seg, kind in zip(an.SEGMENTS, kinds)
        )
    )
    np.testing.assert_array_equal(solver._rhs(spec), rhs_by_node(solver, spec))


def test_fine_grid_solve_refines_a_residual_above_tolerance():
    # Data on which the plain LU solve at 65 x 256 leaves a residual of
    # 2.2e-10 against a tolerance of 2.1e-10 (|A| ~ 9e4, |u| ~ 2.6).
    g = an.AnnulusGrid(65, 256)
    t = g.arc_params
    flux = 1.0 - 0.09746079213710429 * np.cos(t) + 0.023852225648510084 * np.sin(2 * t)
    spec = an.make_spec(
        g,
        gamma_r=(an.DIRICHLET, np.zeros(g.n_half + 1)),
        gamma_l=(an.NEUMANN, flux),
    )
    solver = an.pattern_solver(g, an.DIRICHLET_R)
    u = solver.solve(spec).ravel()
    rhs = solver._rhs(spec)
    assert np.max(np.abs(solver._matrix @ u - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))


class _OffsetLU:
    """LU stand-in whose solves are off by a fixed relative error."""

    def __init__(self, lu, error):
        self.lu, self.error = lu, error

    def solve(self, rhs):
        return self.lu.solve(rhs) * (1.0 + self.error)


def test_solve_refines_once_and_then_rejects():
    g = an.AnnulusGrid(9, 16)
    spec = an.make_spec(g, gamma_r=(an.DIRICHLET, np.cos(g.arc_params)))
    solver = an.AnnulusBVPSolver(g, dict(zip(an.SEGMENTS, an.DIRICHLET_R)))
    expected = solver.solve(spec)
    # an error of 1e-6 is 1e-12 after one refinement step
    solver._lu = _OffsetLU(solver._lu, 1e-6)
    np.testing.assert_allclose(solver.solve(spec), expected, rtol=0, atol=1e-10)
    # an error that one step cannot remove is still rejected
    solver._lu = _OffsetLU(solver._lu.lu, 0.5)
    with pytest.raises(RuntimeError):
        solver.solve(spec)
