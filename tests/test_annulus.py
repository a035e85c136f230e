import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bgrecon import annulus as an
from bgrecon.cli import ExperimentConfig, _run_table1, table1_rows

# (Gamma_r, Gamma_l, Gamma_i) condition kinds of the scheme's boundary
# pattern and of its mirror image, which step (ii) of the alternating
# iteration solves. The ids are their places among the seven
# Dirichlet/Neumann patterns with a Dirichlet part, in
# itertools.product order.
DIRICHLET = "dirichlet"
NEUMANN = "neumann"
DIRICHLET_R = (DIRICHLET, NEUMANN, NEUMANN)
DIRICHLET_L = (NEUMANN, DIRICHLET, NEUMANN)
PATTERNS = [pytest.param(DIRICHLET_R, id="kinds3"), pytest.param(DIRICHLET_L, id="kinds5")]


GRIDS = (an.AnnulusGrid(9, 16), an.AnnulusGrid(17, 64))


def assert_same_bits(actual, expected):
    """Equal floats including the sign of zero."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def ring_rows(grid, k):
    """The n_theta finite-difference rows of ring k, over all
    n_r * n_theta nodes (flat index k * n_theta + m).

    Inside: the conservative form (1/r)(r u_r)_r + u_tt/r^2 = 0 with
    radial fluxes through the half-node radii r -+ dr/2. On a rim: the
    half control volume's balance of the boundary flux r*u_nu against
    the radial flux through the half-node radius r_h and the angular
    fluxes, scaled so that the row reads u_nu. The outward normal is +r
    on the outer circle and -r on the inner one, so the inward neighbour
    is ring k - 1 on the outer circle and ring k + 1 on the inner one."""
    n_r, n_t = grid.n_r, grid.n_theta
    dr, dt = grid.dr, grid.dtheta
    r = grid.radii[k]
    if 0 < k < n_r - 1:
        r_p = r + dr / 2
        r_m = r - dr / 2
        stencil = (
            (1, 0, r_p / (dr**2 * r)),
            (-1, 0, r_m / (dr**2 * r)),
            (0, 0, -(r_p + r_m) / (dr**2 * r) - 2 / (dt**2 * r**2)),
            (0, 1, 1 / (dt**2 * r**2)),
            (0, -1, 1 / (dt**2 * r**2)),
        )
    else:
        inward = -1 if k else 1
        r_h = r + inward * dr / 2
        stencil = (
            (0, 0, r_h / (dr * r) + dr / (dt**2 * r**2)),
            (inward, 0, -r_h / (dr * r)),
            (0, 1, -dr / (2 * dt**2 * r**2)),
            (0, -1, -dr / (2 * dt**2 * r**2)),
        )
    m = np.arange(n_t)
    cols = [(k + dk) * n_t + (m + dm) % n_t for dk, dm, _ in stencil]
    vals = np.repeat([v for _, _, v in stencil], n_t)
    rows = np.tile(m, len(stencil))
    return sp.csr_matrix((vals, (rows, np.concatenate(cols))), shape=(n_t, n_r * n_t))


class FiniteDifferenceOracle:
    """The finite-difference scheme that defines the solver's
    Dirichlet-to-flux map, assembled over all n_r * n_theta nodes and
    solved with a sparse LU: Dirichlet data on Gamma_r, both contact
    nodes included, flux data on the interior nodes of Gamma_l and zero
    flux on Gamma_i. Each node takes its ring's row, a Gamma_r node an
    identity row instead."""

    def __init__(self, grid):
        self.grid = grid
        n_r, n_t = grid.n_r, grid.n_theta
        n = n_r * n_t
        rim = (n_r - 1) * n_t
        gamma_r_nodes = rim + grid.segment_angular_indices(an.GAMMA_R)
        # the flat indices of the outer nodes each half's data set and
        # their positions in it; Gamma_r's Dirichlet data own the two
        # contact nodes
        self._scatter = (
            (gamma_r_nodes, slice(None)),
            (rim + grid.segment_angular_indices(an.GAMMA_L)[1:-1], slice(1, -1)),
        )
        self._rings = sp.vstack([ring_rows(grid, k) for k in range(n_r)], format="csr")
        self._outer_flux = self._rings[rim:]
        dirichlet = np.zeros(n, dtype=bool)
        dirichlet[gamma_r_nodes] = True
        rows = sp.vstack([self._rings, sp.eye(n)], format="csr")
        self._matrix = sp.csc_matrix(rows[np.arange(n) + n * dirichlet])
        self._lu = spla.splu(self._matrix)

    def _rhs(self, data):
        """Right-hand side for one array (or None) per outer half,
        Gamma_r then Gamma_l."""
        rhs = np.zeros(self.grid.n_r * self.grid.n_theta)
        for (rows, pos), values in zip(self._scatter, data):
            if values is not None:
                rhs[rows] = np.asarray(values, dtype=float)[pos]
        return rhs

    def solve(self, gamma_r=None, gamma_l=None):
        """Field u on the grid, shape (n_r, n_theta)."""
        u = self._lu.solve(self._rhs((gamma_r, gamma_l)))
        return u.reshape(self.grid.n_r, self.grid.n_theta)

    def outer_normal_derivative(self, field):
        """u_r at r = 1: the outer rim's flux balance rows applied to the
        field."""
        return self._outer_flux @ field.ravel()

    def schur_complement(self):
        """The outer rim's flux balance of the discrete harmonic field with
        zero flux on Gamma_i, per unit outer Dirichlet value: the rings
        below the outer one eliminated from the scheme."""
        rim = (self.grid.n_r - 1) * self.grid.n_theta
        inner = sp.csc_matrix(self._rings[:rim, :rim])
        extension = spla.splu(inner).solve(self._rings[:rim, rim:].toarray())
        return self._outer_flux[:, rim:].toarray() - self._outer_flux[:, :rim] @ extension


@lru_cache(maxsize=8)
def fd_oracle(grid):
    return FiniteDifferenceOracle(grid)


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


def test_grid_geometry_is_cached_read_only():
    g = an.AnnulusGrid(9, 16)
    assert g.arc_params is g.arc_params
    assert g.arc_steps is g.arc_steps
    assert g.blend_weights is g.blend_weights
    for array in (g.arc_params, g.arc_steps, *g.blend_weights):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_trace_geometry_builds_no_solver(factorizations):
    g = an.AnnulusGrid(9, 16)
    psi = an.BoundaryTrace.from_callable(g, an.GAMMA_L, np.cos)
    eta = an.eta_blend(g, 1.0, 2.0)
    an.trace_inner(psi, psi)
    an.trace_inner(eta, eta)
    assert factorizations == []


@given(st.sampled_from((an.AnnulusGrid(3, 8), *GRIDS)), st.data())
def test_trace_inner_and_eta_blend_keep_their_arithmetic(g, data):
    # bit for bit: np.trapezoid on arc_params, and the blend of cos^2(t/2)
    # and sin^2(t/2) computed on every call
    elements = st.floats(-1e3, 1e3)
    u, v = (data.draw(hnp.arrays(float, g.n_half + 1, elements=elements)) for _ in range(2))
    traces = [an.BoundaryTrace(g, an.GAMMA_L, w) for w in (u, v)]
    assert_same_bits(an.trace_inner(*traces), np.trapezoid(u * v, g.arc_params))
    a, b = data.draw(elements), data.draw(elements)
    t = g.arc_params
    assert_same_bits(an.eta_blend(g, a, b).values, a * np.cos(t / 2) ** 2 + b * np.sin(t / 2) ** 2)


def test_boundary_trace_validation():
    g = an.AnnulusGrid(9, 16)
    with pytest.raises(ValueError):
        an.BoundaryTrace(g, "outer", np.zeros(9))
    with pytest.raises(ValueError):
        an.BoundaryTrace(g, an.GAMMA_R, np.zeros(4))
    with pytest.raises(ValueError):
        an.BoundaryTrace(g, an.GAMMA_R, np.full(g.n_half + 1, np.inf))
    # the inner circle carries no trace
    with pytest.raises(ValueError, match="outer half"):
        an.BoundaryTrace(g, "gamma_i", np.zeros(g.n_theta))


@pytest.mark.parametrize(
    "data",
    [
        {"gamma_r": np.zeros(20)},
        {"gamma_l": np.zeros(8)},
        {"gamma_r": np.zeros((9, 1))},
        {"gamma_l": np.zeros((9, 1))},
    ],
)
def test_solve_rejects_wrong_length_data(data):
    # 9 x 16: 9 nodes on each outer half
    solver = an.grid_solver(an.AnnulusGrid(9, 16))
    with pytest.raises(ValueError, match="data needs"):
        solver.solve(**data)


def test_constant_dirichlet_data_gives_constant_field():
    # the outer trace of the constant field
    g = an.AnnulusGrid(9, 32)
    solver = an.AnnulusBVPSolver(g)
    u = solver.solve(gamma_r=np.full(g.n_half + 1, 2.5))
    np.testing.assert_allclose(u, 2.5, atol=1e-8)


def test_zero_data_gives_zero_field():
    # u = 0 meets the backward-error bound 0 <= 0 with no 0/0, as step
    # (i) of the alternating iteration needs at k = 0 under cli's errstate
    g = an.AnnulusGrid(9, 16)
    solver = an.AnnulusBVPSolver(g)
    with np.errstate(invalid="raise"):
        u = solver.solve(gamma_r=np.zeros(g.n_half + 1))
    np.testing.assert_array_equal(u, 0.0)


def test_dirichlet_data_reproduced_at_nodes():
    g = an.AnnulusGrid(9, 32)
    vals = np.cos(g.arc_params)
    solver = an.AnnulusBVPSolver(g)
    u = solver.solve(gamma_r=vals)
    np.testing.assert_allclose(u[g.segment_angular_indices(an.GAMMA_R)], vals, atol=1e-12)


def harmonic_oracle_error(n_r, n_theta, n):
    # u = (r^n + 4^-n r^-n) cos(n theta) is harmonic with zero flux on the
    # hole r = 1/2; impose its trace on Gamma_r and its flux
    # n (1 - 4^-n) cos(n theta) on Gamma_l
    g = an.AnnulusGrid(n_r, n_theta)
    r = g.radii[:, None]
    exact = (r**n + 4.0**-n * r**-n) * np.cos(n * g.thetas)
    flux = n * (1 - 4.0**-n) * np.cos(n * g.thetas)
    u = FiniteDifferenceOracle(g).solve(
        gamma_r=exact[-1][g.segment_angular_indices(an.GAMMA_R)],
        gamma_l=flux[g.segment_angular_indices(an.GAMMA_L)],
    )
    return float(np.max(np.abs(u - exact)))


def test_harmonic_oracle_second_order():
    for n in (1, 2):
        errs = [harmonic_oracle_error(9, 32, n), harmonic_oracle_error(17, 64, n),
                harmonic_oracle_error(33, 128, n)]
        for e0, e1 in zip(errs, errs[1:]):
            slope = np.log2(e0 / e1)
            assert 1.6 <= slope <= 2.4


def log_radius_oracle_error(n_r, n_theta):
    # u = -log r + log|x - p| + log|x - p*| is harmonic on the annulus for
    # p outside it and p* = p / (4 |p|^2) its image in the hole, and the
    # image pair's flux cancels that of -log r on the hole r = 1/2;
    # impose its trace on Gamma_r and its flux u_r on Gamma_l
    g = an.AnnulusGrid(n_r, n_theta)
    x = g.radii[:, None] * np.cos(g.thetas)
    y = g.radii[:, None] * np.sin(g.thetas)
    p = np.array([-1.3, 0.9])
    sources = ((np.zeros(2), -1.0), (p, 1.0), (an.R_INNER**2 * p / (p @ p), 1.0))
    exact = np.zeros_like(x)
    flux = np.zeros(g.n_theta)
    for (px, py), sign in sources:
        dist2 = (x - px) ** 2 + (y - py) ** 2
        exact += sign * 0.5 * np.log(dist2)
        flux += sign * ((x[-1] - px) * x[-1] + (y[-1] - py) * y[-1]) / dist2[-1]
    u = FiniteDifferenceOracle(g).solve(
        gamma_r=exact[-1][g.segment_angular_indices(an.GAMMA_R)],
        gamma_l=flux[g.segment_angular_indices(an.GAMMA_L)],
    )
    return float(np.max(np.abs(u - exact)))


def test_log_radius_oracle_second_order():
    errs = [log_radius_oracle_error(9, 32), log_radius_oracle_error(17, 64),
            log_radius_oracle_error(33, 128)]
    for e0, e1 in zip(errs, errs[1:]):
        assert 1.6 <= np.log2(e0 / e1) <= 2.4


def test_discrete_maximum_principle():
    # random Dirichlet data on Gamma_r and zero flux elsewhere: the field
    # stays within the range of the data
    g = an.AnnulusGrid(17, 64)
    vals = np.random.default_rng(3).uniform(-1.0, 2.0, g.n_half + 1)
    u = FiniteDifferenceOracle(g).solve(gamma_r=vals)
    assert u.min() >= vals.min() - 1e-8
    assert u.max() <= vals.max() + 1e-8


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
    m = an.grid_solver(an.AnnulusGrid(9, 16)).flux_to_trace
    np.testing.assert_allclose(m[:, 0], 0.0, atol=1e-14)
    np.testing.assert_allclose(m[:, -1], 0.0, atol=1e-14)


def test_sentinel_equation_solve_has_small_residual():
    g = an.AnnulusGrid(9, 16)
    psi_bar = an.BoundaryTrace(g, an.GAMMA_L, np.ones(g.n_half + 1))
    mu = an.BoundaryTrace(g, an.GAMMA_R, an.apply_A_sharp(g, psi_bar).values)
    psi = an.solve_sentinel_equation(g, mu)
    m = an.grid_solver(g).flux_to_trace
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
    """Empty the solver cache, which holds each grid's TSVD too, and count
    AnnulusBVPSolver constructions."""
    an.grid_solver.cache_clear()
    calls = []
    original = an.AnnulusBVPSolver.__init__

    def counting(self, grid):
        calls.append(grid)
        original(self, grid)

    monkeypatch.setattr(an.AnnulusBVPSolver, "__init__", counting)
    yield calls
    an.grid_solver.cache_clear()


def test_table1_factorizes_once(factorizations):
    table1_rows()
    g = an.AnnulusGrid(33, 128)
    assert factorizations == [g]
    # an alternating iteration on the same grid reuses that factorization
    an.kozlov_mazya_solve(g, an.BoundaryTrace(g, an.GAMMA_R, np.ones(g.n_half + 1)), max_iter=2)
    assert factorizations == [g]


def test_kozlov_mazya_factorizes_each_pattern_once(factorizations):
    # steps (i) and (ii) solve mirror-image patterns, both read from the
    # grid's one solver
    g = an.AnnulusGrid(9, 16)
    mu = an.BoundaryTrace(g, an.GAMMA_R, np.ones(g.n_half + 1))
    first = an.kozlov_mazya_solve(g, mu, max_iter=5)
    assert factorizations == [g]
    again = an.kozlov_mazya_solve(an.AnnulusGrid(9, 16), mu, max_iter=5)
    assert factorizations == [g]
    np.testing.assert_array_equal(again.psi.values, first.psi.values)
    np.testing.assert_array_equal(again.residuals, first.residuals)


def test_cached_trace_operators_match_a_fresh_solver():
    g = an.AnnulusGrid(17, 64)
    t = g.arc_params
    fresh = an.AnnulusBVPSolver(g)
    cached = an.grid_solver(g)
    assert cached is an.grid_solver(an.AnnulusGrid(17, 64))
    assert cached is not fresh
    phi = np.sin(t) + t**2
    w = fresh.solve(gamma_r=phi)
    np.testing.assert_array_equal(cached.solve(gamma_r=phi), w)
    np.testing.assert_array_equal(
        an.apply_A(g, an.BoundaryTrace(g, an.GAMMA_R, phi)).values,
        w[g.segment_angular_indices(an.GAMMA_L)],
    )
    psi = np.cos(t) - 0.5
    v = fresh.solve(gamma_l=psi)
    np.testing.assert_array_equal(
        an.apply_A_sharp(g, an.BoundaryTrace(g, an.GAMMA_L, psi)).values,
        fresh.outer_normal_derivative(v)[g.segment_angular_indices(an.GAMMA_R)],
    )


def fresh_tsvd_psi(g, mu):
    """TSVD solve of -A_sharp(psi) = mu from an uncached SVD."""
    u, s, vt = np.linalg.svd(an.grid_solver(g).flux_to_trace)
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
    # Gamma_l, with v = 0 on Gamma_r and zero flux on the hole, solved
    # column by column by the finite-difference scheme
    g = an.AnnulusGrid(17, 64)
    oracle = FiniteDifferenceOracle(g)
    gr_idx = g.segment_angular_indices(an.GAMMA_R)
    columns = []
    for unit in np.eye(g.n_half + 1):
        v = oracle.solve(gamma_l=unit)
        columns.append(oracle.outer_normal_derivative(v)[gr_idx])
    expected = np.column_stack(columns)
    matrix = an.grid_solver(g).flux_to_trace
    assert np.max(np.abs(matrix - expected)) <= 1e-9 * np.max(np.abs(expected))


def count_bvp_solves(monkeypatch):
    """Record the data of every AnnulusBVPSolver.solve call from here on."""
    calls = []
    original = an.AnnulusBVPSolver.solve

    def counting(self, *args, **data):
        calls.append((args, data))
        return original(self, *args, **data)

    monkeypatch.setattr(an.AnnulusBVPSolver, "solve", counting)
    return calls


def test_repeated_sentinel_solve_makes_no_bvp_solves(factorizations, monkeypatch):
    g = an.AnnulusGrid(17, 64)
    mu = an.BoundaryTrace(g, an.GAMMA_R, np.sin(g.arc_params))
    calls = count_bvp_solves(monkeypatch)
    # the flux-to-trace matrix is built with the grid's solver, once, so
    # no sentinel solve calls the BVP solve
    an.solve_sentinel_equation(g, mu)
    assert calls == []
    assert factorizations == [g]
    an.solve_sentinel_equation(an.AnnulusGrid(17, 64), mu)
    assert calls == []
    assert factorizations == [g]


def test_cached_tsvd_factors_are_read_only(factorizations):
    solver = an.grid_solver(an.AnnulusGrid(9, 16))
    assert solver.tsvd is solver.tsvd
    for factor in (solver.flux_to_trace, *solver.tsvd):
        with pytest.raises(ValueError):
            factor[0] = 1.0


def test_table1_and_an_iteration_share_one_svd(factorizations, monkeypatch, tmp_path):
    calls = []
    svd = np.linalg.svd

    def counting(a):
        calls.append(a.shape)
        return svd(a)

    monkeypatch.setattr(np.linalg, "svd", counting)
    table1_rows()
    g = an.AnnulusGrid(33, 128)
    an.kozlov_mazya_solve(g, an.BoundaryTrace(g, an.GAMMA_R, np.ones(g.n_half + 1)), max_iter=2)
    _run_table1(ExperimentConfig("table1"), str(tmp_path))
    assert calls == [(65, 65)]
    assert factorizations == [g]
    lines = (tmp_path / "table1_tsvd.csv").read_text().splitlines()[1:]
    kept = [int(line.split(",")[3]) for line in lines]
    assert kept == sorted(kept, reverse=True)
    assert sum(kept) == an.grid_solver(g).tsvd[2].size


def _ones(grid, segment):
    return an.BoundaryTrace(grid, segment, np.ones(grid.n_half + 1))


# Each annulus entry point on grid g, given one trace on grid h
_ENTRY_POINTS = {
    "apply_A": lambda g, h: an.apply_A(g, _ones(h, an.GAMMA_R)),
    "apply_A_sharp": lambda g, h: an.apply_A_sharp(g, _ones(h, an.GAMMA_L)),
    "solve_sentinel_equation": lambda g, h: an.solve_sentinel_equation(g, _ones(h, an.GAMMA_R)),
    "kozlov_mazya_solve": lambda g, h: an.kozlov_mazya_solve(g, _ones(h, an.GAMMA_R), max_iter=2),
    "sentinel_reconstruct_psi": lambda g, h: an.sentinel_reconstruct(
        g, _ones(h, an.GAMMA_L), _ones(g, an.GAMMA_L), 1.0, 1.0
    ),
    "sentinel_reconstruct_f": lambda g, h: an.sentinel_reconstruct(
        g, _ones(g, an.GAMMA_L), _ones(h, an.GAMMA_L), 1.0, 1.0
    ),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_annulus_entry_points_reject_a_trace_of_another_grid(entry):
    # 9 x 16 and 17 x 16 share n_half, so a trace of one has the length
    # the other expects; kozlov_mazya_solve used to read such a mu as data
    # (residuals 1.0, 0.973, 0.948)
    g = an.AnnulusGrid(9, 16)
    _ENTRY_POINTS[entry](g, g)
    with pytest.raises(ValueError, match="grid"):
        _ENTRY_POINTS[entry](g, an.AnnulusGrid(17, 16))


def mirror_nodes(grid):
    """Flat node order of the reflection m -> -m of angular nodes, which
    maps Gamma_l's arc node j onto Gamma_r's."""
    m = np.arange(grid.n_theta)
    return (np.arange(grid.n_r)[:, None] * grid.n_theta + (-m) % grid.n_theta).ravel()


def rhs_by_node(grid, kinds, data):
    """Right-hand side written node by node from one array per outer half,
    Gamma_r then Gamma_l: the Dirichlet half's data own the two contact
    nodes, the other half's fluxes the nodes between them."""
    n_t = grid.n_theta
    rhs = np.zeros(grid.n_r * n_t)
    for segment, kind, trace in zip((an.GAMMA_R, an.GAMMA_L), kinds, data):
        for j, m in enumerate(grid.segment_angular_indices(segment)):
            if kind == DIRICHLET or m not in (0, grid.n_half):
                rhs[(grid.n_r - 1) * n_t + m] = trace[j]
    return rhs


@pytest.mark.parametrize("kinds", PATTERNS)
def test_rhs_scatter_matches_node_by_node(kinds):
    g = an.AnnulusGrid(9, 16)
    oracle = FiniteDifferenceOracle(g)
    rng = np.random.default_rng(5)
    # distinct values at the contact nodes on each half, so ownership shows
    data = tuple(rng.uniform(-1.0, 1.0, g.n_half + 1) for _ in range(2))
    if kinds == DIRICHLET_R:
        rhs = oracle._rhs(data)
    else:
        # the mirrored solve takes Gamma_l's Dirichlet data as gamma_r and
        # Gamma_r's fluxes as gamma_l
        rhs = oracle._rhs(data[::-1])[mirror_nodes(g)]
    np.testing.assert_array_equal(rhs, rhs_by_node(g, kinds, data))


# The solver's one linear solve is the per-grid X = Lambda_LL^-1
# [I | Lambda_LR]; a solve call is products with X's blocks. The two
# tests below keep their LU names.


def test_fine_grid_solve_is_one_lu_solve_within_the_bound(monkeypatch):
    # Data on which the product with X at 65 x 256 leaves a residual of
    # 1.1e-13 (||Lambda_LL||_inf ~ 107, |u_L| ~ 2.6): 1.7 eps *
    # ||Lambda_LL|| |u_L|, so accepted, with no linear solve on a built
    # solver.
    g = an.AnnulusGrid(65, 256)
    t = g.arc_params
    flux = 1.0 - 0.09746079213710429 * np.cos(t) + 0.023852225648510084 * np.sin(2 * t)
    solver = an.grid_solver(g)
    calls = []
    linear_solve = np.linalg.solve

    def counting(*args):
        calls.append(args)
        return linear_solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting)
    u = solver.solve(gamma_l=flux)
    assert calls == []
    l_nodes = g.segment_angular_indices(an.GAMMA_L)[1:-1]
    block = solver._dtn[np.ix_(l_nodes, l_nodes)]
    u_l, rhs = u[l_nodes], flux[1:-1]
    norm = np.abs(block).sum(axis=1).max()
    bound = an.BACKWARD_LIMIT * (norm * np.max(np.abs(u_l)) + np.max(np.abs(rhs)))
    assert np.max(np.abs(block @ u_l - rhs)) <= bound


@pytest.mark.parametrize("error", [1e-9, 1e-6, 0.5])
def test_solve_rejects_an_inaccurate_lu(error):
    # X's blocks scaled by 1 + error make every solve off by that
    # relative error, whichever halves of data it is given: Dirichlet
    # only, flux only, or both
    g = an.AnnulusGrid(9, 16)
    solver = an.AnnulusBVPSolver(g)
    solver._x_i = solver._x_i * (1.0 + error)
    solver._x_c = solver._x_c * (1.0 + error)
    for halves in (("gamma_r",), ("gamma_l",), ("gamma_r", "gamma_l")):
        with pytest.raises(RuntimeError, match="fails backward-error test"):
            solver.solve(**{half: np.cos(g.arc_params) for half in halves})


def test_build_rejects_an_inaccurate_block_solve(monkeypatch):
    # the per-grid solve is tested column by column: one column of the
    # coupling block off by 1e-9 fails the build
    linear_solve = np.linalg.solve

    def perturbed(a, b):
        x = linear_solve(a, b)
        x[:, -1] *= 1.0 + 1e-9
        return x

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    with pytest.raises(RuntimeError, match="fails backward-error test"):
        an.AnnulusBVPSolver(an.AnnulusGrid(9, 16))


def outer_kind_by_node(grid, kinds, m):
    """Condition kind at angular node m of the outer circle: the
    Dirichlet half owns both contact nodes."""
    kind_r, kind_l, _ = kinds
    if m in (0, grid.n_half):
        return DIRICHLET
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
            if ring_kinds[m] == DIRICHLET:
                add(row, row, 1.0)
            else:
                add(row, row, r_h / (dr * r_b) + dr / (dt**2 * r_b**2))
                add(row, idx(k_n, m), -r_h / (dr * r_b))
                add(row, idx(k_b, m + 1), -dr / (2 * dt**2 * r_b**2))
                add(row, idx(k_b, m - 1), -dr / (2 * dt**2 * r_b**2))
    n = n_r * n_t
    return sp.csc_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))


def assert_same_csc(matrix, expected):
    np.testing.assert_array_equal(matrix.indptr, expected.indptr)
    np.testing.assert_array_equal(matrix.indices, expected.indices)
    np.testing.assert_array_equal(matrix.data, expected.data)


def pattern_matrix(solver, kinds):
    """The solver's matrix for DIRICHLET_R; for DIRICHLET_L, the matrix
    the mirrored solve stands for: the solver's, with the reflection
    m -> -m of angular nodes applied to rows and columns."""
    if kinds == DIRICHLET_R:
        return solver._matrix
    mirror = mirror_nodes(solver.grid)
    reflected = sp.csc_matrix(solver._matrix[mirror][:, mirror])
    reflected.sort_indices()
    return reflected


@pytest.mark.parametrize("shape", [(9, 16), (17, 64)])
@pytest.mark.parametrize("kinds", PATTERNS)
def test_matrix_matches_node_by_node(kinds, shape):
    g = an.AnnulusGrid(*shape)
    assert_same_csc(pattern_matrix(FiniteDifferenceOracle(g), kinds), matrix_by_node(g, kinds))


@pytest.mark.parametrize("kinds", PATTERNS)
def test_outer_neumann_rows_are_the_read_off_rows(kinds):
    # imposing u_nu and reading u_r on the outer circle use the same rows;
    # in the mirrored pattern too, as the ring rows are symmetric in
    # +-dtheta
    g = an.AnnulusGrid(9, 16)
    oracle = FiniteDifferenceOracle(g)
    rows = pattern_matrix(oracle, kinds).tocsr()
    neumann = [m for m in range(g.n_theta) if outer_kind_by_node(g, kinds, m) == NEUMANN]
    assert len(neumann) == g.n_half - 1
    for m in neumann:
        np.testing.assert_array_equal(
            rows[(g.n_r - 1) * g.n_theta + m].toarray(), oracle._outer_flux[m].toarray()
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
    # the scheme's read-off rows on any field, and Lambda on the outer
    # trace of a solved field, which the rows read there too
    g = an.AnnulusGrid(*shape)
    oracle = fd_oracle(g)
    rng = np.random.default_rng(3)
    field = rng.uniform(-1.0, 1.0, (g.n_r, g.n_theta))
    expected = normal_derivative_by_roll(g, field)
    np.testing.assert_allclose(
        oracle.outer_normal_derivative(field),
        expected,
        rtol=0,
        atol=1e-13 * np.max(np.abs(expected)),
    )
    field = oracle.solve(gamma_l=rng.uniform(-1.0, 1.0, g.n_half + 1))
    expected = normal_derivative_by_roll(g, field)
    np.testing.assert_allclose(
        an.grid_solver(g).outer_normal_derivative(field[-1]),
        expected,
        rtol=0,
        atol=1e-13 * np.max(np.abs(expected)),
    )


def gamma_l_dirichlet_eta(grid, g_k, mu):
    """Step (ii) of the alternating iteration as a direct sparse solve of
    the Gamma_l-Dirichlet problem assembled node by node: Dirichlet data
    g_k on Gamma_l, contact nodes included, flux -mu on the interior
    nodes of Gamma_r and zero flux on the hole. Returns u_nu on Gamma_l."""
    rim = (grid.n_r - 1) * grid.n_theta
    gl_idx = grid.segment_angular_indices(an.GAMMA_L)
    rhs = np.zeros(grid.n_r * grid.n_theta)
    rhs[rim + np.arange(1, grid.n_half)] = -mu[1:-1]
    rhs[rim + gl_idx] = g_k
    u = spla.spsolve(matrix_by_node(grid, DIRICHLET_L), rhs)
    return normal_derivative_by_roll(grid, u.reshape(grid.n_r, grid.n_theta))[gl_idx]


@pytest.mark.parametrize("shape", [(9, 16), (17, 64)])
def test_mirrored_step_matches_a_gamma_l_dirichlet_solve(shape):
    g = an.AnnulusGrid(*shape)
    t = g.arc_params
    mu = an.BoundaryTrace(g, an.GAMMA_R, np.sin(t) + 0.5 * np.cos(3 * t))
    one = an.kozlov_mazya_solve(g, mu, max_iter=1, tol=0.0)
    two = an.kozlov_mazya_solve(g, mu, max_iter=2, tol=0.0)
    # step (i) of the second round: the Gamma_l trace g_1 of the field
    # with flux eta_1 on Gamma_l and v = 0 on Gamma_r
    v = an.grid_solver(g).solve(gamma_l=one.psi.values)
    expected = gamma_l_dirichlet_eta(g, v[g.segment_angular_indices(an.GAMMA_L)], mu.values)
    assert np.max(np.abs(two.psi.values - expected)) <= 1e-10 * np.max(np.abs(expected))


def two_solve_kozlov_mazya(grid, mu, max_iter):
    """The alternating iteration as two BVP solves per step, each read off
    with Lambda: step (i) with flux eta on Gamma_l and zero Dirichlet data
    on Gamma_r, step (ii) mirrored, with step (i)'s Gamma_l trace as the
    Dirichlet data and the flux -mu. Returns the residuals and the last
    eta."""
    solver = an.grid_solver(grid)
    gl_idx = grid.segment_angular_indices(an.GAMMA_L)
    gr_idx = grid.segment_angular_indices(an.GAMMA_R)
    eta = np.zeros(grid.n_half + 1)
    residuals = []
    for k in range(max_iter + 1):
        v = solver.solve(gamma_l=eta)
        residuals.append(np.max(np.abs(solver.outer_normal_derivative(v)[gr_idx] + mu)))
        if k == max_iter:
            return np.array(residuals), eta
        u = solver.solve(gamma_r=v[gl_idx], gamma_l=-mu)
        eta = solver.outer_normal_derivative(u)[gr_idx]


@pytest.mark.parametrize("shape", [(9, 16), (17, 64), (33, 128)])
def test_affine_iteration_matches_the_two_solve_loop(shape, monkeypatch):
    g = an.AnnulusGrid(*shape)
    t = g.arc_params
    psi_bar = an.BoundaryTrace(g, an.GAMMA_L, 1.0 + np.cos(t) + 0.3 * np.sin(2 * t))
    mu = an.BoundaryTrace(g, an.GAMMA_R, -an.apply_A_sharp(g, psi_bar).values)
    residuals, psi = two_solve_kozlov_mazya(g, mu.values, 100)
    calls = count_bvp_solves(monkeypatch)
    result = an.kozlov_mazya_solve(g, mu, max_iter=100, tol=0.0)
    assert calls == []
    assert np.max(np.abs(result.residuals - residuals)) <= 1e-12 * np.max(residuals)
    assert np.max(np.abs(result.psi.values - psi)) <= 1e-12 * np.max(np.abs(psi))


def assert_is_the_tol_zero_run_truncated(g, mu, max_iter, tol, keep_iterates):
    """A run at tol equals the tol = 0 run cut at its first residual <= tol,
    in residuals, psi, iterates and converged. Returns the stop index."""
    full = an.kozlov_mazya_solve(
        g, mu, max_iter=max_iter, tol=0.0, keep_iterates=tuple(range(max_iter + 1))
    )
    hits = np.flatnonzero(full.residuals <= tol)
    stop = hits[0] if hits.size else len(full.residuals) - 1
    result = an.kozlov_mazya_solve(g, mu, max_iter=max_iter, tol=tol, keep_iterates=keep_iterates)
    np.testing.assert_array_equal(result.residuals, full.residuals[: stop + 1])
    np.testing.assert_array_equal(result.psi.values, full.iterates[stop][1].values)
    assert [k for k, _ in result.iterates] == [k for k in range(stop + 1) if k in keep_iterates]
    for k, trace in result.iterates:
        np.testing.assert_array_equal(trace.values, full.iterates[k][1].values)
    assert result.converged == (hits.size > 0)
    return stop


def consistent_mu(g):
    t = g.arc_params
    psi_bar = an.BoundaryTrace(g, an.GAMMA_L, 1.0 + np.cos(t) + 0.3 * np.sin(2 * t))
    return an.BoundaryTrace(g, an.GAMMA_R, -an.apply_A_sharp(g, psi_bar).values)


def test_zero_data_stop_at_the_first_step():
    g = an.AnnulusGrid(9, 16)
    mu = an.BoundaryTrace(g, an.GAMMA_R, np.zeros(g.n_half + 1))
    assert assert_is_the_tol_zero_run_truncated(g, mu, 100, 1e-8, (0, 3)) == 0


def test_iterates_past_the_stop_are_not_kept():
    g = an.AnnulusGrid(9, 16)
    mu = consistent_mu(g)
    tol = an.kozlov_mazya_solve(g, mu, max_iter=20, tol=0.0).residuals[20]
    # unsorted, repeated, and past the stop
    stop = assert_is_the_tol_zero_run_truncated(g, mu, 100, tol, (21, 5, 0, 20, 5, 90))
    assert stop == 20


def test_negative_tolerance_runs_every_step():
    g = an.AnnulusGrid(9, 16)
    stop = assert_is_the_tol_zero_run_truncated(g, consistent_mu(g), 70, -1.0, (1, 64, 70))
    assert stop == 70


def test_stop_in_a_third_block_matches_the_two_solve_loop():
    g = an.AnnulusGrid(9, 16)
    mu = consistent_mu(g)
    max_iter = 3 * an._BLOCK_STEPS + 10
    # on this data the residual falls from step 33 to step 147
    tol = an.kozlov_mazya_solve(g, mu, max_iter=max_iter, tol=0.0).residuals[2 * an._BLOCK_STEPS + 5]
    stop = assert_is_the_tol_zero_run_truncated(g, mu, max_iter, tol, (0, 64, 128, 133))
    assert stop == 2 * an._BLOCK_STEPS + 5
    result = an.kozlov_mazya_solve(g, mu, max_iter=max_iter, tol=tol)
    residuals, psi = two_solve_kozlov_mazya(g, mu.values, stop)
    assert np.max(np.abs(result.residuals - residuals)) <= 1e-12 * np.max(residuals)
    assert np.max(np.abs(result.psi.values - psi)) <= 1e-12 * np.max(np.abs(psi))


def test_kozlov_mazya_rejects_a_negative_step_count():
    g = an.AnnulusGrid(9, 16)
    with pytest.raises(ValueError):
        an.kozlov_mazya_solve(g, an.BoundaryTrace(g, an.GAMMA_R, np.ones(g.n_half + 1)), max_iter=-1)


def test_kozlov_mazya_memory_does_not_grow_with_the_step_count():
    g = an.AnnulusGrid(33, 128)
    mu = consistent_mu(g)
    an.kozlov_mazya_solve(g, mu, max_iter=1, tol=0.0)
    peaks = []
    for max_iter in (100, 10_000):
        tracemalloc.start()
        an.kozlov_mazya_solve(g, mu, max_iter=max_iter, tol=0.0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # the returned residuals, 8 bytes a step, are the only difference
    assert abs(peaks[1] - peaks[0] - 8 * 9_900) <= 1024


@pytest.mark.parametrize("shape", [(17, 64), (33, 128), (65, 256)])
def test_fig6_and_random_flux_data_are_consistent_and_noisy_data_are_not(shape):
    g = an.AnnulusGrid(*shape)
    mu = an.apply_A_sharp(g, an.BoundaryTrace(g, an.GAMMA_L, np.ones(g.n_half + 1)))
    result = an.kozlov_mazya_solve(g, mu, max_iter=100, tol=1e-12)
    assert not result.converged
    assert not result.inconsistent
    rng = np.random.default_rng(16)
    rough = an.apply_A_sharp(g, an.BoundaryTrace(g, an.GAMMA_L, rng.uniform(-1.0, 1.0, g.n_half + 1)))
    assert not an.kozlov_mazya_solve(g, rough, max_iter=5).inconsistent
    noisy = an.BoundaryTrace(g, an.GAMMA_R, mu.values + 1e-3 * rng.uniform(-1.0, 1.0, g.n_half + 1))
    assert an.kozlov_mazya_solve(g, noisy, max_iter=5).inconsistent


def test_step_matrix_is_lazy_cached_and_read_only(factorizations):
    table1_rows()
    g = an.AnnulusGrid(33, 128)
    # a grid that never iterates builds no step matrix
    assert "step_matrix" not in vars(an.grid_solver(g))
    an.kozlov_mazya_solve(g, an.BoundaryTrace(g, an.GAMMA_R, np.ones(g.n_half + 1)), max_iter=2)
    step = an.grid_solver(g).step_matrix
    assert an.grid_solver(g).step_matrix is step
    assert not step.flags.writeable
    assert factorizations == [g]


KM_GRIDS = (an.AnnulusGrid(9, 8), an.AnnulusGrid(9, 16), an.AnnulusGrid(17, 64), an.AnnulusGrid(33, 128))


@pytest.mark.parametrize("g", KM_GRIDS, ids=lambda g: f"{g.n_r}x{g.n_theta}")
def test_step_matrix_is_energy_self_adjoint_with_spectrum_in_the_unit_interval(g):
    # M is self-adjoint in the Neumann-energy inner product <., X_I .>
    # (measured <= 1.9e-15 relative), so its eigenvalues are real; they
    # lie in [0.60, 1] at 33 x 128
    solver = an.grid_solver(g)
    interior = solver.step_matrix[1:-1]
    energy_step = solver._x_i @ interior
    assert np.max(np.abs(energy_step - energy_step.T)) <= 1e-13 * np.max(np.abs(energy_step))
    eigenvalues = np.linalg.eigvals(interior)
    assert np.max(np.abs(eigenvalues.imag)) <= 1e-12
    assert -1e-12 <= np.min(eigenvalues.real) and np.max(eigenvalues.real) <= 1 + 1e-12


@given(st.sampled_from(KM_GRIDS), st.data())
def test_kozlov_mazya_fixes_the_flux_and_never_raises_the_error_energy(g, data):
    elements = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) > 1e-100)
    psi_bar = data.draw(hnp.arrays(float, g.n_half + 1, elements=elements))
    mu = -an.apply_A_sharp(g, an.BoundaryTrace(g, an.GAMMA_L, psi_bar)).values
    solver = an.grid_solver(g)
    step, flux_to_trace = solver.step_matrix, solver.flux_to_trace
    # psi_bar's interior values are a fixed point of the step
    image = step @ psi_bar[1:-1] - flux_to_trace @ mu
    scale = np.abs(step) @ np.abs(psi_bar[1:-1]) + np.abs(flux_to_trace) @ np.abs(mu)
    assert np.max(np.abs(image - psi_bar)[1:-1]) <= 1e-12 * np.max(scale)
    # the error energy e^T X_I e does not increase from step to step
    result = an.kozlov_mazya_solve(
        g, an.BoundaryTrace(g, an.GAMMA_R, mu), max_iter=30, tol=-1.0, keep_iterates=tuple(range(31))
    )
    errors = np.array([eta.values[1:-1] - psi_bar[1:-1] for _, eta in result.iterates])
    energy = np.einsum("ki,ij,kj->k", errors, solver._x_i, errors)
    assert np.all(np.diff(energy) <= 1e-12 * energy[0])


def test_dirichlet_to_flux_symbol_converges_to_the_continuum_at_second_order():
    # Fourier mode p of the continuum map with zero flux on r = 1/2:
    # u = r^p + 4^-p r^-p, so u_r(1) / u(1) = p tanh(p ln 2)
    p = np.array([1, 2, 4, 8])
    continuum = p * np.tanh(p * np.log(2))
    errors = []
    for n_r, n_theta in [(9, 32), (17, 64), (33, 128), (65, 256), (129, 512)]:
        symbol = np.fft.fft(an.grid_solver(an.AnnulusGrid(n_r, n_theta))._dtn[:, 0]).real
        errors.append(np.abs(symbol[p] - continuum))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    # measured 2.00 to 2.06
    assert np.all((orders > 1.95) & (orders < 2.1))


@pytest.mark.parametrize("shape", [(9, 8), (17, 64), (33, 128), (65, 256)])
def test_dirichlet_to_flux_map_is_the_schur_complement(shape):
    g = an.AnnulusGrid(*shape)
    expected = fd_oracle(g).schur_complement()
    dtn = an.grid_solver(g)._dtn
    assert np.max(np.abs(dtn - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("shape", [(9, 8), (17, 64), (65, 256)])
def test_dirichlet_to_flux_map_is_symmetric_and_annihilates_constants(shape):
    dtn = an.grid_solver(an.AnnulusGrid(*shape))._dtn
    rounding = 100 * np.finfo(float).eps * np.max(np.abs(dtn))
    assert np.max(np.abs(dtn - dtn.T)) <= rounding
    assert np.max(np.abs(dtn @ np.ones(len(dtn)))) <= rounding


@lru_cache(maxsize=4)
def fd_trace_maps(grid):
    """Dense matrices of the finite-difference scheme's outer trace and
    outer u_nu, over all angular nodes, as linear maps of the data
    (gamma_r, gamma_l) stacked."""
    oracle = fd_oracle(grid)
    n = grid.n_half + 1
    traces, fluxes = [], []
    for unit in np.eye(2 * n):
        field = oracle.solve(gamma_r=unit[:n], gamma_l=unit[n:])
        traces.append(field[-1])
        fluxes.append(oracle.outer_normal_derivative(field))
    return np.column_stack(traces), np.column_stack(fluxes)


def assert_agrees(actual, matrix, x):
    """actual = matrix @ x to 1e-9 relative to the rounding scale
    |matrix| |x|, which also holds where matrix @ x cancels to zero."""
    scale = np.max(np.abs(matrix) @ np.abs(x))
    assert np.max(np.abs(actual - matrix @ x)) <= 1e-9 * scale


@given(
    st.sampled_from((an.AnnulusGrid(9, 16), an.AnnulusGrid(17, 64), an.AnnulusGrid(33, 128))),
    st.data(),
)
def test_trace_operators_agree_with_the_finite_difference_scheme(g, data):
    elements = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) > 1e-100)
    right, left = (data.draw(hnp.arrays(float, g.n_half + 1, elements=elements)) for _ in range(2))
    trace_map, flux_map = fd_trace_maps(g)
    n = g.n_half + 1
    gr_idx = g.segment_angular_indices(an.GAMMA_R)
    gl_idx = g.segment_angular_indices(an.GAMMA_L)
    zero = np.zeros(n)
    # A: Dirichlet data on Gamma_r, trace on Gamma_l
    a_phi = an.apply_A(g, an.BoundaryTrace(g, an.GAMMA_R, right)).values
    assert_agrees(a_phi, trace_map[gl_idx], np.concatenate([right, zero]))
    # A_sharp: flux on Gamma_l, u_nu on Gamma_r
    a_sharp_psi = an.apply_A_sharp(g, an.BoundaryTrace(g, an.GAMMA_L, left)).values
    assert_agrees(a_sharp_psi, flux_map[gr_idx], np.concatenate([zero, left]))
    # the mirrored step: Dirichlet data `left` on Gamma_l, flux `right` on
    # Gamma_r, u_nu on Gamma_l; in the solver's frame, the halves swapped
    solver = an.grid_solver(g)
    step = solver.outer_normal_derivative(solver.solve(gamma_r=left, gamma_l=right))
    assert_agrees(step[gr_idx], flux_map[gr_idx], np.concatenate([left, right]))
    # one Kozlov-Maz'ya step, eta_1 -> eta_2, for the data mu = right:
    # step (i) then the mirrored step (ii), composed from the scheme's maps
    mu = an.BoundaryTrace(g, an.GAMMA_R, right)
    # a negative tolerance runs both steps, also for zero data
    result = an.kozlov_mazya_solve(g, mu, max_iter=2, tol=-1.0, keep_iterates=(1,))
    eta_1 = result.iterates[0][1].values
    step_i = trace_map[np.ix_(gl_idx, range(n, 2 * n))]
    step_ii = flux_map[gr_idx]
    composed = np.hstack([step_ii[:, :n] @ step_i, step_ii[:, n:]])
    scale = np.abs(step_ii[:, :n]) @ np.abs(step_i) @ np.abs(eta_1) + np.abs(step_ii[:, n:]) @ np.abs(right)
    dev = np.abs(result.psi.values - composed @ np.concatenate([eta_1, -right]))
    assert np.max(dev) <= 1e-9 * np.max(scale)


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


@given(st.sampled_from(GRIDS), st.sampled_from((1.0, 1e-310)), st.data())
def test_solve_accepts_random_data(g, scale, data):
    # products with X meet the bound on these well-conditioned blocks,
    # also on data scaled into the subnormal range
    elements = st.floats(-1.0, 1.0)
    halves = [
        scale * data.draw(hnp.arrays(float, g.n_half + 1, elements=elements))
        for _ in range(2)
    ]
    u = an.grid_solver(g).solve(*halves)
    assert np.all(np.isfinite(u))


def test_solve_multiplies_only_the_halves_it_is_given():
    # with the other half's blocks gone, each one-half solve still runs
    g = an.AnnulusGrid(9, 16)
    data = np.cos(g.arc_params)
    dirichlet_only = an.AnnulusBVPSolver(g)
    dirichlet_only._x_i = None
    flux_only = an.AnnulusBVPSolver(g)
    flux_only._x_c = flux_only._coupling = None
    solver = an.grid_solver(g)
    np.testing.assert_array_equal(dirichlet_only.solve(gamma_r=data), solver.solve(gamma_r=data))
    np.testing.assert_array_equal(flux_only.solve(gamma_l=data), solver.solve(gamma_l=data))


@given(st.sampled_from(GRIDS), st.sampled_from(("gamma_r", "gamma_l")), st.data())
def test_solve_with_one_half_omitted_is_the_two_product_formula(g, given_half, data):
    # omitting a half multiplies nothing for it, and the trace is still
    # X_I g_L - X_C u_R with zeros for that half, bit for bit
    solver = an.grid_solver(g)
    values = data.draw(hnp.arrays(float, g.n_half + 1, elements=st.floats(-1.0, 1.0)))
    halves = {"gamma_r": np.zeros(g.n_half + 1), "gamma_l": np.zeros(g.n_half + 1)}
    halves[given_half] = values
    expected = np.zeros(g.n_theta)
    expected[solver._r] = halves["gamma_r"]
    expected[solver._l] = solver._x_i @ halves["gamma_l"][1:-1] - solver._x_c @ halves["gamma_r"]
    assert_same_bits(solver.solve(**{given_half: values}), expected)
