"""Elliptic Cauchy problem on the annulus 1/2 < r < 1.

The outer circle is split at the contact points P1 = (0,-1) and
P2 = (0,1) into a right half Gamma_r (x >= 0) and a left half Gamma_l
(x <= 0); the inner circle is Gamma_i. Every operator here rests on one
mixed boundary value problem for the Laplacian: Dirichlet data on
Gamma_r, flux data on Gamma_l and zero flux on Gamma_i; the problem with
the two halves swapped is the same one mirrored. It is solved with
second-order finite differences in polar coordinates in conservative
(flux) form, assembled from one stencil per ring of nodes. On a rim the
ring's rows are a half-cell flux balance that reads the normal
derivative: the same rows impose flux data and read u_nu off solved
fields, which keeps the difference operator energy-consistent, so that
the alternating iteration below contracts. On top of that sit the
trace-to-trace operators A and A_sharp, the endpoint-correction
functional, the alternating Kozlov-Maz'ya iteration, and sentinel
reconstruction.

Boundary traces live on the outer halves only and are parameterized by
the arc angle t in [0, pi] measured from P1 (so t coincides with arc
length, the outer radius being 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

R_INNER = 0.5
R_OUTER = 1.0

GAMMA_R = "gamma_r"
GAMMA_L = "gamma_l"


@dataclass(frozen=True)
class AnnulusGrid:
    n_r: int
    n_theta: int

    def __post_init__(self):
        if self.n_r < 3:
            raise ValueError(f"need n_r >= 3, got {self.n_r}")
        if self.n_theta < 8 or self.n_theta % 2:
            raise ValueError(f"need even n_theta >= 8, got {self.n_theta}")

    @property
    def dr(self) -> float:
        return (R_OUTER - R_INNER) / (self.n_r - 1)

    @property
    def dtheta(self) -> float:
        return 2 * np.pi / self.n_theta

    @property
    def radii(self) -> np.ndarray:
        return R_INNER + self.dr * np.arange(self.n_r)

    @property
    def thetas(self) -> np.ndarray:
        """Angles starting at P1 = (0,-1), i.e. theta_m = -pi/2 + m*dtheta."""
        return -np.pi / 2 + self.dtheta * np.arange(self.n_theta)

    @property
    def n_half(self) -> int:
        return self.n_theta // 2

    @property
    def arc_params(self) -> np.ndarray:
        """Arc angle t in [0, pi] at the n_half+1 nodes of an outer half."""
        return self.dtheta * np.arange(self.n_half + 1)

    def segment_angular_indices(self, segment: str) -> np.ndarray:
        """Angular node indices m along an outer half, ordered by arc
        parameter from P1 to P2."""
        if segment == GAMMA_R:
            return np.arange(self.n_half + 1)
        if segment == GAMMA_L:
            return (-np.arange(self.n_half + 1)) % self.n_theta
        raise ValueError(f"unknown outer half {segment!r}")


@dataclass(frozen=True, eq=False)
class BoundaryTrace:
    grid: AnnulusGrid
    segment: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.segment not in (GAMMA_R, GAMMA_L):
            raise ValueError(f"a trace lives on an outer half, not {self.segment!r}")
        vals = np.asarray(self.values, dtype=float)
        expected = self.grid.n_half + 1
        if vals.shape != (expected,):
            raise ValueError(
                f"{self.segment} trace needs {expected} values, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("trace values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: AnnulusGrid, segment: str, fn) -> "BoundaryTrace":
        values = np.fromiter(map(fn, grid.arc_params.tolist()), float, grid.n_half + 1)
        return cls(grid, segment, values)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("index,arc_parameter,value\n")
            for i, (t, v) in enumerate(zip(self.grid.arc_params, self.values)):
                fh.write(f"{i},{t:.12g},{v:.12g}\n")


# Normwise backward-error limit of a BVP solve (Rigal-Gaches; Higham,
# Accuracy and Stability of Numerical Algorithms, section 7.1): splu
# solves measure up to about 7 eps on grids from 9 x 16 to 257 x 1024,
# so 64 eps leaves a tenfold margin and still rejects a wrong solve.
BACKWARD_LIMIT = 64 * np.finfo(float).eps


def _ring_rows(grid: AnnulusGrid, k: int) -> sp.csr_matrix:
    """The n_theta finite-difference rows of ring k, over all
    n_r * n_theta nodes (flat index k * n_theta + m).

    Inside: the conservative form (1/r)(r u_r)_r + u_tt/r^2 = 0 with
    radial fluxes through the half-node radii r -+ dr/2. On a rim: the
    half control volume's balance of the boundary flux r*u_nu against
    the radial flux through the half-node radius r_h and the angular
    fluxes, scaled so that the row reads u_nu. The outward normal is +r
    on the outer circle and -r on the inner one, so the inward neighbour
    is ring k - 1 on the outer circle and ring k + 1 on the inner one.
    The flux form is energy-symmetric, which makes the alternating
    iteration nonexpansive."""
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


class AnnulusBVPSolver:
    """Factorized finite-difference operator for the grid's one boundary
    pattern: Dirichlet data on Gamma_r, both contact nodes included, flux
    data u_nu on the interior nodes of Gamma_l, and zero flux on
    Gamma_i."""

    def __init__(self, grid: AnnulusGrid):
        self.grid = grid
        n_r, n_t = grid.n_r, grid.n_theta
        n = n_r * n_t
        rim = (n_r - 1) * n_t
        gamma_r_nodes = rim + grid.segment_angular_indices(GAMMA_R)
        # rim scatter for _rhs, Gamma_r then Gamma_l: the flat indices of
        # the outer nodes each half's data set and their positions in it.
        # Gamma_r's Dirichlet data own the two contact nodes.
        self._scatter = (
            (GAMMA_R, gamma_r_nodes, slice(None)),
            (GAMMA_L, rim + grid.segment_angular_indices(GAMMA_L)[1:-1], slice(1, -1)),
        )
        # each node takes its ring's row, a Gamma_r node its identity row
        # (row n + i of the stack below) instead
        rings = [_ring_rows(grid, k) for k in range(n_r)]
        self._outer_flux = rings[-1]
        dirichlet = np.zeros(n, dtype=bool)
        dirichlet[gamma_r_nodes] = True
        rows = sp.vstack(rings + [sp.eye(n)], format="csr")
        self._matrix = sp.csc_matrix(rows[np.arange(n) + n * dirichlet])
        # ||A||_inf, the max row sum of |A|, for the backward-error test;
        # taken before splu, so the copy |A| is freed before the LU exists
        self._norm = spla.norm(self._matrix, np.inf)
        self._lu = spla.splu(self._matrix)

    def _rhs(self, data) -> np.ndarray:
        """Right-hand side for one array (or None) per outer half, Gamma_r
        then Gamma_l."""
        g = self.grid
        rhs = np.zeros(g.n_r * g.n_theta)
        for (segment, rows, pos), values in zip(self._scatter, data):
            if values is None:
                continue
            if np.shape(values) != (g.n_half + 1,):
                raise ValueError(
                    f"{segment} data needs {g.n_half + 1} values, got {np.shape(values)}"
                )
            rhs[rows] = np.asarray(values, dtype=float)[pos]
        return rhs

    def solve(self, gamma_r=None, gamma_l=None) -> np.ndarray:
        """Field u on the grid, shape (n_r, n_theta), for Dirichlet values
        gamma_r and fluxes u_nu gamma_l, each at its half's nodes in arc
        order; omitted data are zero. Gamma_l's two contact values are
        ignored, since gamma_r sets those nodes.

        One LU solve per call, accepted by the normwise backward-error
        test max|A u - rhs| <= BACKWARD_LIMIT * (||A||_inf max|u| +
        max|rhs|) + tiny; a solve that fails it raises RuntimeError."""
        rhs = self._rhs((gamma_r, gamma_l))
        u = self._lu.solve(rhs)
        residual = np.max(np.abs(self._matrix @ u - rhs))
        # a product, not a ratio, so zero data (u = 0) make no 0/0; below
        # the smallest normal number (tiny) rounding errors are absolute
        scale = self._norm * np.max(np.abs(u)) + np.max(np.abs(rhs))
        if residual > BACKWARD_LIMIT * scale + np.finfo(float).tiny:
            raise RuntimeError(f"BVP residual {residual:.3e} fails backward-error test")
        return u.reshape(self.grid.n_r, self.grid.n_theta)

    def outer_normal_derivative(self, field: np.ndarray) -> np.ndarray:
        """u_r at r = 1 for all angular nodes: the outer rim's flux
        balance rows, which also impose flux data there, applied to the
        field (second order for discrete harmonic fields, and adjoint to
        the imposition, which the alternating iteration relies on)."""
        return self._outer_flux @ field.ravel()


@lru_cache(maxsize=8)
def grid_solver(grid: AnnulusGrid) -> AnnulusBVPSolver:
    """The factorized solver for a grid. The matrix does not depend on
    the data, so each grid is factorized once per process and shared."""
    return AnnulusBVPSolver(grid)


def apply_A(grid: AnnulusGrid, phi: BoundaryTrace) -> BoundaryTrace:
    """A(phi) = trace on Gamma_l of the harmonic field with w = phi on
    Gamma_r and zero Neumann data on Gamma_l and Gamma_i."""
    if phi.segment != GAMMA_R:
        raise ValueError("phi must be a Gamma_r trace")
    w = grid_solver(grid).solve(gamma_r=phi.values)
    return BoundaryTrace(grid, GAMMA_L, w[-1][grid.segment_angular_indices(GAMMA_L)])


def apply_A_sharp(grid: AnnulusGrid, psi: BoundaryTrace) -> BoundaryTrace:
    """A_sharp(psi) = normal derivative on Gamma_r of the harmonic field
    with v = 0 on Gamma_r, v_nu = psi on Gamma_l, v_nu = 0 on Gamma_i."""
    if psi.segment != GAMMA_L:
        raise ValueError("psi must be a Gamma_l trace")
    solver = grid_solver(grid)
    vn = solver.outer_normal_derivative(solver.solve(gamma_l=psi.values))
    return BoundaryTrace(grid, GAMMA_R, vn[grid.segment_angular_indices(GAMMA_R)])


def trace_inner(u: BoundaryTrace, v: BoundaryTrace) -> float:
    """Trapezoid inner product over arc length on a shared outer half
    (half-weights at the shared contact endpoints)."""
    if u.segment != v.segment:
        raise ValueError("traces must share an outer half segment")
    return float(np.trapezoid(u.values * v.values, u.grid.arc_params))


def eta_blend(grid: AnnulusGrid, a: float, b: float) -> BoundaryTrace:
    """Smooth Gamma_r trace with value a at P1 (t=0) and b at P2 (t=pi)."""
    t = grid.arc_params
    vals = a * np.cos(t / 2) ** 2 + b * np.sin(t / 2) ** 2
    return BoundaryTrace(grid, GAMMA_R, vals)


def correction_functional(
    grid: AnnulusGrid,
    psi: BoundaryTrace,
    a: float,
    b: float,
    eta: BoundaryTrace | None = None,
) -> float:
    """r_{a,b}(psi) = <A eta, psi>_{Gamma_l} + <eta, A_sharp psi>_{Gamma_r}
    for any smooth eta with eta(P1) = a, eta(P2) = b."""
    if eta is None:
        eta = eta_blend(grid, a, b)
    return trace_inner(apply_A(grid, eta), psi) + trace_inner(
        eta, apply_A_sharp(grid, psi)
    )


def flux_to_trace_matrix(grid: AnnulusGrid) -> np.ndarray:
    """Dense matrix of the map from Gamma_l flux data to the Gamma_r
    normal-derivative trace, built column by column from unit fluxes.

    The columns for the two contact nodes are zero: the Dirichlet
    condition on Gamma_r owns those nodes, so their flux values never
    enter the solve."""
    n = grid.n_half + 1
    matrix = np.zeros((n, n))
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        matrix[:, j] = apply_A_sharp(grid, BoundaryTrace(grid, GAMMA_L, unit)).values
    return matrix


@lru_cache(maxsize=8)
def flux_to_trace_svd(grid: AnnulusGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only factors (u, s, vt) of np.linalg.svd(flux_to_trace_matrix).

    Like the factorizations of grid_solver, they depend only on the
    grid, so each grid's n_half + 1 column solves and SVD are paid once
    per process and shared by every sentinel solve."""
    factors = np.linalg.svd(flux_to_trace_matrix(grid))
    for factor in factors:
        factor.flags.writeable = False
    return tuple(factors)


# Singular values below this fraction of the largest are cut from the
# sentinel TSVD (table1_tsvd.csv shows which are kept).
SENTINEL_RCOND = 1e-8


def solve_sentinel_equation(grid: AnnulusGrid, mu: BoundaryTrace) -> BoundaryTrace:
    """Flux psi on Gamma_l with -A_sharp(psi) = mu, by truncated-SVD
    least squares on the assembled flux-to-trace matrix.

    The matrix is numerically singular (severely ill-posed problem plus
    two structurally zero contact columns), so singular values below
    SENTINEL_RCOND times the largest are discarded; the returned psi is the
    minimum-norm least-squares solution of the retained part."""
    if mu.segment != GAMMA_R:
        raise ValueError("mu must be a Gamma_r trace")
    u, s, vt = flux_to_trace_svd(grid)
    keep = s > SENTINEL_RCOND * s[0]
    coeffs = (u[:, keep].T @ (-mu.values)) / s[keep]
    return BoundaryTrace(grid, GAMMA_L, vt[keep].T @ coeffs)


@dataclass(frozen=True, eq=False)
class KozlovMazyaResult:
    psi: BoundaryTrace
    residuals: np.ndarray
    iterates: list
    converged: bool
    inconsistent: bool


def kozlov_mazya_solve(
    grid: AnnulusGrid,
    mu: BoundaryTrace,
    max_iter: int = 100,
    tol: float = 1e-8,
    keep_iterates: tuple[int, ...] = (),
) -> KozlovMazyaResult:
    """Alternating Dirichlet/Neumann iteration for -A_sharp(psi) = mu.

    Seen as a Cauchy problem: find v harmonic with v = 0 and v_nu = -mu
    on Gamma_r, v_nu = 0 on Gamma_i; the unknown is psi = v_nu on
    Gamma_l. Step (i) propagates a Neumann guess eta_k on Gamma_l to a
    Dirichlet trace g_k there; step (ii) solves with g_k and the Cauchy
    data -mu, and reads off the updated eta_{k+1}.

    residuals[k] = ||A_sharp(eta_k) + mu||_inf; a residual that fails to
    decrease over 10 consecutive steps flags probable inconsistency
    (mu outside the range of A_sharp).
    """
    if mu.segment != GAMMA_R:
        raise ValueError("mu must be a Gamma_r trace")
    solver = grid_solver(grid)
    gl_idx = grid.segment_angular_indices(GAMMA_L)
    gr_idx = grid.segment_angular_indices(GAMMA_R)
    eta = np.zeros(grid.n_half + 1)
    residuals = []
    iterates = []
    inconsistent = False
    converged = False
    for k in range(max_iter + 1):
        # step (i): Neumann data eta on Gamma_l, v = 0 on Gamma_r
        v = solver.solve(gamma_l=eta)
        vn_outer = solver.outer_normal_derivative(v)
        residual = float(np.max(np.abs(vn_outer[gr_idx] + mu.values)))
        residuals.append(residual)
        if k in keep_iterates:
            iterates.append((k, BoundaryTrace(grid, GAMMA_L, eta.copy())))
        if residual <= tol:
            converged = True
            break
        if len(residuals) > 10 and residuals[-1] >= residuals[-11]:
            inconsistent = True
        if k == max_iter:
            break
        # step (ii): Dirichlet data g_k on Gamma_l, flux -mu on Gamma_r.
        # The reflection x -> -x, angular node m -> -m (theta -> -theta
        # measured from P1), maps Gamma_l's arc node j onto Gamma_r's arc
        # node j, and _ring_rows is symmetric in +-dtheta, so this is the
        # mirrored solve: the same factorization with the halves' data
        # swapped, read off on Gamma_r.
        g_k = v[-1][gl_idx]
        u = solver.solve(gamma_r=g_k, gamma_l=-mu.values)
        eta = solver.outer_normal_derivative(u)[gr_idx]
    return KozlovMazyaResult(
        BoundaryTrace(grid, GAMMA_L, eta),
        np.asarray(residuals),
        iterates,
        converged,
        inconsistent,
    )


def sentinel_reconstruct(
    grid: AnnulusGrid,
    psi: BoundaryTrace,
    f: BoundaryTrace,
    a: float,
    b: float,
) -> float:
    """<psi, f>_{Gamma_l} - r_{a,b}(psi), with a = phi(P1), b = phi(P2)."""
    return trace_inner(psi, f) - correction_functional(grid, psi, a, b)
