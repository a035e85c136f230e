"""Elliptic Cauchy problem on the annulus 1/2 < r < 1.

The outer circle is split at the contact points P1 = (0,-1) and
P2 = (0,1) into a right half Gamma_r (x >= 0) and a left half Gamma_l
(x <= 0); the inner circle is Gamma_i. Mixed boundary value problems
for the Laplacian are solved with second-order finite differences in
polar coordinates in conservative (flux) form, assembled from one
stencil per ring of nodes. On a rim the ring's rows are a half-cell
flux balance that reads the normal derivative: the same rows impose
Neumann data and read u_nu off solved fields, which keeps the
difference operator energy-consistent, so that the alternating
iteration below contracts. On top of that sit the trace-to-trace
operators A and A_sharp, the endpoint-correction functional, the
alternating Kozlov-Maz'ya iteration, and sentinel reconstruction.

Boundary traces on the outer halves are parameterized by the arc angle
t in [0, pi] measured from P1 (so t coincides with arc length, the
outer radius being 1).
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
GAMMA_I = "gamma_i"
SEGMENTS = (GAMMA_R, GAMMA_L, GAMMA_I)


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
        """Angular node indices m along a segment, ordered by arc parameter
        (outer halves run from P1 to P2; Gamma_i runs over all m)."""
        if segment == GAMMA_R:
            return np.arange(self.n_half + 1)
        if segment == GAMMA_L:
            return (-np.arange(self.n_half + 1)) % self.n_theta
        if segment == GAMMA_I:
            return np.arange(self.n_theta)
        raise ValueError(f"unknown segment {segment!r}")

    def segment_size(self, segment: str) -> int:
        return self.n_theta if segment == GAMMA_I else self.n_half + 1


@dataclass(frozen=True, eq=False)
class BoundaryTrace:
    grid: AnnulusGrid
    segment: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.segment not in SEGMENTS:
            raise ValueError(f"unknown segment {self.segment!r}")
        vals = np.asarray(self.values, dtype=float)
        expected = self.grid.segment_size(self.segment)
        if vals.shape != (expected,):
            raise ValueError(
                f"{self.segment} trace needs {expected} values, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("trace values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: AnnulusGrid, segment: str, fn) -> "BoundaryTrace":
        if segment == GAMMA_I:
            params = grid.thetas
        else:
            params = grid.arc_params
        values = np.fromiter(map(fn, params.tolist()), float, len(params))
        return cls(grid, segment, values)

    def to_csv(self, path) -> None:
        params = (
            self.grid.thetas if self.segment == GAMMA_I else self.grid.arc_params
        )
        with open(path, "w", newline="") as fh:
            fh.write("index,arc_parameter,value\n")
            for i, (t, v) in enumerate(zip(params, self.values)):
                fh.write(f"{i},{t:.12g},{v:.12g}\n")


DIRICHLET = "dirichlet"
NEUMANN = "neumann"


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
    """Factorized finite-difference operator for one boundary pattern:
    kinds gives the condition on (Gamma_r, Gamma_l, Gamma_i), each
    DIRICHLET or NEUMANN, and at least one must be DIRICHLET. The data of
    each solve follow that pattern."""

    def __init__(self, grid: AnnulusGrid, kinds: tuple[str, str, str]):
        if len(kinds) != len(SEGMENTS):
            raise ValueError(f"need one condition kind per segment, got {kinds!r}")
        for kind in kinds:
            if kind not in (DIRICHLET, NEUMANN):
                raise ValueError(f"unknown condition kind {kind!r}")
        if DIRICHLET not in kinds:
            raise ValueError("all-Neumann problem is rank deficient")
        self.grid = grid
        self.kinds = kinds
        self._build()

    def _build(self):
        g = self.grid
        n_r, n_t = g.n_r, g.n_theta
        n = n_r * n_t
        # the outer segment owning each angular node; at the two contact
        # nodes, shared by both halves, Dirichlet wins, and Gamma_r when
        # both halves have the same kind
        kind_r, kind_l, kind_i = self.kinds
        owners = np.where(np.arange(n_t) <= g.n_half, GAMMA_R, GAMMA_L)
        if kind_r == NEUMANN and kind_l == DIRICHLET:
            owners[[0, g.n_half]] = GAMMA_L
        outer_kinds = np.where(owners == GAMMA_R, kind_r, kind_l)
        # each node takes its ring's row, a Dirichlet rim node its
        # identity row (row n + i of the stack below) instead
        rings = [_ring_rows(g, k) for k in range(n_r)]
        self._outer_flux = rings[-1]
        dirichlet = np.zeros(n, dtype=bool)
        dirichlet[:n_t] = kind_i == DIRICHLET
        dirichlet[-n_t:] = outer_kinds == DIRICHLET
        rows = sp.vstack(rings + [sp.eye(n)], format="csr")
        self._matrix = sp.csc_matrix(rows[np.arange(n) + n * dirichlet])
        self._lu = spla.splu(self._matrix)
        # rim scatter for _rhs, in SEGMENTS order: the flat indices of the
        # nodes each segment owns and their positions in its data. The
        # inner circle is ring k = 0, flat indices 0 .. n_theta - 1.
        self._scatter = []
        for segment in (GAMMA_R, GAMMA_L):
            m_idx = g.segment_angular_indices(segment)
            pos = np.flatnonzero(owners[m_idx] == segment)
            self._scatter.append((segment, (n_r - 1) * n_t + m_idx[pos], pos))
        self._scatter.append((GAMMA_I, np.arange(n_t), np.arange(n_t)))

    def _rhs(self, data) -> np.ndarray:
        """Right-hand side for one array (or None) per segment, in
        SEGMENTS order."""
        g = self.grid
        rhs = np.zeros(g.n_r * g.n_theta)
        for (segment, rows, pos), values in zip(self._scatter, data):
            if values is None:
                continue
            expected = g.segment_size(segment)
            if np.shape(values) != (expected,):
                raise ValueError(
                    f"{segment} data needs {expected} values, got {np.shape(values)}"
                )
            rhs[rows] = np.asarray(values, dtype=float)[pos]
        return rhs

    def solve(self, gamma_r=None, gamma_l=None, gamma_i=None) -> np.ndarray:
        """Field u on the grid, shape (n_r, n_theta), for one data array
        per segment. Each array holds Dirichlet values or Neumann fluxes
        u_nu, as the solver's pattern says for that segment, at the
        segment's nodes in arc order; an omitted segment has zero data."""
        rhs = self._rhs((gamma_r, gamma_l, gamma_i))
        u = self._lu.solve(rhs)
        tol = 1e-10 * (1.0 + np.max(np.abs(rhs)))
        residual = self._matrix @ u - rhs
        if np.max(np.abs(residual)) > tol:
            # A backward-stable solve leaves a residual of a few eps*|A|*|u|,
            # which at 65 x 256 (|A| ~ 1e5) can exceed tol on valid data;
            # one step of iterative refinement brings it well below.
            u = u - self._lu.solve(residual)
            residual = self._matrix @ u - rhs
        worst = np.max(np.abs(residual))
        if worst > tol:
            raise RuntimeError(f"BVP solve residual {worst:.3e} above tolerance")
        return u.reshape(self.grid.n_r, self.grid.n_theta)

    def outer_normal_derivative(self, field: np.ndarray) -> np.ndarray:
        """u_r at r = 1 for all angular nodes: the outer rim's flux
        balance rows, which also impose Neumann data there, applied to the
        field (second order for discrete harmonic fields, and adjoint to
        the imposition, which the alternating iteration relies on)."""
        return self._outer_flux @ field.ravel()


# Boundary patterns as (Gamma_r, Gamma_l, Gamma_i) condition kinds. The
# first serves A, A_sharp, the flux-to-trace matrix and step (i) of the
# alternating iteration; the second serves its step (ii).
DIRICHLET_R = (DIRICHLET, NEUMANN, NEUMANN)
DIRICHLET_L = (NEUMANN, DIRICHLET, NEUMANN)


@lru_cache(maxsize=8)
def pattern_solver(grid: AnnulusGrid, kinds: tuple[str, str, str]) -> AnnulusBVPSolver:
    """The factorized solver for a grid and a boundary pattern (kinds in
    SEGMENTS order). The matrix does not depend on the data, so each
    (grid, pattern) pair is factorized once per process and shared."""
    return AnnulusBVPSolver(grid, kinds)


def apply_A(grid: AnnulusGrid, phi: BoundaryTrace) -> BoundaryTrace:
    """A(phi) = trace on Gamma_l of the harmonic field with w = phi on
    Gamma_r and zero Neumann data on Gamma_l and Gamma_i."""
    if phi.segment != GAMMA_R:
        raise ValueError("phi must be a Gamma_r trace")
    w = pattern_solver(grid, DIRICHLET_R).solve(gamma_r=phi.values)
    return BoundaryTrace(grid, GAMMA_L, w[-1][grid.segment_angular_indices(GAMMA_L)])


def apply_A_sharp(grid: AnnulusGrid, psi: BoundaryTrace) -> BoundaryTrace:
    """A_sharp(psi) = normal derivative on Gamma_r of the harmonic field
    with v = 0 on Gamma_r, v_nu = psi on Gamma_l, v_nu = 0 on Gamma_i."""
    if psi.segment != GAMMA_L:
        raise ValueError("psi must be a Gamma_l trace")
    solver = pattern_solver(grid, DIRICHLET_R)
    vn = solver.outer_normal_derivative(solver.solve(gamma_l=psi.values))
    return BoundaryTrace(grid, GAMMA_R, vn[grid.segment_angular_indices(GAMMA_R)])


def trace_inner(u: BoundaryTrace, v: BoundaryTrace) -> float:
    """Trapezoid inner product over arc length on a shared outer half
    (half-weights at the shared contact endpoints)."""
    if u.segment != v.segment or u.segment == GAMMA_I:
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
    if a == 0.0 and b == 0.0 and eta is None:
        return 0.0
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

    Like the factorizations of pattern_solver, they depend only on the
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
    solver_n = pattern_solver(grid, DIRICHLET_R)
    solver_d = pattern_solver(grid, DIRICHLET_L)
    gl_idx = grid.segment_angular_indices(GAMMA_L)
    gr_idx = grid.segment_angular_indices(GAMMA_R)
    eta = np.zeros(grid.n_half + 1)
    residuals = []
    iterates = []
    inconsistent = False
    converged = False
    for k in range(max_iter + 1):
        # step (i): Neumann data eta on Gamma_l, v = 0 on Gamma_r
        v = solver_n.solve(gamma_l=eta)
        vn_outer = solver_n.outer_normal_derivative(v)
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
        # step (ii): Dirichlet data g_k on Gamma_l, Neumann -mu on Gamma_r
        g_k = v[-1][gl_idx]
        u = solver_d.solve(gamma_r=-mu.values, gamma_l=g_k)
        eta = solver_d.outer_normal_derivative(u)[gl_idx]
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
