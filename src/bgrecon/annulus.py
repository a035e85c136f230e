"""Elliptic Cauchy problem on the annulus 1/2 < r < 1.

The outer circle is split at the contact points P1 = (0,-1) and
P2 = (0,1) into a right half Gamma_r (x >= 0) and a left half Gamma_l
(x <= 0); the inner circle is Gamma_i. Mixed boundary value problems
for the Laplacian are solved with second-order finite differences in
polar coordinates in conservative (flux) form; Neumann conditions are
imposed by a half-cell flux balance, which keeps the difference
operator energy-consistent so that the alternating iteration below
contracts. Normal derivatives of solved fields are read off through
the same boundary flux balance. On top of that sit the
trace-to-trace operators A and
A_sharp, the endpoint-correction functional, the alternating
Kozlov-Maz'ya iteration, and sentinel reconstruction.

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class MixedBVPSpec:
    """One boundary condition per segment: (kind, trace values)."""

    gamma_r: tuple[str, np.ndarray]
    gamma_l: tuple[str, np.ndarray]
    gamma_i: tuple[str, np.ndarray]

    def __post_init__(self):
        kinds = [self.gamma_r[0], self.gamma_l[0], self.gamma_i[0]]
        for kind in kinds:
            if kind not in (DIRICHLET, NEUMANN):
                raise ValueError(f"unknown condition kind {kind!r}")
        if DIRICHLET not in kinds:
            raise ValueError("all-Neumann problem is rank deficient")

    def condition(self, segment: str) -> tuple[str, np.ndarray]:
        return getattr(self, segment)


class AnnulusBVPSolver:
    """Factorized finite-difference operator for one Dirichlet/Neumann
    pattern; boundary data can vary between solves."""

    def __init__(self, grid: AnnulusGrid, kinds: dict[str, str]):
        if DIRICHLET not in kinds.values():
            raise ValueError("all-Neumann problem is rank deficient")
        self.grid = grid
        self.kinds = dict(kinds)
        self._build()

    def _idx(self, k: int, m: int) -> int:
        return k * self.grid.n_theta + m % self.grid.n_theta

    def _outer_segment_of(self, m: int) -> str:
        """Which outer segment owns angular index m (Dirichlet wins at the
        shared contact nodes)."""
        g = self.grid
        on_r = m <= g.n_half
        on_l = m == 0 or m >= g.n_half
        if on_r and on_l:  # contact node
            if self.kinds[GAMMA_R] == DIRICHLET:
                return GAMMA_R
            if self.kinds[GAMMA_L] == DIRICHLET:
                return GAMMA_L
            return GAMMA_R
        return GAMMA_R if on_r else GAMMA_L

    def _build(self):
        g = self.grid
        n_r, n_t = g.n_r, g.n_theta
        dr, dt = g.dr, g.dtheta
        radii = g.radii
        rows, cols, vals = [], [], []

        def add(r, c, v):
            rows.append(r)
            cols.append(c)
            vals.append(v)

        # interior: conservative form (1/r)(r u_r)_r + u_tt/r^2 = 0 with
        # radial fluxes through the half-node radii r_{k +- 1/2}. The
        # underlying flux scheme is energy-symmetric, which makes the
        # Dirichlet/Neumann alternating iteration below nonexpansive.
        for k in range(1, n_r - 1):
            r = radii[k]
            r_p = r + dr / 2
            r_m = r - dr / 2
            for m in range(n_t):
                row = self._idx(k, m)
                add(row, self._idx(k + 1, m), r_p / (dr**2 * r))
                add(row, self._idx(k - 1, m), r_m / (dr**2 * r))
                add(row, row, -(r_p + r_m) / (dr**2 * r) - 2 / (dt**2 * r**2))
                add(row, self._idx(k, m + 1), 1 / (dt**2 * r**2))
                add(row, self._idx(k, m - 1), 1 / (dt**2 * r**2))

        # Neumann rows balance the half control volume at the rim: boundary
        # flux r*g against the radial flux through the half-node radius
        # r_h and the angular fluxes, normalized so the right-hand side is
        # the prescribed g itself. On the outer circle (k = n_r - 1) the
        # outward normal is +r; on the inner circle (k = 0) it is -r, so a
        # prescribed u_nu = g means u_r = -g at the hole.
        r_out, r_in = radii[-1], radii[0]
        owners = np.array([self._outer_segment_of(m) for m in range(n_t)])
        outer_kinds = [self.kinds[owner] for owner in owners]
        inner_kinds = [self.kinds[GAMMA_I]] * n_t
        for k_b, k_n, r_b, r_h, ring_kinds in (
            (n_r - 1, n_r - 2, r_out, r_out - dr / 2, outer_kinds),
            (0, 1, r_in, r_in + dr / 2, inner_kinds),
        ):
            for m in range(n_t):
                row = self._idx(k_b, m)
                if ring_kinds[m] == DIRICHLET:
                    add(row, row, 1.0)
                else:
                    add(row, row, r_h / (dr * r_b) + dr / (dt**2 * r_b**2))
                    add(row, self._idx(k_n, m), -r_h / (dr * r_b))
                    add(row, self._idx(k_b, m + 1), -dr / (2 * dt**2 * r_b**2))
                    add(row, self._idx(k_b, m - 1), -dr / (2 * dt**2 * r_b**2))

        n = n_r * n_t
        self._matrix = sp.csc_matrix(
            sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
        )
        self._lu = spla.splu(self._matrix)
        # rim scatter for _rhs: per outer segment, the flat indices of the
        # nodes it owns and their positions in its trace
        self._scatter = []
        for segment in (GAMMA_R, GAMMA_L):
            m_idx = g.segment_angular_indices(segment)
            pos = np.flatnonzero(owners[m_idx] == segment)
            self._scatter.append((segment, (n_r - 1) * n_t + m_idx[pos], pos))

    def _rhs(self, spec: MixedBVPSpec) -> np.ndarray:
        g = self.grid
        rhs = np.zeros(g.n_r * g.n_theta)
        for segment, rows, pos in self._scatter:
            rhs[rows] = spec.condition(segment)[1][pos]
        # inner circle: ring k = 0 holds flat indices 0 .. n_theta - 1
        rhs[: g.n_theta] = spec.condition(GAMMA_I)[1]
        return rhs

    def solve(self, spec: MixedBVPSpec) -> np.ndarray:
        for segment in SEGMENTS:
            kind, _ = spec.condition(segment)
            if kind != self.kinds[segment]:
                raise ValueError(
                    f"spec kind for {segment} ({kind}) does not match solver pattern"
                )
        rhs = self._rhs(spec)
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
        """u_r at r = 1 for all angular nodes, read through the same
        half-cell flux balance used to impose Neumann data (second order
        for discrete harmonic fields, and exactly adjoint to the
        imposition, which the alternating iteration relies on)."""
        g = self.grid
        dr, dt = g.dr, g.dtheta
        r_out = g.radii[-1]
        r_om = r_out - dr / 2
        u_b = field[-1]
        angular = (np.roll(u_b, -1) + np.roll(u_b, 1) - 2 * u_b) / (
            dt**2 * r_out**2
        )
        return r_om * (u_b - field[-2]) / (dr * r_out) - dr * angular / 2


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
    return AnnulusBVPSolver(grid, dict(zip(SEGMENTS, kinds)))


def _zero_trace(grid: AnnulusGrid, segment: str) -> np.ndarray:
    return np.zeros(grid.segment_size(segment))


def make_spec(
    grid: AnnulusGrid,
    gamma_r: tuple[str, np.ndarray] | None = None,
    gamma_l: tuple[str, np.ndarray] | None = None,
    gamma_i: tuple[str, np.ndarray] | None = None,
) -> MixedBVPSpec:
    """Spec with zero-Neumann defaults on unspecified segments."""
    return MixedBVPSpec(
        gamma_r or (NEUMANN, _zero_trace(grid, GAMMA_R)),
        gamma_l or (NEUMANN, _zero_trace(grid, GAMMA_L)),
        gamma_i or (NEUMANN, _zero_trace(grid, GAMMA_I)),
    )


def _outer_half_values(grid: AnnulusGrid, field_outer: np.ndarray, segment: str):
    return field_outer[grid.segment_angular_indices(segment)]


def apply_A(grid: AnnulusGrid, phi: BoundaryTrace) -> BoundaryTrace:
    """A(phi) = trace on Gamma_l of the harmonic field with w = phi on
    Gamma_r and zero Neumann data on Gamma_l and Gamma_i."""
    if phi.segment != GAMMA_R:
        raise ValueError("phi must be a Gamma_r trace")
    spec = make_spec(grid, gamma_r=(DIRICHLET, phi.values))
    w = pattern_solver(grid, DIRICHLET_R).solve(spec)
    return BoundaryTrace(grid, GAMMA_L, _outer_half_values(grid, w[-1], GAMMA_L))


def apply_A_sharp(grid: AnnulusGrid, psi: BoundaryTrace) -> BoundaryTrace:
    """A_sharp(psi) = normal derivative on Gamma_r of the harmonic field
    with v = 0 on Gamma_r, v_nu = psi on Gamma_l, v_nu = 0 on Gamma_i."""
    if psi.segment != GAMMA_L:
        raise ValueError("psi must be a Gamma_l trace")
    solver = pattern_solver(grid, DIRICHLET_R)
    spec = make_spec(
        grid,
        gamma_r=(DIRICHLET, _zero_trace(grid, GAMMA_R)),
        gamma_l=(NEUMANN, psi.values),
    )
    v = solver.solve(spec)
    vn = solver.outer_normal_derivative(v)
    return BoundaryTrace(grid, GAMMA_R, _outer_half_values(grid, vn, GAMMA_R))


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


def solve_sentinel_equation(
    grid: AnnulusGrid,
    mu: BoundaryTrace,
    rcond: float = SENTINEL_RCOND,
) -> BoundaryTrace:
    """Flux psi on Gamma_l with -A_sharp(psi) = mu, by truncated-SVD
    least squares on the assembled flux-to-trace matrix.

    The matrix is numerically singular (severely ill-posed problem plus
    two structurally zero contact columns), so singular values below
    rcond times the largest are discarded; the returned psi is the
    minimum-norm least-squares solution of the retained part."""
    if mu.segment != GAMMA_R:
        raise ValueError("mu must be a Gamma_r trace")
    u, s, vt = flux_to_trace_svd(grid)
    keep = s > rcond * s[0]
    coeffs = (u[:, keep].T @ (-mu.values)) / s[keep]
    return BoundaryTrace(grid, GAMMA_L, vt[keep].T @ coeffs)


@dataclass(frozen=True)
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
        spec_i = make_spec(
            grid,
            gamma_r=(DIRICHLET, _zero_trace(grid, GAMMA_R)),
            gamma_l=(NEUMANN, eta),
        )
        v = solver_n.solve(spec_i)
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
        spec_ii = make_spec(
            grid,
            gamma_r=(NEUMANN, -mu.values),
            gamma_l=(DIRICHLET, g_k),
        )
        u = solver_d.solve(spec_ii)
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
