"""Elliptic Cauchy problem on the annulus 1/2 < r < 1.

The outer circle is split at the contact points P1 = (0,-1) and
P2 = (0,1) into a right half Gamma_r (x >= 0) and a left half Gamma_l
(x <= 0); the inner circle is Gamma_i. Every operator here rests on one
mixed boundary value problem for the Laplacian: Dirichlet data on
Gamma_r, flux data on Gamma_l and zero flux on Gamma_i; the problem with
the two halves swapped is the same one mirrored.

The problem is defined by second-order finite differences in polar
coordinates in conservative (flux) form, one stencil per ring of nodes.
On a rim the stencil is a half-cell flux balance that reads the normal
derivative, so imposing flux data and reading u_nu are one operation,
which keeps the scheme energy-consistent and makes the alternating
iteration below contract. Every operator reads outer traces only, and
the rings are rotation invariant, so eliminating the inner and interior
rings (an exact Schur complement, the capacitance-matrix idea of Buzbee,
Dorr, George & Golub 1971) leaves a circulant map Lambda from the outer
Dirichlet trace to the outer flux balance. Lambda is what runs: its
eigenvalues come from one Thomas sweep per angular Fourier mode, and one
checked multi-right-hand-side solve on Lambda's Gamma_l block per grid
gives every outer operator as a dense matrix. On top of that sit the
trace-to-trace operators A and A_sharp, the endpoint-correction
functional, the alternating Kozlov-Maz'ya iteration (an affine map on
Gamma_l fluxes) and sentinel reconstruction.

Boundary traces live on the outer halves only and are parameterized by
the arc angle t in [0, pi] measured from P1 (so t coincides with arc
length, the outer radius being 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import _is_count, _read_only

R_INNER = 0.5
R_OUTER = 1.0

GAMMA_R = "gamma_r"
GAMMA_L = "gamma_l"


@dataclass(frozen=True)
class AnnulusGrid:
    n_r: int
    n_theta: int

    def __post_init__(self):
        if not _is_count(self.n_r, 3):
            raise ValueError(f"need an integer n_r >= 3, got {self.n_r}")
        if not _is_count(self.n_theta, 8) or self.n_theta % 2:
            raise ValueError(f"need an even integer n_theta >= 8, got {self.n_theta}")

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

    # Per-grid geometry and the solver below are computed on first use and
    # cached read-only on the grid, so a grid that never asks pays nothing.

    @cached_property
    def arc_params(self) -> np.ndarray:
        """Arc angle t in [0, pi] at the n_half+1 nodes of an outer half."""
        return _read_only(self.dtheta * np.arange(self.n_half + 1))

    @cached_property
    def arc_steps(self) -> np.ndarray:
        """Trapezoid steps diff(arc_params)."""
        return _read_only(np.diff(self.arc_params))

    @cached_property
    def blend_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """cos^2(t/2) and sin^2(t/2) at arc_params, eta_blend's weights of
        its values at P1 and P2."""
        half = self.arc_params / 2
        return _read_only(np.cos(half) ** 2), _read_only(np.sin(half) ** 2)

    def segment_angular_indices(self, segment: str) -> np.ndarray:
        """Angular node indices m along an outer half, ordered by arc
        parameter from P1 to P2."""
        if segment == GAMMA_R:
            return np.arange(self.n_half + 1)
        if segment == GAMMA_L:
            return (-np.arange(self.n_half + 1)) % self.n_theta
        raise ValueError(f"unknown outer half {segment!r}")

    @cached_property
    def solver(self) -> AnnulusBVPSolver:
        """The grid's solver: Lambda and its block solve do not depend on
        the data, so a grid object builds one, on first use."""
        return AnnulusBVPSolver(self)


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
        if not np.isfinite(vals).all():
            raise ValueError("trace values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: AnnulusGrid, segment: str, fn) -> "BoundaryTrace":
        values = np.fromiter(map(fn, grid.arc_params.tolist()), float, grid.n_half + 1)
        return cls(grid, segment, values)


# Normwise backward-error limit of a block solve (Rigal-Gaches; Higham,
# Accuracy and Stability of Numerical Algorithms, section 7.1). Solves
# are products with the explicit inverse X below, which is not backward
# stable in general; on these well-conditioned blocks (cond(Lambda_LL)
# from 4.3 at 9 x 8 to 380 at 129 x 512 and 760 at 257 x 1024) they
# measure at most 0.84 eps at 9 x 8, 3.9 eps at 129 x 512 and 3.6 eps at
# 257 x 1024 over 40 random right-hand sides per grid, and X's own
# columns at most 5 eps, so 64 eps leaves a tenfold margin and still
# rejects a wrong solve.
BACKWARD_LIMIT = 64 * np.finfo(float).eps
_TINY = np.finfo(float).tiny

# Singular values below this fraction of the largest are cut from the
# sentinel TSVD (table1_tsvd.csv shows which are kept).
SENTINEL_RCOND = 1e-8


class AnnulusBVPSolver:
    """Outer traces for the grid's one boundary pattern: Dirichlet data on
    Gamma_r, both contact nodes included, flux data u_nu on the interior
    nodes of Gamma_l, and zero flux on Gamma_i.

    The finite-difference scheme, eliminated down to the outer circle, is
    the circulant Dirichlet-to-flux map Lambda: the outer trace of a
    discrete harmonic field with zero flux on Gamma_i to the outer rim's
    flux balance, which reads u_nu. On the Gamma_l block L (Gamma_l
    without its contact nodes) Lambda is symmetric positive definite. One
    multi-right-hand-side solve X = Lambda_LL^-1 [I | Lambda_LR], with
    blocks X_I and X_C, is made once and accepted column by column; every
    outer operator is a product with its blocks, so a solve is at most two
    matrix-vector products, one per half of data it is given.

    A grid builds its one solver on first use (AnnulusGrid.solver), and
    the solver owns every per-grid operator: the flux-to-trace matrix F
    (flux_to_trace), its truncated SVD (tsvd) and the Kozlov-Maz'ya step
    matrix (step_matrix), all read-only."""

    def __init__(self, grid: AnnulusGrid):
        self.grid = grid
        n_t = grid.n_theta
        dr, dt = grid.dr, grid.dtheta
        r = grid.radii
        # Every ring's stencil is rotation invariant, so the angular Fourier
        # modes decouple. For each mode, with lam = 4 sin^2(pi p / n_theta),
        # a Thomas sweep outward from the inner zero-flux row gives
        # u_k = q_k u_{k+1}; ell is then the outer rim's flux balance per
        # unit outer value, the eigenvalue of Lambda.
        lam = 4 * np.sin(np.pi * np.arange(n_t) / n_t) ** 2
        b = (r[0] + dr / 2) / (dr * r[0])
        q = b / (b + dr * lam / (2 * dt**2 * r[0] ** 2))
        for r_k in r[1:-1]:
            a = (r_k - dr / 2) / (dr**2 * r_k)
            c = (r_k + dr / 2) / (dr**2 * r_k)
            q = c / (a + c + lam / (dt**2 * r_k**2) - a * q)
        ell = (r[-1] - dr / 2) / (dr * r[-1]) * (1 - q) + dr * lam / (2 * dt**2 * r[-1] ** 2)
        column = np.fft.ifft(ell).real
        m = np.arange(n_t)
        self._dtn = column[(m[:, None] - m) % n_t]
        # Gamma_r's and Gamma_l's nodes and Gamma_l's interior nodes, each
        # in arc order
        self._r = grid.segment_angular_indices(GAMMA_R)
        self._l_all = grid.segment_angular_indices(GAMMA_L)
        self._l = self._l_all[1:-1]
        self._block = self._dtn[np.ix_(self._l, self._l)]
        self._coupling = self._dtn[np.ix_(self._l, self._r)]
        # ||Lambda_LL||_inf, the max row sum, for the backward-error test
        self._norm = np.abs(self._block).sum(axis=1).max()
        n_l = len(self._l)
        rhs = np.hstack([np.eye(n_l), self._coupling])
        x = np.linalg.solve(self._block, rhs)
        self._accept(x, rhs)
        self._x_i, self._x_c = x[:, :n_l], x[:, n_l:]
        # Gamma_l flux to Gamma_r flux with zero Dirichlet data on Gamma_r,
        # F = Lambda_RL X_I, and Gamma_r Dirichlet data to Gamma_r flux with
        # zero flux on Gamma_l, S = Lambda_RR - Lambda_RL X_C. F's contact
        # columns are zero: Gamma_r's Dirichlet data own those nodes, so
        # their flux values never enter a solve.
        dtn_rl = self._dtn[np.ix_(self._r, self._l)]
        n = len(self._r)
        self.flux_to_trace = np.zeros((n, n))
        self.flux_to_trace[:, 1:-1] = dtn_rl @ self._x_i
        _read_only(self.flux_to_trace)
        self._dirichlet_to_flux = self._dtn[np.ix_(self._r, self._r)] - dtn_rl @ self._x_c

    @cached_property
    def tsvd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only truncated SVD (sigma, u, s, vt) of F: sigma is the full
        spectrum of np.linalg.svd(F), and u, s, vt are the factors of the
        singular values above SENTINEL_RCOND times the largest, taken by a
        boolean mask (u[:, keep], s[keep], vt[keep]): contiguous copies,
        since products with a prefix view of u round differently (they
        move table1.csv's errors by 2e-16). Like the block solve it
        depends only on the grid, so it is paid once, on a grid's first
        sentinel solve or range test."""
        u, sigma, vt = np.linalg.svd(self.flux_to_trace)
        keep = sigma > SENTINEL_RCOND * sigma[0]
        return tuple(map(_read_only, (sigma, u[:, keep], sigma[keep], vt[keep])))

    @cached_property
    def step_matrix(self) -> np.ndarray:
        """Read-only linear part M = S[:, 1:-1] X_I of the Kozlov-Maz'ya
        step: it maps eta_k's interior values to eta_{k+1} + F mu.

        Step (i)'s trace g_k = G eta_k is X_I eta_k on Gamma_l's interior
        nodes and zero at the contacts. Step (ii) solves the pattern with
        the halves swapped. The reflection x -> -x, angular node m -> -m
        (theta -> -theta measured from P1), maps Gamma_l's arc node j onto
        Gamma_r's arc node j, and Lambda commutes with it (its symbol is
        even in the mode p), so step (ii) is S on the mirrored trace g_k,
        and S reads only its interior columns. M does not depend on the
        data; it is built on first use, so a grid that never iterates
        pays no product."""
        return _read_only(self._dirichlet_to_flux[:, 1:-1] @ self._x_i)

    def _accept(self, x: np.ndarray, rhs: np.ndarray) -> None:
        """Raise RuntimeError unless x, a vector or each column of a matrix,
        passes the normwise backward-error test for Lambda_LL x = rhs:
        max|Lambda_LL x - rhs| <= BACKWARD_LIMIT * (||Lambda_LL||_inf max|x|
        + max|rhs|) + tiny."""
        residual = abs(self._block @ x - rhs).max(axis=0)
        # a product, not a ratio, so zero data (x = 0) make no 0/0; below
        # the smallest normal number (tiny) rounding errors are absolute
        scale = self._norm * abs(x).max(axis=0) + abs(rhs).max(axis=0)
        # a NaN residual fails the test too
        if not (residual <= BACKWARD_LIMIT * scale + _TINY).all():
            raise RuntimeError(
                f"block residual {residual.max():.3e} fails backward-error test"
            )

    def _data(self, segment: str, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != self._r.shape:
            raise ValueError(f"{segment} data needs {self._r.size} values, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"{segment} data must be finite")
        return values

    def solve(self, gamma_r=None, gamma_l=None) -> np.ndarray:
        """Outer trace u at all n_theta angular nodes for Dirichlet values
        gamma_r and fluxes u_nu gamma_l, each at its half's nodes in arc
        order; omitted data are zero. Gamma_l's two contact values are
        ignored, since gamma_r sets those nodes. Non-finite data are a
        ValueError.

        u_L = X_I g_L - X_C u_R, accepted by the backward-error test
        against Lambda_LL u_L = g_L - Lambda_LR u_R. Only the given halves
        are multiplied: an omitted half's product would be +0, and
        subtracting +0 or subtracting from it is exact, so u_L and the
        right-hand side are the same floats without it."""
        u = np.zeros(self.grid.n_theta)
        if gamma_l is None:
            u_l = rhs = np.zeros(self._l.size)
        else:
            rhs = self._data(GAMMA_L, gamma_l)[1:-1]
            u_l = self._x_i @ rhs
        if gamma_r is not None:
            u_r = self._data(GAMMA_R, gamma_r)
            u_l = u_l - self._x_c @ u_r
            rhs = rhs - self._coupling @ u_r
            u[self._r] = u_r
        self._accept(u_l, rhs)
        u[self._l] = u_l
        return u

    def outer_normal_derivative(self, u: np.ndarray) -> np.ndarray:
        """u_r at r = 1 for all angular nodes of the discrete harmonic
        field with outer trace u and zero flux on Gamma_i: Lambda u. It is
        the same flux balance that imposes flux data on Gamma_l (second
        order for discrete harmonic fields, and adjoint to the imposition,
        which the alternating iteration relies on)."""
        return self._dtn @ u


def _solver_for(grid: AnnulusGrid, trace: BoundaryTrace, segment: str) -> AnnulusBVPSolver:
    """grid.solver, once trace is checked to lie on that outer half of an
    equal grid; a trace of another half or another grid is ValueError."""
    if trace.segment != segment or trace.grid != grid:
        raise ValueError(
            f"need a {segment} trace on the {grid.n_r} x {grid.n_theta} grid, got a "
            f"{trace.segment} trace on the {trace.grid.n_r} x {trace.grid.n_theta} grid"
        )
    return grid.solver


def apply_A(grid: AnnulusGrid, phi: BoundaryTrace) -> BoundaryTrace:
    """A(phi) = trace on Gamma_l of the harmonic field with w = phi on
    Gamma_r and zero Neumann data on Gamma_l and Gamma_i."""
    solver = _solver_for(grid, phi, GAMMA_R)
    return BoundaryTrace(grid, GAMMA_L, solver.solve(gamma_r=phi.values)[solver._l_all])


def apply_A_sharp(grid: AnnulusGrid, psi: BoundaryTrace) -> BoundaryTrace:
    """A_sharp(psi) = normal derivative on Gamma_r of the harmonic field
    with v = 0 on Gamma_r, v_nu = psi on Gamma_l, v_nu = 0 on Gamma_i."""
    solver = _solver_for(grid, psi, GAMMA_L)
    vn = solver.outer_normal_derivative(solver.solve(gamma_l=psi.values))
    return BoundaryTrace(grid, GAMMA_R, vn[solver._r])


def trace_inner(u: BoundaryTrace, v: BoundaryTrace) -> float:
    """Trapezoid inner product over arc length on a shared outer half of
    a shared grid (half-weights at the shared contact endpoints): the
    arithmetic of np.trapezoid(u v, arc_params) on the grid's cached
    steps."""
    if u.segment != v.segment or u.grid != v.grid:
        raise ValueError("traces must share an outer half segment and a grid")
    y = u.values * v.values
    return float((u.grid.arc_steps * (y[1:] + y[:-1]) / 2.0).sum())


def eta_blend(grid: AnnulusGrid, a: float, b: float) -> BoundaryTrace:
    """Smooth Gamma_r trace with value a at P1 (t=0) and b at P2 (t=pi)."""
    cos2, sin2 = grid.blend_weights
    return BoundaryTrace(grid, GAMMA_R, a * cos2 + b * sin2)


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


def solve_sentinel_equation(grid: AnnulusGrid, mu: BoundaryTrace) -> BoundaryTrace:
    """Flux psi on Gamma_l with -A_sharp(psi) = mu, by truncated-SVD
    least squares on the assembled flux-to-trace matrix.

    The matrix is numerically singular (severely ill-posed problem plus
    two structurally zero contact columns), so singular values below
    SENTINEL_RCOND times the largest are discarded; the returned psi is the
    minimum-norm least-squares solution of the retained part."""
    _, u, s, vt = _solver_for(grid, mu, GAMMA_R).tsvd
    return BoundaryTrace(grid, GAMMA_L, vt.T @ ((u.T @ (-mu.values)) / s))


# mu counts as outside the range of A_sharp when its part outside the
# left singular vectors that the sentinel TSVD keeps exceeds this fraction
# of max|mu|. mu = A_sharp psi lies outside only by its parts on the cut
# singular values, each below SENTINEL_RCOND times the largest. Measured
# as max|mu - U_k U_k^T mu| / max|mu| on 9 x 8, 9 x 16, 17 x 64, 33 x 128
# and 65 x 256: at most 1.7e-8 for A_sharp psi (psi = 1, two smooth psi
# and 200 uniformly random ones per grid), at least 5.7e-6 for A_sharp(1)
# plus uniform noise of amplitude 1e-3 (200 draws per grid), and at least
# 0.70 for a unit spike at the middle node.
RANGE_LIMIT = 1e-6

# Kozlov-Maz'ya steps per block: the block's iterates are the rows of one
# array and its residuals one matrix product, so the working memory is a
# block whatever max_iter is.
_BLOCK_STEPS = 64


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
    data -mu, and reads off the updated eta_{k+1}. Both steps are linear
    in the data, so from eta_0 = 0 the iteration is the affine map
    eta_{k+1} = M eta_k[1:-1] - F mu, with grid.solver's cached step
    matrix M (step_matrix), and makes no solve.

    residuals[k] = ||A_sharp(eta_k) + mu||_inf = ||F eta_k + mu||_inf. The
    run stops at the first k with residuals[k] <= tol (converged) or at
    max_iter; residuals, psi = eta_k and the iterates kept (those of
    keep_iterates up to k, in increasing order) end there. The steps run
    in blocks of _BLOCK_STEPS, one matrix-vector product each, and each
    block's residuals are one matrix product; steps of the last block
    past the stop are discarded.

    inconsistent is a range test, not a property of the run: mu's part
    outside the left singular vectors that the sentinel TSVD keeps (at
    SENTINEL_RCOND) exceeds RANGE_LIMIT * max|mu|. The residual cannot
    tell: the iteration is Landweber-like, monotone in the error energy
    but not in the residual, and slow on F's near-null modes, so it
    stalls on consistent data too.
    """
    if not _is_count(max_iter, 0):
        raise ValueError(f"need an integer max_iter >= 0, got {max_iter}")
    solver = _solver_for(grid, mu, GAMMA_R)
    flux_to_trace = solver.flux_to_trace
    n = grid.n_half + 1
    # A block row is (eta_k, 1). The step [M | 0 | -F mu] maps its last n
    # entries (eta_k's interior values, a contact value that M does not
    # read, and the 1) to eta_{k+1}: one product per step, shift included.
    affine = np.zeros((n, n))
    affine[:, :-2] = solver.step_matrix
    affine[:, -1] = -(flux_to_trace @ mu.values)
    # bound once: ndarray.dot skips np.dot's dispatch on every step
    step = affine.dot
    block = np.zeros((_BLOCK_STEPS, n + 1))
    block[:, -1] = 1.0
    etas = block[:, :-1]
    residuals = np.empty(max_iter + 1)
    iterates = []
    converged = False
    for k0 in range(0, max_iter + 1, _BLOCK_STEPS):
        rows = min(_BLOCK_STEPS, max_iter + 1 - k0)
        if k0:
            step(block[-1, 1:], out=etas[0])
        for eta, following in zip(block[: rows - 1, 1:], etas[1:rows]):
            step(eta, out=following)
        found = residuals[k0 : k0 + rows]
        abs(etas[:rows] @ flux_to_trace.T + mu.values).max(axis=1, out=found)
        hits = np.flatnonzero(found <= tol)
        if hits.size:
            converged = True
            rows = hits[0] + 1
        iterates += [
            (k, BoundaryTrace(grid, GAMMA_L, etas[k - k0].copy()))
            for k in range(k0, k0 + rows)
            if k in keep_iterates
        ]
        if converged:
            break
    kept = solver.tsvd[1]
    outside = mu.values - kept @ (kept.T @ mu.values)
    inconsistent = bool(abs(outside).max() > RANGE_LIMIT * abs(mu.values).max())
    return KozlovMazyaResult(
        BoundaryTrace(grid, GAMMA_L, etas[rows - 1].copy()),
        residuals[: k0 + rows],
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
