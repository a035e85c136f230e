"""Backus-Gilbert weight systems: assembly, solves, reconstruction,
iterative re-linearization, and the error-budget diagnostics.

The adjoint system has one equation per basis spline,

    sum_i <dA(x0)* e_i, S_j> phi_i = <mu, S_j>,   j = 0..N-1,

plus one extra row enforcing <phi, A x0 - dA(x0) x0> = 0, giving an
overdetermined (N+1) x N system. The block is S D^T, with S the spline
samples and D the linearization matrix of dA(x0); the extra row is
A x0 - D x0 = -nu A1(x0, x0), built from the quadratic term alone. The
system does not depend on the data, and its minimum-norm least-squares
solution is taken through one pseudo-inverse. All inner products use
the same grid trapezoid rule as the forward map, so reconstruction is
exact on the spline subspace for linear operators. The error budget
takes its four terms from the same two pieces, D and the quadratic
term nu A1, so its constraint term is the constraint row's own formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .bspline import CubicBSplineBasis, delta_moments, interpolate
# quad_weighted_integral is not called here; bench/tracing.py patches this name.
from .grid import SampledFunction, quad_weighted_integral
# forward_data and forward_dA are not called here; bench/tracing.py patches these names.
from .volterra import (
    DiscreteForwardMap,
    QuadraticVolterraOperator,
    forward_dA,
    forward_data,
    linearization_matrix,
    quadratic_data,
)


class NearSingularSystemError(np.linalg.LinAlgError):
    """The assembled adjoint block is numerically singular."""


CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class WeightVector:
    coefficients: np.ndarray = field(repr=False)
    residual: float = 0.0

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if not np.isfinite(coeffs).all():
            raise ValueError("weight coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """(N+1) x N matrix: N adjoint rows (one per spline) + constraint row.
    rhs is (N+1,) for one target's moments, or (N+1, T) with one column
    per target; its last row is the constraint's 0."""

    matrix: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    condition: float


def _forward_map(
    op: QuadraticVolterraOperator, fmap: DiscreteForwardMap | None
) -> DiscreteForwardMap:
    """fmap, or op's map when fmap is None; a map of another operator is
    ValueError, since the callers would use it in place of op."""
    if fmap is None:
        return DiscreteForwardMap(op)
    if fmap.op is not op:
        raise ValueError("fmap is the forward map of another operator")
    return fmap


def assemble_adjoint_system(
    op: QuadraticVolterraOperator,
    basis: CubicBSplineBasis,
    x0: SampledFunction,
    mu_moments: np.ndarray,
    fmap: DiscreteForwardMap | None = None,
) -> AssembledSystem:
    fmap = _forward_map(op, fmap)
    mu_moments = np.asarray(mu_moments, dtype=float)
    if mu_moments.ndim not in (1, 2) or mu_moments.shape[0] != basis.size:
        raise ValueError(
            f"expected {basis.size} moments per target, got shape {mu_moments.shape}"
        )
    d = linearization_matrix(fmap, x0)
    # block[j, i] = <dA(x0)* e_i, S_j>; the extra row is
    # A x0 - dA(x0) x0 = -nu A1(x0, x0), identically 0 for nu = 0
    block = basis.node_values() @ d.T
    matrix = np.vstack([block, -quadratic_data(fmap, x0)])
    condition = float(np.linalg.cond(block))
    if condition > CONDITION_LIMIT:
        raise NearSingularSystemError(
            f"adjoint block condition {condition:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    rhs = np.concatenate([mu_moments, np.zeros((1, *mu_moments.shape[1:]))])
    return AssembledSystem(matrix, rhs, condition)


def solve_weights(system: AssembledSystem) -> WeightVector:
    """Minimum-norm least-squares solution of the overdetermined system,
    through the pseudo-inverse that reconstruct_profile applies."""
    phi = np.linalg.pinv(system.matrix) @ system.rhs
    residual = float(np.linalg.norm(system.matrix @ phi - system.rhs))
    return WeightVector(phi, residual)


def reconstruct_value(phi: WeightVector, y_data: np.ndarray) -> float:
    y_data = np.asarray(y_data, dtype=float)
    if y_data.shape != phi.coefficients.shape:
        raise ValueError(
            f"length mismatch: {phi.coefficients.size} weights, {y_data.size} data"
        )
    return float(phi.coefficients @ y_data)


def reconstruct_profile(
    op: QuadraticVolterraOperator,
    basis: CubicBSplineBasis,
    x0: SampledFunction,
    y_data: np.ndarray,
    targets: Sequence[float],
    fmap: DiscreteForwardMap | None = None,
) -> list:
    """Reconstructed values <delta(t0-.), x> for each target t0, as a
    list of (t0, value) pairs; for a K x N batch y_data of K data rows,
    a list of K such lists.

    The weight system does not depend on the data or on the target, so
    the matrix is assembled and pseudo-inverted once for all targets and
    all rows, and each row's y^T pinv is applied to the (N+1) x T matrix
    of all right-hand sides at once. Row k of a batch takes the same
    products as a call on that row alone, so its values are the same
    floats. Raises FloatingPointError if any value is not finite.
    """
    targets = list(targets)
    rows = np.asarray(y_data, dtype=float)
    n = op.grid.n
    if rows.ndim not in (1, 2) or rows.shape[-1] != n:
        raise ValueError(f"expected data of shape ({n},) or (K, {n}), got shape {rows.shape}")
    if not targets:
        return [[] for _ in rows] if rows.ndim == 2 else []
    moments = delta_moments(basis, np.asarray(targets, dtype=float))
    system = assemble_adjoint_system(op, basis, x0, moments, fmap)
    inverse = np.linalg.pinv(system.matrix)
    profiles = []
    for y in np.atleast_2d(rows):
        data_row = y @ inverse
        # phi_t . y = (y^T pinv) rhs_t. cumsum adds the rows strictly in
        # order (np.sum and matmul group them by shape), so a target's
        # value does not depend on the other targets in the call.
        values = np.cumsum(data_row[:, None] * system.rhs, axis=0)[-1]
        if not np.isfinite(values).all():
            raise FloatingPointError("reconstructed values are not finite")
        profiles.append([(t0, float(v)) for t0, v in zip(targets, values)])
    return profiles if rows.ndim == 2 else profiles[0]


def iterative_refinement(
    op: QuadraticVolterraOperator,
    basis: CubicBSplineBasis,
    x0_init: SampledFunction,
    y_data: np.ndarray,
    targets: Sequence[float],
    rounds: int,
    fmap: DiscreteForwardMap | None = None,
) -> list[list[tuple[float, float]]]:
    """Repeated reconstruction with re-linearization at the B-spline
    interpolant of the previous round's nodal values."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if np.shape(y_data) != (op.grid.n,):
        raise ValueError(f"expected data of shape ({op.grid.n},), got shape {np.shape(y_data)}")
    fmap = _forward_map(op, fmap)
    grid = op.grid
    nodes = grid.nodes
    x0 = x0_init
    profiles: list[list[tuple[float, float]]] = []
    prev_vals = None
    scale0 = None
    for _ in range(rounds):
        # one weight system per round serves the nodes and the targets
        pairs = reconstruct_profile(
            op, basis, x0, y_data, [*nodes, *targets], fmap
        )
        node_vals = np.asarray([v for _, v in pairs[: nodes.size]])
        profiles.append(pairs[nodes.size :])
        if scale0 is None:
            scale0 = max(1.0, np.max(np.abs(node_vals)))
        elif np.max(np.abs(node_vals)) > 1e3 * scale0:
            raise RuntimeError(
                "iterative refinement diverged: sup-norm grew by more than 1e3"
            )
        if prev_vals is not None and np.max(np.abs(node_vals - prev_vals)) < 1e-8:
            break
        prev_vals = node_vals
        coeffs = interpolate(basis, SampledFunction(grid, node_vals))
        x0 = SampledFunction(grid, coeffs @ basis.node_values())
    return profiles


@dataclass(frozen=True)
class ErrorBudget:
    """The four addends bounding |f - f_{eps,phi}| for a linearized
    reconstruction."""

    noise_term: float
    linearization_term: float
    constraint_term: float
    adjoint_defect_term: float

    def __post_init__(self):
        for f in fields(self):
            # a NaN term fails the test too
            if not getattr(self, f.name) >= 0:
                raise ValueError(f"{f.name} must be nonnegative")

    @property
    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))


def error_budget(
    op: QuadraticVolterraOperator,
    x_star: SampledFunction,
    x0: SampledFunction,
    phi: WeightVector,
    mu: Callable[[SampledFunction], float],
    y: np.ndarray,
    y_eps: np.ndarray,
    fmap: DiscreteForwardMap | None = None,
    basis: CubicBSplineBasis | None = None,
) -> ErrorBudget:
    """Evaluate the four error-bound terms for ground truth x_star.

    A is quadratic, so with D = dA(x0), A x_star = D x_star +
    nu A1(x_star - x0) - nu A1(x0), and mu(x_star) - phi . y_eps splits
    into the weighted noise y - y_eps, the two quadratic terms
    (quadratic_data) and the adjoint defect phi . D x_star - mu(x_star).
    So |mu(x_star) - phi . y_eps| <= total holds up to rounding whenever
    y = forward_data(x_star), and at nu = 0 the linearization and
    constraint terms are exactly 0. basis is not read; it stays in the
    signature because callers pass it positionally.
    """
    fmap = _forward_map(op, fmap)
    w = phi.coefficients
    diff = SampledFunction(op.grid, x_star.values - x0.values)
    noise = abs(w @ (y - y_eps))
    linearization = abs(w @ quadratic_data(fmap, diff))
    constraint = abs(w @ quadratic_data(fmap, x0))
    adjoint_defect = abs(w @ (linearization_matrix(fmap, x0) @ x_star.values) - mu(x_star))
    return ErrorBudget(noise, linearization, constraint, adjoint_defect)
