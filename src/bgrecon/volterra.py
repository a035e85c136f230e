"""Quadratic Volterra convolution operator A = A0 + nu*A1 on [0,1].

    (Ax)(t) = int_0^t k(t-s) x(s) ds + nu * int_0^t x(t-s) x(s) ds

with kernel k and a small nonlinearity weight nu. Also provides the
discrete forward map at the measurement nodes t_i and the linearization
dA. At the measurement nodes, A and dA are quadrature-weighted matrices
over nodes x grid, and the adjoint of dA is the transpose of its matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# quad_weighted_integral is not called here; bench/tracing.py patches this name.
from .grid import SampledFunction, UniformGrid, quad_weighted_integral


@dataclass(frozen=True, eq=False)
class QuadraticVolterraOperator:
    kernel: SampledFunction
    nu: float

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"nonlinearity weight must be nonnegative, got {self.nu}")

    @property
    def grid(self) -> UniformGrid:
        return self.kernel.grid


@dataclass(frozen=True, eq=False)
class DiscreteForwardMap:
    """Point evaluation of Ax at the measurement nodes t_i = i/N, i=1..N."""

    op: QuadraticVolterraOperator
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", self.op.grid.nodes[1:])

    @property
    def lags(self) -> np.ndarray:
        """Matrix t_i - s_k over measurement nodes x grid nodes."""
        return self.nodes[:, None] - self.op.grid.nodes[None, :]


def _trapezoid_weights(lags: np.ndarray, h: float) -> np.ndarray:
    """Weights W[i, k] of grid node s_k in the rule quad_weighted_integral
    applies over [0, t_i]: trapezoid on the grid cells, the last cell cut
    at t_i with its endpoint value interpolated. The rule integrates the
    piecewise-linear interpolant exactly, so W[i, k] is the integral over
    [0, t_i] of the hat function at s_k, which is h * G((t_i - s_k) / h)
    with G the integral of the unit hat, less the half of the first hat
    that lies left of s_0 = 0."""
    v = np.clip(lags / h, -1.0, 1.0)
    w = h * np.where(v <= 0.0, 0.5 * (1.0 + v) ** 2, 1.0 - 0.5 * (1.0 - v) ** 2)
    w[:, 0] -= 0.5 * h
    return w


def _weighted_kernel(
    fmap: DiscreteForwardMap, x: SampledFunction, coef: float
) -> np.ndarray:
    """Matrix W * (k(t_i - s) + coef * x(t_i - s)) over nodes x grid."""
    lags = fmap.lags
    weights = _trapezoid_weights(lags, fmap.op.grid.h)
    return weights * (fmap.op.kernel(lags) + coef * x(lags))


def linearization_matrix(fmap: DiscreteForwardMap, x0: SampledFunction) -> np.ndarray:
    """Matrix D of the linearization at x0: (D f.values)_i = dA(x0)f (t_i)."""
    return _weighted_kernel(fmap, x0, 2 * fmap.op.nu)


def forward_data(fmap: DiscreteForwardMap, x: SampledFunction) -> np.ndarray:
    """Data vector [Ax(t_i)] over the measurement nodes."""
    return _weighted_kernel(fmap, x, fmap.op.nu) @ x.values


# Dense points per block of forward_data_exact: the block's few arrays
# stay in cache, and at m = 8N a block holds tens of nodes. The key table
# is filled in chunks of as many keys.
_BLOCK_POINTS = 2**13


def _key_table_unit(t: np.ndarray, step: np.ndarray, m: int):
    """Unit u and integer strides n = step / u of forward_data_exact's key
    table, or None where the table does not serve the nodes t.

    u is the finest power of two, not below 2**-1074, for which the
    table, keys 0 ... m * max(n) // 2, holds at most half of the
    len(t) * (m + 1) dense points.
    It serves when every step is a multiple n * u, n >= 1 where t is not 0
    (a step that underflows to 0 keeps np.linspace's rule)."""
    step_max = float(step.max(initial=0.0))
    if not 0.0 < step_max < math.inf:
        return None
    # step_max = a * 2**(e - 53) and u = 2**(c + e - 54), so the largest
    # key m * max(n) // 2 is m * a // 2**c: c is the least with that
    # below half the dense points
    mantissa, e = math.frexp(step_max)
    c = (m * int(mantissa * 2**53) // (len(t) * (m + 1) // 2)).bit_length()
    unit = max(math.ldexp(1.0, c + e - 54), math.ulp(0.0))
    if (step_max / unit) % 1:  # the common miss, from one scalar
        return None
    n = step / unit
    if np.array_equal(n, np.floor(n)) and np.array_equal(n >= 1, t != 0):
        return unit, n.astype(np.int64)
    return None


def _key_table(x_fn, unit: float, stops: list, strides: list, cut: int) -> np.ndarray:
    """x_fn at float(j) * unit for every key j <= cut read by some node, a
    node reading keys[:stop:stride]; each such key is evaluated once.
    float(j) * unit is the dense point k * step of every node with
    k * n = j, bit for bit: both round the real k * n * u once (j < 2**53)."""
    used = np.zeros(cut + 1, dtype=bool)
    for stop, stride in zip(stops, strides):
        used[:stop:stride] = True
    table = np.empty(cut + 1)
    for start in range(0, cut + 1, _BLOCK_POINTS):
        keys = start + np.flatnonzero(used[start : start + _BLOCK_POINTS])
        table[keys] = np.fromiter(map(x_fn, (keys * unit).tolist()), float, len(keys))
    return table


def forward_data_exact(
    op: QuadraticVolterraOperator,
    x_fn,
    nodes: np.ndarray | None = None,
    m: int = 4096,
) -> np.ndarray:
    """Data vector [Ax(t_i)] from a callable x, resolved on a dense
    auxiliary grid (m subintervals per integral).

    Stands in for analytically solved right-hand sides: the quadrature
    error is far below the coarse-grid discretization error, so
    reconstruction errors reflect the approximation properties of the
    method rather than data/assembly consistency.

    The dense points of a node t in [0, 1] are those of
    np.linspace(0, t, m + 1), bit for bit: k * fl(t / m), the last one t
    ((k / m) * t where t / m underflows to 0).

    x_fn is a pure scalar callable float -> float. It is called with
    Python floats, which round exactly as numpy.float64 does and are
    several times cheaper in scalar code, in unspecified order:
    - where every step t / m is an exact multiple n * u of one power of
      two u (nodes i / N with N * m a power of two), once per distinct
      key j = k * n <= m * max(n) // 2 of the dense points k * step =
      j * u, through a table of at most half the call's dense points,
      and once per dense point above that cut or at a last point t
      other than m * step;
    - otherwise once per dense point, less the first (m + 1) // 2 points
      of a node exactly twice another, which reuse that node's even
      points.

    Nodes are visited by binary mantissa, then exponent, so t, 2t, 4t ...
    follow each other, in blocks of at most _BLOCK_POINTS dense points
    (one node when m + 1 exceeds it); each block makes one kernel
    interpolation, one integrand and one trapezoid call.
    """
    if m < 1:
        raise ValueError(f"need at least one dense subinterval, got m={m}")
    if nodes is None:
        nodes = op.grid.nodes[1:]
    nodes = np.asarray(nodes, dtype=float)
    mantissa, exponent = np.frexp(nodes)
    order = np.lexsort((exponent, mantissa))
    t_all = nodes[order]
    step_all = t_all / m
    # Row j reads its first lo points from source[:stop:stride] and calls
    # x_fn at the rest; the source is the key table, or else the row before.
    keyed = _key_table_unit(t_all, step_all, m)
    if keyed is None:
        table = None
        # A node twice the nonzero node visited before it reuses that
        # node's even points, s_k(2t) = s_2k(t) for k < (m + 1) // 2:
        # fl(2t/m) = 2 fl(t/m) unless t/m underflows.
        doubled = np.zeros(len(order), dtype=bool)
        doubled[1:] = (
            (t_all[1:] == 2 * t_all[:-1])
            & (step_all[1:] == 2 * step_all[:-1])
            & (step_all[:-1] != 0)
        )
        lo_all = np.where(doubled, (m + 1) // 2, 0)
        stop_all, stride_all = 2 * lo_all, np.full(len(order), 2)
    else:
        unit, n_all = keyed
        cut = m * int(n_all.max()) // 2
        # a row reads its keys k * n <= cut (every point of a node at 0 is
        # key 0), its last point only where that point is m * step
        stride_all = np.maximum(n_all, 1)
        reach = np.where(n_all > 0, cut // stride_all, m)
        lo_all = np.minimum(reach, m - 1 + (m * step_all == t_all)) + 1
        stop_all = (lo_all - 1) * n_all + 1
        table = _key_table(x_fn, unit, stop_all.tolist(), stride_all.tolist(), cut)
    lo_all, stop_all, stride_all = lo_all.tolist(), stop_all.tolist(), stride_all.tolist()
    out = np.zeros(len(order))
    k = np.arange(m + 1.0)
    rows = max(1, _BLOCK_POINTS // (m + 1))
    prev_x = None
    for start in range(0, len(order), rows):
        block = slice(start, start + rows)
        t, step = t_all[block], step_all[block]
        s = k * step[:, None]
        # np.linspace's rule where the step underflows to 0
        under = step == 0
        s[under] = (k / m) * t[under, None]
        s[:, -1] = t
        x = np.empty_like(s)
        for j, (lo, stop, stride) in enumerate(
            zip(lo_all[block], stop_all[block], stride_all[block])
        ):
            if lo:
                source = (x[j - 1] if j else prev_x) if table is None else table
                x[j, :lo] = source[:stop:stride]
            x[j, lo:] = np.fromiter(map(x_fn, s[j, lo:].tolist()), float, m + 1 - lo)
        x_rev = x[:, ::-1]  # x(t - s) on the symmetric dense grid
        integrand = op.kernel(t[:, None] - s) * x + op.nu * x_rev * x
        out[order[block]] = np.trapezoid(integrand, s, axis=-1)
        prev_x = x[-1].copy()
    return out


def forward_dA(
    fmap: DiscreteForwardMap, x: SampledFunction, f: SampledFunction
) -> np.ndarray:
    """Vector [dA(x)f (t_i)] over the measurement nodes."""
    return linearization_matrix(fmap, x) @ f.values
