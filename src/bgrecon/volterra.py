"""Quadratic Volterra convolution operator A = A0 + nu*A1 on [0,1].

    (Ax)(t) = int_0^t k(t-s) x(s) ds + nu * int_0^t x(t-s) x(s) ds

with kernel k and a small nonlinearity weight nu. Also provides the
discrete forward map at the measurement nodes t_i and the linearization
dA. At the measurement nodes, A and dA are quadrature-weighted matrices
over nodes x grid, and the adjoint of dA is the transpose of its matrix.
"""

from __future__ import annotations

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


def _grid_keys(nodes: np.ndarray, n: int, m: int):
    """Grid index i of each node, -1 off the grid, and the key table's
    cut, -1 where no node is on the grid.

    A node t is a grid node when i = rint(t * n) >= 0, i / n == t bit for
    bit and m * max(i, n) < 2**53: its dense points k * i / (n * m) are
    then quotients of exact integers, the keys j = k * i over n * m. The
    table holds the keys 0 ... cut, cut = m * max(i) // 2 (half the
    largest grid node), but at most half of the call's dense points.
    """
    i = np.rint(nodes * n)
    on_grid = (i >= 0) & (i / n == nodes) & (np.maximum(i, n) * m < 2.0**53)
    i = np.where(on_grid, i, -1).astype(np.int64)
    if not on_grid.any():
        return i, -1
    return i, min(m * int(i.max()) // 2, len(nodes) * (m + 1) // 2 - 1)


def _key_table(x_fn, nm: float, reads: set, cut: int) -> np.ndarray:
    """x_fn at key / nm for every key <= cut that some grid node reads,
    a node reading keys[:stop:stride]; each such key is evaluated once."""
    used = np.zeros(cut + 1, dtype=bool)
    for stop, stride in reads:
        used[:stop:stride] = True
    table = np.empty(cut + 1)
    for start in range(0, cut + 1, _BLOCK_POINTS):
        keys = start + np.flatnonzero(used[start : start + _BLOCK_POINTS])
        table[keys] = np.fromiter(map(x_fn, (keys / nm).tolist()), float, len(keys))
    return table


def _linspace_rows(t: np.ndarray, k: np.ndarray, m: int) -> np.ndarray:
    """Rows np.linspace(0, t, m + 1), bit for bit: k * fl(t / m), the
    last point t ((k / m) * t where t / m underflows to 0)."""
    step = t / m
    s = k * step[:, None]
    under = step == 0
    s[under] = (k / m) * t[under, None]
    s[:, -1] = t
    return s


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

    Each node takes its dense points s_0 = 0 ... s_m = t by its own rule:
    - a grid node t = i / N of the operator's grid (N = op.grid.n, see
      _grid_keys) takes s_k = fl(k * i / (N * m)), one correctly rounded
      division of exact integers, so s_{m-k} is the rounded reflection
      of the exact point; where N * m is a power of two this is
      np.linspace(0, t, m + 1) bit for bit;
    - any other node takes np.linspace(0, t, m + 1) (_linspace_rows).

    x_fn is a pure scalar callable float -> float. It is called with
    Python floats, which round exactly as numpy.float64 does and are
    several times cheaper in scalar code, in unspecified order: once per
    distinct key j = k * i <= cut of the grid nodes, through a table of
    at most half the call's dense points, and once per dense point above
    the cut or of an off-grid node.

    Nodes are taken in blocks of at most _BLOCK_POINTS dense points (one
    node when m + 1 exceeds it); each block makes one kernel
    interpolation, one integrand and one trapezoid call.
    """
    if m < 1:
        raise ValueError(f"need at least one dense subinterval, got m={m}")
    if nodes is None:
        nodes = op.grid.nodes[1:]
    nodes = np.asarray(nodes, dtype=float)
    n = op.grid.n
    i_all, cut = _grid_keys(nodes, n, m)
    nm = float(n * m)
    # a grid node reads its first lo points from table[:stop:i] (every
    # point of a node at 0 is key 0) and calls x_fn at the rest
    stride_all = np.maximum(i_all, 1)
    reach = np.where(i_all > 0, cut // stride_all, m)
    lo_all = np.where(i_all >= 0, np.minimum(reach, m) + 1, 0)
    stop_all = (lo_all - 1) * i_all + 1
    lo_all, stop_all, stride_all = lo_all.tolist(), stop_all.tolist(), stride_all.tolist()
    reads = {(stop, stride) for lo, stop, stride in zip(lo_all, stop_all, stride_all) if lo}
    table = _key_table(x_fn, nm, reads, cut) if reads else None
    out = np.zeros(len(nodes))
    k = np.arange(m + 1.0)
    rows = max(1, _BLOCK_POINTS // (m + 1))
    for start in range(0, len(nodes), rows):
        block = slice(start, start + rows)
        t, i = nodes[block], i_all[block]
        s = i[:, None] * k / nm
        off = i < 0
        if off.any():
            s[off] = _linspace_rows(t[off], k, m)
        x = np.empty_like(s)
        for j, (lo, stop, stride) in enumerate(
            zip(lo_all[block], stop_all[block], stride_all[block])
        ):
            if lo:
                x[j, :lo] = table[:stop:stride]
            x[j, lo:] = np.fromiter(map(x_fn, s[j, lo:].tolist()), float, m + 1 - lo)
        x_rev = x[:, ::-1]  # x(t - s) on the symmetric dense grid
        integrand = op.kernel(t[:, None] - s) * x + op.nu * x_rev * x
        out[block] = np.trapezoid(integrand, s, axis=-1)
    return out


def forward_dA(
    fmap: DiscreteForwardMap, x: SampledFunction, f: SampledFunction
) -> np.ndarray:
    """Vector [dA(x)f (t_i)] over the measurement nodes."""
    return linearization_matrix(fmap, x) @ f.values
