"""Quadratic Volterra convolution operator A = A0 + nu*A1 on [0,1].

    (Ax)(t) = int_0^t k(t-s) x(s) ds + nu * int_0^t x(t-s) x(s) ds

with kernel k and a small nonlinearity weight nu. Also provides the
discrete forward map at the measurement nodes t_i and the linearization
dA. At the measurement nodes, dA and the quadratic term nu A1 are the
only quadrature-weighted matrices over nodes x grid, Ax is
dA(x)x - nu A1(x, x), and the adjoint of dA is the transpose of its matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# quad_weighted_integral is not called here; bench/tracing.py patches this name.
from .grid import SampledFunction, UniformGrid, quad_weighted_integral


@dataclass(frozen=True, eq=False)
class QuadraticVolterraOperator:
    kernel: SampledFunction
    nu: float

    def __post_init__(self):
        if not 0 <= self.nu < np.inf:
            raise ValueError(f"nonlinearity weight must be finite and nonnegative, got {self.nu}")

    @property
    def grid(self) -> UniformGrid:
        return self.kernel.grid


@dataclass(frozen=True, eq=False)
class DiscreteForwardMap:
    """Point evaluation of Ax at the measurement nodes t_i = i/N, i=1..N."""

    op: QuadraticVolterraOperator

    @property
    def nodes(self) -> np.ndarray:
        return self.op.grid.nodes[1:]


def linearization_matrix(fmap: DiscreteForwardMap, x0: SampledFunction) -> np.ndarray:
    """Matrix D of the linearization at x0: (D f.values)_i = dA(x0)f (t_i),
    that is W * (k(t_i - s) + 2 nu x0(t_i - s)) over nodes x grid. At
    nu = 0 the second term, which would add only zeros, is skipped."""
    op = fmap.op
    lags = op.grid.lags
    kernel = op.kernel(lags)
    if op.nu:
        kernel += 2 * op.nu * x0(lags)
    return op.grid.trapezoid_weights * kernel


def forward_data(fmap: DiscreteForwardMap, x: SampledFunction) -> np.ndarray:
    """Data vector [Ax(t_i)] over the measurement nodes, from Euler's
    identity for the quadratic A: Ax = dA(x)x - nu * A1(x, x)."""
    return linearization_matrix(fmap, x) @ x.values - quadratic_data(fmap, x)


def quadratic_data(fmap: DiscreteForwardMap, x: SampledFunction) -> np.ndarray:
    """Vector [nu * A1(x, x)(t_i)] over the measurement nodes, the
    quadratic part of forward_data; exact zeros at nu = 0, where x is
    not read."""
    op = fmap.op
    if not op.nu:
        return np.zeros(op.grid.n)
    return (op.grid.trapezoid_weights * (op.nu * x(op.grid.lags))) @ x.values


# Dense points per block of forward_data_exact: the block's few arrays
# stay in cache, and at m = 8N a block holds tens of nodes. The key table
# is filled in chunks of as many keys.
_BLOCK_POINTS = 2**13


def _key_table(x_fn, n: int, m: int) -> np.ndarray:
    """Table of N * m + 1 entries holding x_fn(key / (N * m)) at every
    key k * i, k = 0 ... m, i = 1 ... N, each evaluated once; the other
    entries are never read."""
    nm = n * m
    used = np.zeros(nm + 1, dtype=bool)
    for i in range(1, n + 1):
        used[: m * i + 1 : i] = True
    table = np.empty(nm + 1)
    for start in range(0, nm + 1, _BLOCK_POINTS):
        keys = start + np.flatnonzero(used[start : start + _BLOCK_POINTS])
        table[keys] = np.fromiter(map(x_fn, (keys / nm).tolist()), float, len(keys))
    return table


def _array_values(x_fn, s: np.ndarray, first: bool) -> np.ndarray | None:
    """x_fn(s) on one block's float64 array of dense points s, if it is a
    float64 ndarray of s's shape. On the first block, None if x_fn raises
    TypeError or ValueError or returns anything else; on a later block
    such an exception propagates, and any other result is a ValueError."""
    try:
        x = x_fn(s)
    except (TypeError, ValueError):
        if first:
            return None
        raise
    if isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == s.shape:
        return x
    if first:
        return None
    raise ValueError(
        f"x_fn took the first block as an array but returned {type(x).__name__} for a later one"
    )


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

    The nodes are the measurement nodes t_i = i / N, i = 1 ... N, of the
    operator's grid (N = op.grid.n): nodes is None or equal to them, m is
    an int (not a bool) of at least 1 and N * m < 2**53. Any other input
    is a ValueError, raised before x_fn is called. Node t_i takes the
    dense points s_k = fl(k * i / (N * m)), k = 0 ... m, one correctly
    rounded division of the exact integers k * i (the keys) and N * m, so
    s_{m-k} is the rounded reflection of the exact point; where N * m is
    a power of two they are np.linspace(0, t_i, m + 1) bit for bit.

    x_fn is a pure callable. Nodes are taken in blocks of at most
    _BLOCK_POINTS dense points (one node when m + 1 exceeds it), and x_fn
    is first called once, on the first block's float64 array of dense
    points:
    - if it returns a float64 ndarray of that shape, x_fn is an array
      callable: each block takes its values from one such call, and no
      key table is built. An exception from a later block propagates, and
      a later result of another kind is a ValueError;
    - if it raises TypeError or ValueError, or returns anything else (a
      list, a 0-d array, a Python float, float32, another shape), x_fn is
      a scalar callable float -> float. It is then called with Python
      floats, which round exactly as numpy.float64 does and are several
      times cheaper in scalar code, in unspecified order: once per
      distinct key k * i, through a key table of N * m + 1 entries, so
      never twice with the same argument;
    - any other exception propagates.
    An elementwise x_fn gives the same data on both paths when its array
    call gives the same floats as its scalar calls do, as +, -, *, /,
    abs, comparisons and np.where do; numpy's vectorised sin or exp need
    not round as a scalar call does.

    Each block makes one kernel interpolation, one integrand and one
    trapezoid call. At nu = 0 the integrand has no quadratic term.
    """
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError(f"need an int number of dense subintervals, got m={m!r}")
    if m < 1:
        raise ValueError(f"need at least one dense subinterval, got m={m}")
    n = op.grid.n
    if n * m >= 2**53:
        raise ValueError(f"need N * m < 2**53 for exact keys, got N={n}, m={m}")
    t_all = op.grid.nodes[1:]
    if nodes is not None and not np.array_equal(nodes, t_all):
        raise ValueError(f"nodes must be None or the measurement nodes i/{n}, i = 1..{n}")
    nm = float(n * m)
    i_all = np.arange(1, n + 1)
    k = np.arange(m + 1)
    out = np.zeros(n)
    rows = max(1, _BLOCK_POINTS // (m + 1))
    table = None
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        t = t_all[block]
        keys = i_all[block, None] * k
        s = keys / nm
        if table is None:
            x = _array_values(x_fn, s, first=not start)
            if x is None:
                table = _key_table(x_fn, n, m)
        if table is not None:
            x = table[keys]
        integrand = op.kernel(t[:, None] - s) * x
        if op.nu:
            x_rev = x[:, ::-1]  # x(t - s) on the symmetric dense grid
            integrand += op.nu * x_rev * x
        out[block] = np.trapezoid(integrand, s, axis=-1)
    return out


def forward_dA(
    fmap: DiscreteForwardMap, x: SampledFunction, f: SampledFunction
) -> np.ndarray:
    """Vector [dA(x)f (t_i)] over the measurement nodes."""
    return linearization_matrix(fmap, x) @ f.values
