"""Cubic B-spline basis S_j on the uniform grid, scaled so S_j(t_j) = 1.

The basis has N members, j = 0..N-1, each supported on
[t_{j-2}, t_{j+2}] intersected with [0,1]. Members near the left edge
overhang t < 0 and are simply truncated; no boundary modification is
applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import SampledFunction, UniformGrid, _read_only


@dataclass(frozen=True)
class CubicBSplineBasis:
    grid: UniformGrid

    @property
    def size(self) -> int:
        return self.grid.n

    def values(self, t) -> np.ndarray:
        """Matrix S[j, k] = S_j(t_k) for the points of a 1-D array t,
        shape (N, len(t))."""
        t = np.asarray(t, dtype=float)
        centers = np.arange(self.size) * self.grid.h
        return _scaled_bspline(t[None, :] - centers[:, None], self.grid.h)

    def node_values(self) -> np.ndarray:
        """Matrix S[j, k] = S_j(t_k) over all grid nodes, shape (N, N+1),
        computed on first use and cached read-only."""
        return self._node_matrix

    @cached_property
    def _node_matrix(self) -> np.ndarray:
        return _read_only(self.values(self.grid.nodes))

    def eval_combination(self, coeffs: np.ndarray, t):
        """Value of sum_j coeffs[j] * S_j at t."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.size,):
            raise ValueError(f"expected {self.size} coefficients")
        t = np.asarray(t, dtype=float)
        out = (coeffs @ self.values(t.ravel())).reshape(t.shape)
        return out if out.ndim else float(out)


def _scaled_bspline(u: np.ndarray, h: float) -> np.ndarray:
    """Cubic B-spline of width 4h centred at u = 0, scaled to 1 there.

    The pieces are symmetric in u, so they are evaluated at |u|. Cubes
    are written as products so that every entry is rounded the same way
    whatever the shape of u.
    """
    a = np.abs(u)
    c = h - a
    d = 2 * h - a
    inner = h**3 + 3 * h**2 * c + 3 * h * (c * c) - 3 * (c * c * c)
    outer = np.where(a <= 2 * h, d * d * d, 0.0)
    return np.where(a <= h, inner, outer) / (4 * h**3)


def delta_moments(basis: CubicBSplineBasis, t0) -> np.ndarray:
    """Moments <delta(t0 - .), S_j> = S_j(t0), j = 0..N-1: shape (N,) for
    a scalar t0, and one column per target, (N, len(t0)), for an array."""
    t0 = np.asarray(t0, dtype=float)
    if not np.all((t0 >= 0.0) & (t0 <= 1.0)):
        raise ValueError(f"t0 must lie in [0,1], got {t0}")
    moments = basis.values(t0.ravel())
    return moments if t0.ndim else moments[:, 0]


def interpolate(basis: CubicBSplineBasis, samples: SampledFunction) -> np.ndarray:
    """Spline coefficients collocating samples at the nodes t_0..t_{N-1}.

    The collocation matrix S_j(t_i) is tridiagonal for this basis; the
    square system matches the basis cardinality N.
    """
    if samples.grid.n != basis.grid.n:
        raise ValueError("samples must live on the basis grid")
    n = basis.size
    mat = basis.node_values()[:, :n].T
    coeffs = np.linalg.solve(mat, samples.values[:n])
    residual = np.max(np.abs(mat @ coeffs - samples.values[:n]))
    if residual > 1e-10 * (1.0 + np.max(np.abs(samples.values))):
        raise np.linalg.LinAlgError(
            f"collocation solve failed, residual {residual:.3e}"
        )
    return coeffs
