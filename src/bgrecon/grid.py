"""Uniform grids on [0,1], each owning its read-only nodes, trapezoid
weights and lags, trapezoid quadrature and seeded noise directions."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _is_count(value, least: int) -> bool:
    """Whether value is an integer no smaller than least (numpy integers
    included, through operator.index); a float, NaN included, is not."""
    try:
        return operator.index(value) >= least
    except TypeError:
        return False


@dataclass(frozen=True)
class UniformGrid:
    """Uniform partition of [0,1] into n subintervals, nodes t_j = j/n."""

    n: int

    def __post_init__(self):
        if not _is_count(self.n, 1):
            raise ValueError(f"subinterval count must be a positive integer, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        """The n + 1 nodes, computed on first use and cached read-only."""
        return _read_only(np.arange(self.n + 1) / self.n)

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        """Weights W[i - 1, k] of node s_k in the trapezoid rule on the
        grid cells of [0, t_i], i = 1 ... n: h inside, h / 2 at both ends
        and 0 beyond t_i. Computed on first use and cached read-only."""
        w = (np.tri(self.n, self.n + 1, 1) - 0.5 * np.eye(self.n, self.n + 1, 1)) / self.n
        w[:, 0] *= 0.5
        return _read_only(w)

    @cached_property
    def lags(self) -> np.ndarray:
        """Matrix t_i - s_k over the measurement nodes t_i, i = 1 ... n,
        and the nodes s_k. Computed on first use and cached read-only."""
        return _read_only(self.nodes[1:, None] - self.nodes[None, :])


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Values of a real function at the nodes of a uniform grid."""

    grid: UniformGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} values, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("sampled values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: UniformGrid, f) -> "SampledFunction":
        nodes = grid.nodes
        return cls(grid, np.fromiter(map(f, nodes.tolist()), float, len(nodes)))

    def __call__(self, t):
        """Piecewise-linear interpolation; arguments are clamped to [0,1]."""
        return np.interp(t, self.grid.nodes, self.values)


def quad_weighted_integral(f: SampledFunction, a: float, b: float) -> float:
    """Integral of the piecewise-linear interpolant of f over [a,b].

    Composite trapezoid rule; endpoints not on the grid are handled by
    linear interpolation. O(h^2) accurate for C^2 integrands.
    """
    if not (0.0 <= a <= b <= 1.0):
        raise ValueError(f"need 0 <= a <= b <= 1, got a={a}, b={b}")
    if a == b:
        return 0.0
    t = f.grid.nodes
    inner = t[(t > a) & (t < b)]
    xs = np.concatenate(([a], inner, [b]))
    ys = np.interp(xs, t, f.values)
    return float(np.trapezoid(ys, xs))


def noise_direction(shape, seed: int) -> np.ndarray:
    """The uniform [-1,1] direction vector a given seed produces."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=shape)
