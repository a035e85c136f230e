"""Hadamard's ill-posedness example on the unit square.

Cauchy data phi_k(x) = sin(pi k x)/(pi k) shrinks uniformly with k while
the harmonic solutions u_k(x,y) = sinh(pi k y) sin(pi k x)/(pi k)^2 blow
up, so the data-to-solution map is unbounded.
"""

from __future__ import annotations

import math

from .grid import _is_count


def _check_k(k: int) -> None:
    if not _is_count(k, 1):
        raise ValueError(f"frequency must be a positive integer, got {k}")


def phi_k(k: int, x: float) -> float:
    """Cauchy datum sin(pi k x) / (pi k)."""
    _check_k(k)
    return math.sin(math.pi * k * x) / (math.pi * k)


def u_k(k: int, x: float, y: float) -> float:
    """Harmonic solution sinh(pi k y) sin(pi k x) / (pi k)^2."""
    _check_k(k)
    return _sinh(math.pi * k * y) * math.sin(math.pi * k * x) / (math.pi * k) ** 2


def _sinh(x: float, denom: float = 1.0) -> float:
    """sinh(x)/denom for denom > 0 without intermediate overflow, for
    either sign of x; +-inf once the quotient itself overflows."""
    if abs(x) < 700:
        return math.sinh(x) / denom
    # log-scale: sinh(x) ~ sign(x) * exp(|x|) / 2 for large |x|
    try:
        return math.copysign(math.exp(abs(x) - math.log(2.0) - math.log(denom)), x)
    except OverflowError:
        return math.copysign(math.inf, x)


def amplification_table(k_max: int) -> list[tuple[int, float, float, float]]:
    """Rows (k, ||phi_k||_inf, sup |u_k|, amplification ratio) for k=1..k_max.

    ||phi_k||_inf = 1/(pi k); sup over the closed square of |u_k| is
    sinh(pi k)/(pi k)^2, attained at y = 1; the ratio sinh(pi k)/(pi k)
    grows without bound.
    """
    if not _is_count(k_max, 1):
        raise ValueError(f"k_max must be an integer >= 1, got {k_max}")
    rows = []
    for k in range(1, k_max + 1):
        pk = math.pi * k
        data_norm = 1.0 / pk
        solution_sup = _sinh(pk, pk * pk)
        ratio = _sinh(pk, pk)
        rows.append((k, data_norm, solution_sup, ratio))
    return rows
