"""Backus-Gilbert reconstruction for moment problems and an elliptic
Cauchy problem on an annulus."""

from .annulus import (
    AnnulusGrid,
    BoundaryTrace,
    KozlovMazyaResult,
    correction_functional,
    eta_blend,
    kozlov_mazya_solve,
    sentinel_reconstruct,
    solve_sentinel_equation,
    trace_inner,
)
from .bspline import CubicBSplineBasis, delta_moments, interpolate
from .hadamard import amplification_table, phi_k, u_k
from .grid import SampledFunction, UniformGrid, quad_weighted_integral
from .solver import (
    AssembledSystem,
    ErrorBudget,
    WeightVector,
    assemble_adjoint_system,
    error_budget,
    iterative_refinement,
    reconstruct_profile,
    reconstruct_value,
    solve_weights,
)
from .volterra import DiscreteForwardMap, QuadraticVolterraOperator, forward_data

__all__ = [
    "AnnulusGrid",
    "AssembledSystem",
    "BoundaryTrace",
    "KozlovMazyaResult",
    "CubicBSplineBasis",
    "DiscreteForwardMap",
    "ErrorBudget",
    "QuadraticVolterraOperator",
    "SampledFunction",
    "UniformGrid",
    "WeightVector",
    "amplification_table",
    "assemble_adjoint_system",
    "correction_functional",
    "delta_moments",
    "error_budget",
    "eta_blend",
    "forward_data",
    "interpolate",
    "iterative_refinement",
    "kozlov_mazya_solve",
    "phi_k",
    "quad_weighted_integral",
    "reconstruct_profile",
    "reconstruct_value",
    "sentinel_reconstruct",
    "solve_sentinel_equation",
    "solve_weights",
    "trace_inner",
    "u_k",
]
