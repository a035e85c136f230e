import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from bgrecon.bspline import CubicBSplineBasis, delta_moments
from bgrecon.grid import SampledFunction, UniformGrid, noise_direction
from bgrecon.solver import assemble_adjoint_system, reconstruct_profile, solve_weights
from bgrecon.volterra import DiscreteForwardMap, QuadraticVolterraOperator, forward_data

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

# the library's public names, by module
PUBLIC_NAMES = {
    "annulus": [
        "AnnulusGrid", "BoundaryTrace", "KozlovMazyaResult", "correction_functional",
        "eta_blend", "kozlov_mazya_solve", "sentinel_reconstruct",
        "solve_sentinel_equation", "trace_inner",
    ],
    "bspline": ["CubicBSplineBasis", "delta_moments", "interpolate"],
    "hadamard": ["amplification_table", "phi_k", "u_k"],
    "grid": ["SampledFunction", "UniformGrid", "quad_weighted_integral"],
    "solver": [
        "AssembledSystem", "ErrorBudget", "WeightVector", "assemble_adjoint_system",
        "error_budget", "iterative_refinement", "reconstruct_profile",
        "reconstruct_value", "solve_weights",
    ],
    "volterra": [
        "DiscreteForwardMap", "QuadraticVolterraOperator", "forward_data",
        "forward_data_exact", "linearization_matrix",
    ],
}


def test_public_names_resolve():
    missing = [
        f"{module}.{name}"
        for module, names in PUBLIC_NAMES.items()
        for name in names
        if not hasattr(importlib.import_module(f"bgrecon.{module}"), name)
    ]
    assert missing == []


def test_package_import_leaves_numpy_unloaded():
    # the package is its docstring, so `import bgrecon`, which the
    # benchmark's setup probe times, loads none of its modules
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, bgrecon; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_traced_names_exist(monkeypatch):
    # a name the benchmark's tracer patches must survive, or --trace 1 raises
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.TARGETS
        if not hasattr(owner, attr)
    ]
    assert tracing.TARGETS
    assert missing == []


def corrupt_pinv(monkeypatch):
    # perturb numpy.linalg.pinv's result by a relative 1e-3, as
    # bench/run.py --corrupt does
    pinv = np.linalg.pinv

    def pinv_perturbed(matrix, *args, **kwargs):
        inverse = pinv(matrix, *args, **kwargs)
        return inverse * (1.0 + 1e-3 * noise_direction(inverse.shape, 0))

    monkeypatch.setattr(np.linalg, "pinv", pinv_perturbed)


def moment_problem():
    grid = UniformGrid(16)
    op = QuadraticVolterraOperator(SampledFunction(grid, 1.0 + grid.nodes), 0.1)
    return op, CubicBSplineBasis(grid)


def test_corrupted_pinv_moves_the_profile(monkeypatch):
    # bench/selftest.py needs the gates to see the corruption; that holds
    # only while reconstruct_profile looks pinv up on numpy.linalg
    op, basis = moment_problem()
    grid = op.grid
    y = forward_data(DiscreteForwardMap(op), SampledFunction(grid, np.sin(grid.nodes)))
    targets = [0.25, 0.5, 0.75]
    clean = reconstruct_profile(op, basis, op.kernel, y, targets)
    corrupt_pinv(monkeypatch)
    corrupted = reconstruct_profile(op, basis, op.kernel, y, targets)
    for (_, value), (_, moved) in zip(clean, corrupted):
        assert moved != value


def test_corrupted_pinv_moves_the_weights(monkeypatch):
    # solve_weights and reconstruct_profile invert the adjoint system
    # through the same pinv, so the corruption reaches both
    op, basis = moment_problem()
    system = assemble_adjoint_system(op, basis, op.kernel, delta_moments(basis, 0.5))
    clean = solve_weights(system).coefficients
    corrupt_pinv(monkeypatch)
    moved = solve_weights(system).coefficients
    assert np.all(moved != clean)
