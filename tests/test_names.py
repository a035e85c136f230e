import importlib
from pathlib import Path

import numpy as np

import bgrecon
from bgrecon.bspline import CubicBSplineBasis
from bgrecon.grid import SampledFunction, UniformGrid, noise_direction
from bgrecon.solver import reconstruct_profile
from bgrecon.volterra import DiscreteForwardMap, QuadraticVolterraOperator, forward_data

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_public_names_resolve():
    missing = [name for name in bgrecon.__all__ if not hasattr(bgrecon, name)]
    assert missing == []


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


def test_corrupted_pinv_moves_the_profile(monkeypatch):
    # bench/run.py --corrupt perturbs numpy.linalg.pinv's result by a
    # relative 1e-3, and bench/selftest.py needs the gates to see it; that
    # holds only while reconstruct_profile looks pinv up on numpy.linalg
    grid = UniformGrid(16)
    op = QuadraticVolterraOperator(SampledFunction(grid, 1.0 + grid.nodes), 0.1)
    basis = CubicBSplineBasis(grid)
    y = forward_data(DiscreteForwardMap(op), SampledFunction(grid, np.sin(grid.nodes)))
    targets = [0.25, 0.5, 0.75]
    clean = reconstruct_profile(op, basis, op.kernel, y, targets)
    pinv = np.linalg.pinv

    def pinv_perturbed(matrix, *args, **kwargs):
        inverse = pinv(matrix, *args, **kwargs)
        return inverse * (1.0 + 1e-3 * noise_direction(inverse.shape, 0))

    monkeypatch.setattr(np.linalg, "pinv", pinv_perturbed)
    corrupted = reconstruct_profile(op, basis, op.kernel, y, targets)
    for (_, value), (_, moved) in zip(clean, corrupted):
        assert moved != value
