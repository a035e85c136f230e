import importlib
from pathlib import Path

import bgrecon

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
