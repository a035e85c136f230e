"""Span recorder for the traced benchmark run.

The library itself has no tracing. ``Tracer.install`` replaces the
public functions of each measured layer, at the module namespaces where
another layer (or the benchmark) looks them up, by wrappers that record
a span per call: name, start, end, parent span and the id of the solve
it belongs to. ``uninstall`` puts the originals back, so an untraced
pass runs the library unmodified.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict

from bgrecon import annulus, bspline, solver, volterra

# (owner, attribute, span name). A layer function is wrapped where its
# callers look it up: quad_weighted_integral is imported by name into
# solver and volterra, and the solver's own functions call each other
# through the solver module.
TARGETS = (
    (solver, "quad_weighted_integral", "grid.quad"),
    (volterra, "quad_weighted_integral", "grid.quad"),
    (solver, "delta_moments", "bspline.delta_moments"),
    (bspline.CubicBSplineBasis, "node_values", "bspline.node_values"),
    (solver, "interpolate", "bspline.interpolate"),
    (volterra, "forward_data_exact", "volterra.forward_exact"),
    (solver, "forward_data", "volterra.forward"),
    (solver, "forward_dA", "volterra.forward"),
    (solver, "assemble_adjoint_system", "solver.assemble"),
    (solver, "reconstruct_profile", "solver.profile"),
    (annulus.AnnulusBVPSolver, "__init__", "annulus.factor"),
    (annulus.AnnulusBVPSolver, "solve", "annulus.solve"),
    (annulus, "solve_sentinel_equation", "annulus.tsvd"),
    (annulus, "kozlov_mazya_solve", "annulus.km"),
)

# Per-layer metric -> (span name, "calls" | "total" | "self"), or a count.
LAYER_METRICS = {
    "grid.quad_calls": ("grid.quad", "calls"),
    "grid.quad_s": ("grid.quad", "total"),
    "bspline.delta_moments_calls": ("bspline.delta_moments", "calls"),
    "bspline.delta_moments_s": ("bspline.delta_moments", "total"),
    "bspline.node_values_s": ("bspline.node_values", "total"),
    "bspline.interpolate_s": ("bspline.interpolate", "total"),
    "volterra.forward_exact_s": ("volterra.forward_exact", "total"),
    "volterra.x_calls": "volterra.x_calls",
    "volterra.forward_s": ("volterra.forward", "total"),
    "volterra.forward_calls": ("volterra.forward", "calls"),
    "solver.assemble_calls": ("solver.assemble", "calls"),
    "solver.assemble_self_s": ("solver.assemble", "self"),
    "solver.profile_self_s": ("solver.profile", "self"),
    "solver.refine_rounds": "solver.refine_rounds",
    "annulus.factor_calls": ("annulus.factor", "calls"),
    "annulus.factor_s": ("annulus.factor", "total"),
    "annulus.solve_calls": ("annulus.solve", "calls"),
    "annulus.solve_s": ("annulus.solve", "total"),
    "annulus.tsvd_self_s": ("annulus.tsvd", "self"),
    "annulus.km_iters": "annulus.km_iters",
    "annulus.km_self_s": ("annulus.km", "self"),
}

# The time metrics compared by the layer-share check; each is either a
# leaf span or a self time, so no two of them count the same interval.
LAYER_TIMES = (
    "grid.quad_s",
    "bspline.delta_moments_s",
    "bspline.node_values_s",
    "bspline.interpolate_s",
    "volterra.forward_exact_s",
    "solver.assemble_self_s",
    "solver.profile_self_s",
    "annulus.factor_s",
    "annulus.solve_s",
    "annulus.tsvd_self_s",
    "annulus.km_self_s",
)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, solve id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solve_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._ticks: list[tuple] = []
        self._first_span = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.solve_id])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()

        return traced

    def counted(self, name, fn):
        """Count the calls of a scalar callable the benchmark passes in."""
        tick = itertools.count()
        self._ticks.append((name, tick))

        def counting(t):
            next(tick)
            return fn(t)

        return counting

    def begin_pass(self):
        self.counts.clear()
        self._first_span = len(self.spans)
        self.install()

    def end_pass(self) -> dict:
        """Restore the library and return the pass's per-layer metrics.
        Only the first traced pass keeps its spans, for the trace file."""
        self.uninstall()
        while self._ticks:
            name, tick = self._ticks.pop()
            self.counts[name] += next(tick)
        metrics = layer_metrics(span_totals(self.spans, self._first_span), self.counts)
        if self._first_span:
            del self.spans[self._first_span:]
        return metrics

    def install(self):
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def span_totals(spans, first: int) -> dict:
    """Calls, total time and self time per span name over spans[first:].

    Self time is a span's duration minus the time its child spans cover;
    children of one span run one after another, so that is the sum of
    their durations.
    """
    child = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for index in range(first, len(spans)):
        name, start, end, _, _ = spans[index]
        entry = totals[name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child[index]
    return totals


def layer_metrics(totals, counts) -> dict:
    out = {}
    for metric, source in LAYER_METRICS.items():
        if isinstance(source, str):
            out[metric] = counts.get(source, 0)
        else:
            name, kind = source
            out[metric] = totals[name][kind] if name in totals else 0
    return out


def largest_layer(metrics) -> str:
    return max(LAYER_TIMES, key=lambda name: metrics[name])
