"""The three benchmark workloads.

Each workload has a ``setup(seed)`` that builds the grids, bases and
other inputs shared by every pass, and a ``make_pass(state, seed, p,
tracer)`` that draws pass ``p``'s seeded problems and returns them as a
list of solves. A solve is one top-level library call (with its forward
data) plus a check against the known truth. Every pass draws new
operators and data from ``(seed, p)``, so reuse of data-independent
weights is confined to one pass; the cost of a pass does not depend on
the seed.

``tracer`` is None in the untraced run. In the traced run it counts
calls of the test functions the benchmark hands to the library, and the
refinement rounds and alternating-iteration steps the solves report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from bgrecon import annulus, solver, volterra
from bgrecon.bspline import CubicBSplineBasis
from bgrecon.grid import SampledFunction, UniformGrid, noise_direction


@dataclass
class Solve:
    """One timed library call and the check of its output.

    ``check(output)`` returns ``(err, ok, values)``: the error against the
    truth (None when the solve has no error of that kind), whether every
    gate passed, and the output values compared with the stored reference.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(values)))


def _counted(tracer, name, fn):
    return fn if tracer is None else tracer.counted(name, fn)


def _add(tracer, name, n):
    if tracer is not None:
        tracer.counts[name] += n


# --- moment problem ----------------------------------------------------------

# Relative data noise. At 1e-5 the reconstruction error stays within a
# small multiple of the exact-data error at N <= 64; at 1e-2 the noise
# term alone reaches 10-50 on unit-size functions and no tolerance could
# tell a correct weight vector from a corrupted one.
NOISE_LEVEL = 1e-5
# Interior point-value error allowed for the seeded piecewise-linear
# functions. Over seeds 1-20 (two passes each) the seed code stays below
# 0.28; at nu = 0.01 the linearization error dominates.
PROFILE_TOL = 0.75
# Error at t = 1/2 allowed in the sweep, in units of |c| / N for kink
# strength |c|. The seed code's error is first order: 0.33 |c| / N at even
# N and 0.39 |c| / N at odd N, for every seed.
SWEEP_TOL = 1.0
REFINE_ROUNDS = 3


@dataclass
class MomentSize:
    grid: UniformGrid
    basis: CubicBSplineBasis
    x0: SampledFunction
    targets: np.ndarray
    interior: np.ndarray


def _moment_size(n: int, targets=None) -> MomentSize:
    grid = UniformGrid(n)
    if targets is None:
        mids = (grid.nodes[:-1] + grid.nodes[1:]) / 2
        targets = np.sort(np.concatenate([grid.nodes, mids]))
    targets = np.asarray(targets, dtype=float)
    h = grid.h
    return MomentSize(
        grid,
        CubicBSplineBasis(grid),
        # linearization point: the mean level of the seeded functions
        SampledFunction(grid, np.ones(n + 1)),
        targets,
        # the cubic basis loses support within 2h of either end
        (targets >= 2 * h) & (targets <= 1 - 2 * h),
    )


def _operator(size: MomentSize, nu: float, scale: float):
    """Kernel k(t) = scale * t; a new scale per pass gives a new operator."""
    kernel = SampledFunction(size.grid, scale * size.grid.nodes)
    op = volterra.QuadraticVolterraOperator(kernel, nu)
    return op, volterra.DiscreteForwardMap(op)


def _random_piecewise_linear(rng):
    """Seeded continuous piecewise-linear function with two kinks in
    [0.2, 0.8], as a plain scalar Python callable (the form the
    experiments pass to forward_data_exact)."""
    k1, k2 = (float(k) for k in np.sort(rng.uniform(0.2, 0.8, 2)))
    v0, v1, v2, v3 = (float(v) for v in rng.uniform(0.75, 1.25, 4))
    s0, s1, s2 = (v1 - v0) / k1, (v2 - v1) / (k2 - k1), (v3 - v2) / (1.0 - k2)

    def x(t):
        if t < k1:
            return v0 + s0 * t
        if t < k2:
            return v1 + s1 * (t - k1)
        return v2 + s2 * (t - k2)

    return x


def _profile_check(size: MomentSize, x):
    truth = np.asarray([x(t) for t in size.targets])

    def check(pairs):
        values = np.asarray([v for _, v in pairs], dtype=float)
        err = float(np.max(np.abs(values - truth)[size.interior]))
        ok = len(values) == len(truth) and _finite(values) and err <= PROFILE_TOL
        return err, ok, values.tolist()

    return check


def _noisy_data(op, fmap, x, noise_seed):
    y = volterra.forward_data_exact(op, x, fmap.nodes)
    return y * (1.0 + NOISE_LEVEL * noise_direction(y.shape, noise_seed))


def _profile_solve(op, fmap, size, x, noise_seed):
    y = _noisy_data(op, fmap, x, noise_seed)
    return solver.reconstruct_profile(op, size.basis, size.x0, y, size.targets, fmap)


def _refine_solve(op, fmap, size, x, noise_seed, tracer):
    y = _noisy_data(op, fmap, x, noise_seed)
    profiles = solver.iterative_refinement(
        op, size.basis, size.x0, y, size.targets, REFINE_ROUNDS, fmap
    )
    _add(tracer, "solver.refine_rounds", len(profiles))
    return profiles


# (N, nu, K): K seeded data sets per operator, so (K-1)/K of the
# reconstructions could reuse weights already built in the same pass.
# With 4 cheap (N=32) and 7 dear solves (N=64 and the refinement) per
# pass, the median solve falls inside the dear group rather than on the
# gap between the two, where machine noise would move it.
PROFILE_OPERATORS = ((32, 0.0, 2), (32, 0.01, 2), (64, 0.0, 3), (64, 0.01, 3))
REFINE_OPERATOR = (32, 0.01)


def profile_setup(seed):
    return {n: _moment_size(n) for n in {n for n, _, _ in PROFILE_OPERATORS} | {REFINE_OPERATOR[0]}}


def profile_pass(sizes, seed, p, tracer):
    rng = np.random.default_rng((seed, p))
    solves = []
    for n, nu, k in PROFILE_OPERATORS:
        size = sizes[n]
        op, fmap = _operator(size, nu, rng.uniform(0.8, 1.25))
        for j in range(k):
            x = _random_piecewise_linear(rng)
            run = partial(
                _profile_solve, op, fmap, size,
                _counted(tracer, "volterra.x_calls", x), int(rng.integers(2**32)),
            )
            solves.append(Solve(f"profile N={n} nu={nu:g} #{j}", run, _profile_check(size, x)))

    n, nu = REFINE_OPERATOR
    size = sizes[n]
    op, fmap = _operator(size, nu, rng.uniform(0.8, 1.25))
    x = _random_piecewise_linear(rng)
    run = partial(
        _refine_solve, op, fmap, size,
        _counted(tracer, "volterra.x_calls", x), int(rng.integers(2**32)), tracer,
    )
    check_last = _profile_check(size, x)
    solves.append(Solve(f"refine N={n} nu={nu:g}", run, lambda profiles: check_last(profiles[-1])))
    return solves


SWEEP_N = tuple(range(12, 61))


def sweep_setup(seed):
    return {n: _moment_size(n, targets=[0.5]) for n in SWEEP_N}


def _sweep_solve(op, fmap, size, x):
    y = volterra.forward_data_exact(op, x, fmap.nodes, m=8 * size.grid.n)
    return solver.reconstruct_profile(op, size.basis, size.x0, y, size.targets, fmap)


def _sweep_check(truth, tol, pairs):
    value = pairs[0][1]
    err = abs(value - truth)
    return err, len(pairs) == 1 and _finite([value]) and err <= tol, [value]


def sweep_pass(sizes, seed, p, tracer):
    """fig3 protocol: one kink at t = 1/2, exact dense data with m = 8N."""
    rng = np.random.default_rng((seed, p))
    scale = rng.uniform(0.8, 1.25)
    a, b = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0)
    c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)

    def x(t):
        return a + b * t + c * abs(t - 0.5)

    counted = _counted(tracer, "volterra.x_calls", x)
    solves = []
    for n in SWEEP_N:
        size = sizes[n]
        op, fmap = _operator(size, 0.0, scale)
        run = partial(_sweep_solve, op, fmap, size, counted)
        solves.append(Solve(f"sweep N={n}", run, partial(_sweep_check, x(0.5), SWEEP_TOL * abs(c) / n)))
    return solves


# --- annulus ------------------------------------------------------------------

# The sentinel identity is discretely exact: the seed code's relative
# error is about 1e-12.
SENTINEL_TOL = 1e-8
SENTINEL_ITEMS = 2
KM_ITERATIONS = 100
# The alternating iteration stalls at the contact-point singularity; the
# seed code reduces the residual to about 0.22 of its start in 100 steps.
KM_RESIDUAL_DROP = 0.5


@dataclass
class AnnulusState:
    fine: annulus.AnnulusGrid
    coarse: annulus.AnnulusGrid


def annulus_setup(seed):
    return AnnulusState(annulus.AnnulusGrid(65, 256), annulus.AnnulusGrid(33, 128))


def _flux(grid, rng):
    """Smooth positive flux on Gamma_l."""
    t = grid.arc_params
    a, b = rng.uniform(-0.3, 0.3, 2)
    return annulus.BoundaryTrace(grid, annulus.GAMMA_L, 1.0 + a * np.cos(t) + b * np.sin(2 * t))


def _sentinel_solve(grid, psi_bar, phi):
    """table1 chain: mu = A_sharp(psi_bar), the sentinel psi by TSVD, data
    f = A(phi), and the corrected value <psi, f> - r_{a,b}(psi)."""
    mu = annulus.apply_A_sharp(grid, psi_bar)
    psi = annulus.solve_sentinel_equation(grid, mu)
    f = annulus.apply_A(grid, phi)
    value = annulus.sentinel_reconstruct(grid, psi, f, phi.values[0], phi.values[-1])
    return value, annulus.trace_inner(mu, phi)


def _sentinel_check(out):
    value, truth = out
    err = abs(value - truth) / abs(truth)
    return err, _finite([value, truth]) and err <= SENTINEL_TOL, [value]


def _km_solve(grid, psi_bar, tracer):
    """fig6 chain: mu = -A_sharp(psi_bar), then a fixed number of steps."""
    mu = annulus.BoundaryTrace(
        grid, annulus.GAMMA_R, -annulus.apply_A_sharp(grid, psi_bar).values
    )
    result = annulus.kozlov_mazya_solve(grid, mu, max_iter=KM_ITERATIONS, tol=0.0)
    _add(tracer, "annulus.km_iters", len(result.residuals) - 1)
    return result


def _km_check(result):
    r = result.residuals
    ok = (
        len(r) == KM_ITERATIONS + 1
        and _finite(r)
        and _finite(result.psi.values)
        and r[-1] <= KM_RESIDUAL_DROP * r[0]
    )
    return None, ok, r.tolist()


def annulus_pass(state, seed, p, tracer):
    rng = np.random.default_rng((seed, p))
    grid = state.fine
    t = grid.arc_params
    solves = []
    for j in range(SENTINEL_ITEMS):
        psi_bar = _flux(grid, rng)
        c = rng.uniform(-0.2, 0.2, 3)
        # positive on Gamma_r, so <mu, phi> stays away from 0
        phi = annulus.BoundaryTrace(
            grid,
            annulus.GAMMA_R,
            1.0 + c[0] * (t - np.pi / 2) ** 2 / 2 + c[1] * np.sin(t) + c[2] * np.cos(t),
        )
        solves.append(Solve(f"sentinel 65x256 #{j}", partial(_sentinel_solve, grid, psi_bar, phi), _sentinel_check))
    run = partial(_km_solve, state.coarse, _flux(state.coarse, rng), tracer)
    solves.append(Solve("kozlov-mazya 33x128", run, _km_check))
    return solves


@dataclass(frozen=True)
class Workload:
    setup: Callable
    make_pass: Callable


WORKLOADS = {
    "moment_profile": Workload(profile_setup, profile_pass),
    "moment_sweep": Workload(sweep_setup, sweep_pass),
    "annulus_sentinel": Workload(annulus_setup, annulus_pass),
}
