"""Experiment driver: reproduces the figure and table experiments from
the command line and writes CSV/SVG artifacts plus a checksum manifest.

Usage: bgrecon <experiment-id> [--n N] [--nu NU] [--eps EPS] [--seed S]
       [--out DIR] [--config FILE]

Experiment ids: fig1 fig2 fig3 fig4 fig5 fig6 table1 hadamard.
Config files are flat key=value text with the same keys as the flags;
flags override the file. Only fig2 reads --n, --nu, --eps and --seed;
setting one of them for another experiment is an error. N must lie in
4..N_MAX (1000) and the seed must not be negative. A run removes the
old manifest.txt before it writes, writes its artifacts into a staging
directory inside the output directory, and moves them there and writes
a new manifest.txt only if it succeeds.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import shutil
import sys
from dataclasses import dataclass, replace

# One BLAS thread, set before numpy loads its BLAS: with more, the dense
# LAPACK calls of the moment solves round differently (fig2's CSVs change
# with the thread count), and the small dense annulus products run 10-60x
# slower on a 2-core host.
os.environ.update(
    dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
)

import numpy as np

from . import annulus
from .bspline import CubicBSplineBasis
from .grid import SampledFunction, UniformGrid, noise_direction
from .hadamard import amplification_table
from .solver import reconstruct_profile
from .svgplot import emit_plot
from .volterra import QuadraticVolterraOperator, forward_data_exact

EXIT_OK = 0
EXIT_UNKNOWN_ID = 2
EXIT_NUMERICAL = 3
EXIT_UNWRITABLE = 4

# Parameters an experiment may read, with their types; the experiments
# not in HONOURED fix their own. The flags and config keys add out.
PARAMETERS = {"n": int, "nu": float, "eps": float, "seed": int}
HONOURED = {"fig2": PARAMETERS}
# Largest N a run accepts: 2.5 times the top of the performance sweep
# (N = 25..400). fig2 at N = 1000 runs in 1.8-2.4 s and 177 MB on one
# BLAS thread of a 2-vCPU host; a much larger N would only fail to
# allocate its grid.
N_MAX = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 25
    nu: float = 0.0
    # fig2, the only experiment that reads eps, perturbs its data by 1 %
    eps: float = 0.01
    seed: int = 1
    out: str = "."

    def __post_init__(self):
        if self.experiment not in _RUNNERS:
            raise ValueError(f"unknown experiment id {self.experiment!r}")
        if not 4 <= self.n <= N_MAX:
            raise ValueError(f"need 4 <= N <= {N_MAX}, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got {self.seed}")
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ValueError(f"need finite nu >= 0, got {self.nu}")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"need finite eps >= 0, got {self.eps}")


# --- test functions from the moment-problem experiments ---------------------


def x_a(t):
    return t / 2 if t <= 0.5 else t - 0.25


def x_b(t):
    return 2 * t if t <= 0.5 else 2 - 2 * t


def x_c(t):
    return 1.0 if 0.25 <= t <= 0.75 else 0.0


def x_lin2t(t):
    return 2 * t


def x_sq(t):
    return t * t


# the test functions of fig1 and fig2, by name
FIG_FUNCTIONS = (("x_a", x_a), ("x_b", x_b), ("x_c", x_c))


def _reconstruct(fns, n, nu, targets, eps=0.0, seed=None, **exact):
    """One list of (t0, value) pairs per function in fns, at the targets
    on the N grid, from one weight system: the operator with kernel
    x0(t) = t linearized at x0, applied to forward_data_exact's data for
    each fn (options in exact) with seeded relative noise eps."""
    grid = UniformGrid(n)
    op = QuadraticVolterraOperator(SampledFunction(grid, grid.nodes.copy()), nu)
    rows = []
    for fn in fns:
        y = forward_data_exact(op, fn, **exact)
        if eps:
            y = y + y * eps * noise_direction(y.shape, seed)
        rows.append(y)
    return reconstruct_profile(op, CubicBSplineBasis(grid), op.kernel, np.array(rows), targets)


# --- experiment runners -----------------------------------------------------


def _field(v) -> str:
    """One CSV or manifest field: a float as %.12g, anything else with str."""
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _write_csv(path: str, header: str, rows) -> None:
    """Write one CSV artifact: the header line, then one line per row."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_field, row)) + "\n")


def _plot_reconstructions(out: str, plots, eps=0.0, seed=None) -> list[str]:
    """Write one reconstruction CSV per curve and one SVG per plot, and
    return the paths in write order. plots holds (svg, curves) pairs; a
    curve is (legend, file name, fn, N, nu), reconstructed at the grid
    nodes and interval midpoints from data with relative noise eps, with
    one weight system for all curves of one (N, nu). Each SVG draws its
    curves' reconstructed values over t."""
    groups = {}
    for _, curves in plots:
        for curve in curves:
            groups.setdefault(curve[3:], []).append(curve)
    profiles = {}
    for (n, nu), group in groups.items():
        nodes = UniformGrid(n).nodes
        targets = np.sort(np.concatenate([nodes, (nodes[:-1] + nodes[1:]) / 2]))
        fns = [fn for _, _, fn, _, _ in group]
        for (_, csv, *_), pairs in zip(group, _reconstruct(fns, n, nu, targets, eps, seed)):
            profiles[csv] = pairs
    files = []
    for svg, curves in plots:
        series = []
        for legend, csv, fn, _, _ in curves:
            pairs = profiles[csv]
            path = os.path.join(out, csv)
            _write_csv(path, "t,reconstructed,truth", [(t, v, fn(t)) for t, v in pairs])
            files.append(path)
            series.append((legend, *zip(*pairs)))
        path = os.path.join(out, svg)
        emit_plot(series, path)
        files.append(path)
    return files


def _run_fig1(cfg: ExperimentConfig, out: str) -> list[str]:
    plots = [
        (
            f"fig1_{name}.svg",
            [(f"{name} N={n}", f"fig1_{name}_N{n}.csv", fn, n, 0.0) for n in (25, 50)],
        )
        for name, fn in FIG_FUNCTIONS
    ]
    return _plot_reconstructions(out, plots)


def _run_fig2(cfg: ExperimentConfig, out: str) -> list[str]:
    plots = [
        (
            f"fig2_{name}.svg",
            [(f"{name} noisy", f"fig2_{name}_N{cfg.n}.csv", fn, cfg.n, cfg.nu)],
        )
        for name, fn in FIG_FUNCTIONS
    ]
    return _plot_reconstructions(out, plots, cfg.eps, cfg.seed)


def fig3_errors(n_values=range(10, 51)):
    """Error at t = 1/2 for x_lin2t(t) = 2t and the hat function x_b, per N.

    Convergence-study protocol: the exact data integrate on a grid refined
    by a fixed factor (m = 8N) relative to the reconstruction grid, so the
    whole pipeline is resolved at scale 1/N."""
    fns = (x_lin2t, x_b)
    rows = []
    for n in n_values:
        profiles = _reconstruct(fns, n, 0.0, [0.5], m=8 * n)
        rows.append((n, *(abs(p[0][1] - fn(0.5)) for fn, p in zip(fns, profiles))))
    return rows


def loglog_slope(ns, errs):
    mask = np.asarray(errs) > 0
    return float(
        np.polyfit(np.log(np.asarray(ns)[mask]), np.log(np.asarray(errs)[mask]), 1)[0]
    )


def _run_fig3(cfg: ExperimentConfig, out: str) -> list[str]:
    rows = fig3_errors()
    path = os.path.join(out, "fig3_errors.csv")
    _write_csv(
        path,
        "N,err_xa,err_xb,parity",
        [(n, ea, eb, "odd" if n % 2 else "even") for n, ea, eb in rows],
    )
    even = [(n, ea, eb) for n, ea, eb in rows if n % 2 == 0]
    ns = [r[0] for r in even]
    slope_a = loglog_slope(ns, [r[1] for r in even])
    slope_b = loglog_slope(ns, [r[2] for r in even])
    spath = os.path.join(out, "fig3_slopes.csv")
    _write_csv(spath, "function,loglog_slope", [("x_a", slope_a), ("x_b", slope_b)])
    svg = os.path.join(out, "fig3.svg")
    emit_plot([("error x_a", [r[0] for r in rows], [r[1] for r in rows])], svg)
    return [path, spath, svg]


def _run_fig4(cfg: ExperimentConfig, out: str) -> list[str]:
    curves = [
        (f"nu={nu:g}", f"fig4_nu{nu:g}.csv", x_sq, 25, nu) for nu in (0.01, 0.1, 1.0)
    ]
    return _plot_reconstructions(out, [("fig4.svg", curves)])


def _run_fig5(cfg: ExperimentConfig, out: str) -> list[str]:
    plots = [
        (f"fig5_{name}.svg", [(name, f"fig5_{name}.csv", fn, 25, 0.01)])
        for name, fn in (("x_b", x_b), ("x_c", x_c))
    ]
    return _plot_reconstructions(out, plots)


def _run_fig6(cfg: ExperimentConfig, out: str) -> list[str]:
    # mu = A_sharp(1) on 17 x 64, then 100 Kozlov-Maz'ya steps
    grid = annulus.AnnulusGrid(17, 64)
    psi_bar = annulus.BoundaryTrace(grid, annulus.GAMMA_L, np.ones(grid.n_half + 1))
    mu = annulus.apply_A_sharp(grid, psi_bar)
    result = annulus.kozlov_mazya_solve(
        grid, mu, max_iter=100, tol=1e-12, keep_iterates=(1, 2, 5, 10, 25, 50, 100)
    )
    files = []
    series = []
    t = grid.arc_params
    for k, trace in result.iterates:
        path = os.path.join(out, f"fig6_psi_k{k}.csv")
        _write_csv(
            path, "index,arc_parameter,value", zip(range(t.size), t, trace.values)
        )
        files.append(path)
        series.append((f"k={k}", t, trace.values))
    rpath = os.path.join(out, "fig6_residuals.csv")
    _write_csv(rpath, "iteration,residual", enumerate(result.residuals))
    files.append(rpath)
    svg = os.path.join(out, "fig6.svg")
    emit_plot(series, svg)
    files.append(svg)
    return files


TABLE1_GRID = (33, 128)


def table1_rows(n_r: int = TABLE1_GRID[0], n_theta: int = TABLE1_GRID[1]):
    """Rows (name, <mu,phi>, <psi,f>, corrected, relative error) for the
    two direct-problem traces.

    psi comes from the truncated-SVD solve of -A_sharp(psi) = mu. The
    alternating iteration (fig6) is of Landweber type: its step matrix is
    self-adjoint in the Neumann energy, with eigenvalues in [0.60, 1] at
    33 x 128 that cluster at 1 on the flux-to-trace matrix's numerical
    null space. It lowers the error energy in every step, but slowly
    (125 to 20.9 in 100 steps at 33 x 128), and its residual stalls, so
    its iterate would contaminate both table columns."""
    grid = annulus.AnnulusGrid(n_r, n_theta)
    psi_bar = annulus.BoundaryTrace(grid, annulus.GAMMA_L, np.ones(grid.n_half + 1))
    mu = annulus.apply_A_sharp(grid, psi_bar)
    psi = annulus.solve_sentinel_equation(grid, mu)
    rows = []
    for name, fn in (
        ("phi_1", lambda t: (t - np.pi / 2) ** 2),
        ("phi_2", lambda t: np.pi - 2 * abs(t - np.pi / 2)),
    ):
        phi = annulus.BoundaryTrace.from_callable(grid, annulus.GAMMA_R, fn)
        f = annulus.apply_A(grid, phi)
        truth = annulus.trace_inner(mu, phi)
        raw = annulus.trace_inner(psi, f)
        a, b = fn(0.0), fn(np.pi)
        corrected = annulus.sentinel_reconstruct(grid, psi, f, a, b)
        rel = abs(corrected - truth) / abs(truth)
        rows.append((name, truth, raw, corrected, rel))
    return rows


def _run_table1(cfg: ExperimentConfig, out: str) -> list[str]:
    rows = table1_rows()
    path = os.path.join(out, "table1.csv")
    _write_csv(path, "phi,mu_phi,psi_f,corrected,relative_error", rows)
    # the spectrum behind psi: table1_rows filled the cache for this grid
    sigma, _, kept, _ = annulus.grid_solver(annulus.AnnulusGrid(*TABLE1_GRID)).tsvd
    spath = os.path.join(out, "table1_tsvd.csv")
    _write_csv(
        spath,
        "index,sigma,relative,kept",
        [(i, s, s / sigma[0], int(i < kept.size)) for i, s in enumerate(sigma)],
    )
    return [path, spath]


def _run_hadamard(cfg: ExperimentConfig, out: str) -> list[str]:
    path = os.path.join(out, "hadamard.csv")
    _write_csv(path, "k,data_norm,solution_sup,ratio", amplification_table(6))
    return [path]


_RUNNERS = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "table1": _run_table1,
    "hadamard": _run_hadamard,
}


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_experiment(config: ExperimentConfig) -> int:
    # The runner writes into a staging directory inside out, whose
    # creation is the write probe; its files move into out only when the
    # run succeeds, and it is removed whatever the exit code.
    staging = os.path.join(config.out, f".bgrecon-{os.getpid()}")
    try:
        return _run_staged(config, staging)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _run_staged(config: ExperimentConfig, staging: str) -> int:
    out = config.out
    manifest = os.path.join(out, "manifest.txt")
    try:
        os.makedirs(staging, exist_ok=True)
        # a failed run must not leave an earlier run's manifest behind
        if os.path.lexists(manifest):
            os.remove(manifest)
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    try:
        # overflow or NaN anywhere in a run is a numerical failure, not a warning
        with np.errstate(over="raise", invalid="raise"):
            files = _RUNNERS[config.experiment](config, staging)
        names = [os.path.basename(path) for path in files]
        for name in names:
            os.replace(os.path.join(staging, name), os.path.join(out, name))
        with open(manifest, "w", newline="") as fh:
            fh.write(f"experiment={config.experiment}\n")
            for key in HONOURED.get(config.experiment, ()):
                fh.write(f"{key}={_field(getattr(config, key))}\n")
            for name in names:
                fh.write(f"{name},{_sha256(os.path.join(out, name))}\n")
    except OSError as exc:
        print(f"error: cannot write artifact: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    except (np.linalg.LinAlgError, RuntimeError, FloatingPointError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def build_config(argv) -> ExperimentConfig:
    parser = argparse.ArgumentParser(
        prog="bgrecon", description="Backus-Gilbert reconstruction experiments"
    )
    parser.add_argument("experiment", help="one of: " + " ".join(_RUNNERS))
    # every flag but --config is a config-file key, read with the same type
    fields = {**PARAMETERS, "out": str}
    for key, cast in fields.items():
        parser.add_argument(f"--{key}", type=cast)
    parser.add_argument("--config", help="flat key=value file")
    args = parser.parse_args(argv)
    cfg = ExperimentConfig(experiment=args.experiment)
    updates = {}
    if args.config:
        try:
            file_vals = _load_config_file(args.config)
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        unknown = sorted(set(file_vals) - set(fields))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        updates = {k: fields[k](v) for k, v in file_vals.items()}
    for key in fields:
        if getattr(args, key) is not None:
            updates[key] = getattr(args, key)
    honoured = HONOURED.get(cfg.experiment, ())
    ignored = [k for k in PARAMETERS if k in updates and k not in honoured]
    if ignored:
        raise ValueError(f"{cfg.experiment} does not read {', '.join(ignored)}")
    return replace(cfg, **updates)


def main(argv=None) -> int:
    try:
        config = build_config(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_ID
    return run_experiment(config)


if __name__ == "__main__":
    sys.exit(main())
