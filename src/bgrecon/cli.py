"""Experiment driver: reproduces the figure and table experiments from
the command line and writes CSV/SVG artifacts plus a checksum manifest.

Usage: bgrecon <experiment-id> [--n N] [--nu NU] [--eps EPS] [--seed S]
       [--out DIR] [--config FILE]

Experiment ids: fig1 fig2 fig3 fig4 fig5 fig6 table1 hadamard.
Config files are flat key=value text with the same keys as the flags;
flags override the file. Only fig2 reads --n, --nu, --eps and --seed;
setting one of them for another experiment is an error. N must lie in
4..N_MAX (1000) and the seed must not be negative.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import annulus
from .bspline import CubicBSplineBasis
from .grid import SampledFunction, UniformGrid, noise_direction
from .hadamard import amplification_table, amplification_table_to_csv
from .solver import profile_to_csv, reconstruct_profile
from .svgplot import emit_plot
from .volterra import (
    DiscreteForwardMap,
    QuadraticVolterraOperator,
    forward_data_exact,
)

EXPERIMENTS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "hadamard")

EXIT_OK = 0
EXIT_UNKNOWN_ID = 2
EXIT_NUMERICAL = 3
EXIT_UNWRITABLE = 4

# Configuration parameters each experiment reads; the others fix them.
PARAMETERS = ("n", "nu", "eps", "seed")
HONOURED = {"fig2": PARAMETERS}
# How the manifest writes the float parameters; n and seed are integers.
_FLOAT_FORMAT = {"nu": ".12g", "eps": ".12g"}
# Largest N a run accepts: 2.5 times the top of the performance sweep
# (N = 25..400). fig2 at N = 1000 runs in about 6 s and 180 MB; a much
# larger N would only fail to allocate its grid.
N_MAX = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 25
    nu: float = 0.0
    eps: float | None = None
    seed: int = 1
    out: str = "."

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment id {self.experiment!r}")
        if self.eps is None:
            # fig2 perturbs its data by 1 % unless eps says otherwise
            object.__setattr__(self, "eps", 0.01 if self.experiment == "fig2" else 0.0)
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


def _moment_setup(n: int, nu: float):
    """Grid, basis, operator with kernel x0(t) = t, and forward map."""
    grid = UniformGrid(n)
    kernel = SampledFunction(grid, grid.nodes.copy())
    op = QuadraticVolterraOperator(kernel, nu)
    return grid, CubicBSplineBasis(grid), op, DiscreteForwardMap(op)


def _targets(grid: UniformGrid) -> np.ndarray:
    """Grid nodes and interval midpoints, sorted."""
    mids = (grid.nodes[:-1] + grid.nodes[1:]) / 2
    return np.sort(np.concatenate([grid.nodes, mids]))


def _error_at_half(n, fn):
    # Convergence-study protocol: the direct problem is solved on a grid
    # refined by a fixed factor relative to the reconstruction grid, so
    # the whole pipeline is resolved at scale 1/n.
    grid, basis, op, fmap = _moment_setup(n, 0.0)
    y = forward_data_exact(op, fn, fmap.nodes, m=8 * n)
    pairs = reconstruct_profile(op, basis, op.kernel, y, [0.5], fmap)
    return abs(pairs[0][1] - fn(0.5))


# --- experiment runners -----------------------------------------------------


def _plot_reconstructions(out: str, plots) -> list[str]:
    """Write one reconstruction CSV per curve and one SVG per plot, and
    return the paths in write order. plots holds (svg, curves) pairs; a
    curve is (legend, csv, fn, N, nu) for exact data, or (legend, csv,
    fn, N, nu, eps, seed) for data with relative noise eps."""
    files = []
    for svg, curves in plots:
        series = []
        for legend, csv, fn, n, nu, *noise in curves:
            grid, basis, op, fmap = _moment_setup(n, nu)
            y = forward_data_exact(op, fn, fmap.nodes)
            if noise and noise[0] > 0:
                eps, seed = noise
                y = y + y * eps * noise_direction(y.shape, seed)
            pairs = reconstruct_profile(op, basis, op.kernel, y, _targets(grid), fmap)
            path = os.path.join(out, csv)
            profile_to_csv(pairs, path, truth=fn)
            files.append(path)
            series.append((legend, path))
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
    noisy = (cfg.n, cfg.nu, cfg.eps, cfg.seed)
    plots = [
        (
            f"fig2_{name}.svg",
            [(f"{name} noisy", f"fig2_{name}_N{cfg.n}.csv", fn, *noisy)],
        )
        for name, fn in FIG_FUNCTIONS
    ]
    return _plot_reconstructions(out, plots)


def fig3_errors(n_values=None):
    """Error at t = 1/2 for x_a(t) = 2t and the hat function, per N."""
    if n_values is None:
        n_values = range(10, 51)
    rows = []
    for n in n_values:
        rows.append((n, _error_at_half(n, x_lin2t), _error_at_half(n, x_b)))
    return rows


def loglog_slope(ns, errs):
    mask = np.asarray(errs) > 0
    return float(
        np.polyfit(np.log(np.asarray(ns)[mask]), np.log(np.asarray(errs)[mask]), 1)[0]
    )


def _run_fig3(cfg: ExperimentConfig, out: str) -> list[str]:
    rows = fig3_errors()
    path = os.path.join(out, "fig3_errors.csv")
    with open(path, "w", newline="") as fh:
        fh.write("N,err_xa,err_xb,parity\n")
        for n, ea, eb in rows:
            parity = "even" if n % 2 == 0 else "odd"
            fh.write(f"{n},{ea:.12g},{eb:.12g},{parity}\n")
    even = [(n, ea, eb) for n, ea, eb in rows if n % 2 == 0]
    ns = [r[0] for r in even]
    slope_a = loglog_slope(ns, [r[1] for r in even])
    slope_b = loglog_slope(ns, [r[2] for r in even])
    spath = os.path.join(out, "fig3_slopes.csv")
    with open(spath, "w", newline="") as fh:
        fh.write("function,loglog_slope\n")
        fh.write(f"x_a,{slope_a:.12g}\n")
        fh.write(f"x_b,{slope_b:.12g}\n")
    svg = os.path.join(out, "fig3.svg")
    emit_plot([("error x_a", path)], svg)
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
    for k, trace in result.iterates:
        path = os.path.join(out, f"fig6_psi_k{k}.csv")
        trace.to_csv(path)
        files.append(path)
        series.append((f"k={k}", path))
    rpath = os.path.join(out, "fig6_residuals.csv")
    with open(rpath, "w", newline="") as fh:
        fh.write("iteration,residual\n")
        for k, res in enumerate(result.residuals):
            fh.write(f"{k},{res:.12g}\n")
    files.append(rpath)
    svg = os.path.join(out, "fig6.svg")
    emit_plot(series, svg)
    files.append(svg)
    return files


TABLE1_GRID = (33, 128)


def table1_rows(n_r: int = TABLE1_GRID[0], n_theta: int = TABLE1_GRID[1]):
    """Rows (name, <mu,phi>, <psi,f>, corrected, relative error) for the
    two direct-problem traces.

    psi comes from the truncated-SVD solve of -A_sharp(psi) = mu; the
    alternating iteration (fig6) stalls at the contact-point flux
    singularity on fine grids, which would contaminate both table
    columns."""
    grid = annulus.AnnulusGrid(n_r, n_theta)
    psi_bar = annulus.BoundaryTrace(
        grid, annulus.GAMMA_L, np.ones(grid.n_half + 1)
    )
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
    with open(path, "w", newline="") as fh:
        fh.write("phi,mu_phi,psi_f,corrected,relative_error\n")
        for name, truth, raw, corrected, rel in rows:
            fh.write(
                f"{name},{truth:.12g},{raw:.12g},{corrected:.12g},{rel:.12g}\n"
            )
    # the spectrum behind psi: table1_rows filled the cache for this grid
    _, sigma, _ = annulus.flux_to_trace_svd(annulus.AnnulusGrid(*TABLE1_GRID))
    kept = sigma > annulus.SENTINEL_RCOND * sigma[0]
    spath = os.path.join(out, "table1_tsvd.csv")
    with open(spath, "w", newline="") as fh:
        fh.write("index,sigma,relative,kept\n")
        for i, (s, k) in enumerate(zip(sigma, kept)):
            fh.write(f"{i},{s:.12g},{s / sigma[0]:.12g},{int(k)}\n")
    return [path, spath]


def _run_hadamard(cfg: ExperimentConfig, out: str) -> list[str]:
    rows = amplification_table(6)
    path = os.path.join(out, "hadamard.csv")
    amplification_table_to_csv(rows, path)
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
    out = config.out
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    try:
        # overflow or NaN anywhere in a run is a numerical failure, not a warning
        with np.errstate(over="raise", invalid="raise"):
            files = _RUNNERS[config.experiment](config, out)
    except OSError as exc:
        print(f"error: cannot write artifact: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    except (np.linalg.LinAlgError, RuntimeError, FloatingPointError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    manifest = os.path.join(out, "manifest.txt")
    with open(manifest, "w", newline="") as fh:
        fh.write(f"experiment={config.experiment}\n")
        for key in HONOURED.get(config.experiment, ()):
            fh.write(f"{key}={getattr(config, key):{_FLOAT_FORMAT.get(key, '')}}\n")
        for path in files:
            fh.write(f"{os.path.basename(path)},{_sha256(path)}\n")
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
    parser.add_argument("experiment", help="one of: " + " ".join(EXPERIMENTS))
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--nu", type=float, default=None)
    parser.add_argument("--eps", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--config", default=None, help="flat key=value file")
    args = parser.parse_args(argv)
    cfg = ExperimentConfig(experiment=args.experiment)
    updates = {}
    if args.config:
        try:
            file_vals = _load_config_file(args.config)
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        casts = {"n": int, "nu": float, "eps": float, "seed": int, "out": str}
        unknown = sorted(set(file_vals) - set(casts))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        updates = {k: casts[k](v) for k, v in file_vals.items()}
    for key in (*PARAMETERS, "out"):
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
