"""bgrecon benchmark: one seeded workload per run, from one process.

    python3 bench/run.py --workload moment_profile --seed 1 --seconds 30 --trace 0

The load is a closed loop: one caller runs one solve at a time against
the library API in ``src/``. A run builds its inputs (``setup_s``), then
repeats passes over the workload until ``--seconds`` have elapsed; each
pass draws new seeded problems. Every output is checked against the
known truth and, for the seed the reference file was written with,
against the stored reference outputs. With ``--trace 1`` untraced and
traced passes alternate, and the per-layer metrics come from the traced
ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every output is correct, 1 when one is not, and 2 when the
library cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
OUT = BENCH / "out"

# One BLAS thread for the one caller; at most nproc by construction.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# Largest deviation from the stored reference outputs, relative to
# max(1, |reference|). Rounding changes from a reordered computation stay
# far below it; a perturbed weight vector does not.
REFERENCE_TOL = 1e-6
TAIL_BEYOND = 10
# The host this benchmark was written on drifts in speed by up to 2x over
# seconds to minutes, for identical work. A fixed probe timed before each
# solve tracks that drift; the *_norm_s metrics rescale each pass's solve
# times to a host on which the probe takes PROBE_REF_S, about its time on
# an uncontended core of that host.
PROBE_REF_S = 1.0e-3

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import bgrecon; print(time.perf_counter() - t)"
)

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "wall_norm_s": "s",
    "solve_p50_norm_s": "s",
    "solve_tail_norm_s": "s",
    "peak_rss_mb": "MB",
}
# The metrics bounded in BENCHMARK.json; the raw timings are printed.
RESULT_METRICS = ("setup_s", "wall_norm_s", "solve_p50_norm_s", "solve_tail_norm_s", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="bgrecon benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="self-test: perturb the weights so that the correctness gate must fail",
    )
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store the first pass's outputs as the reference for this seed",
    )
    return parser.parse_args(argv)


def time_import() -> float:
    """Seconds to import bgrecon in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout)


def measure_setup(workload, seed):
    """Median import time plus median input-building time."""
    imports = [time_import() for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(seed)
        builds.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(builds), state


def corrupt(numpy, annulus):
    """Perturb every weight vector by a relative 1e-3: the pseudo-inverse
    that reconstruct_profile applies to each target's moments, and the
    sentinel flux of every annulus solve."""
    from bgrecon.grid import noise_direction

    pinv = numpy.linalg.pinv
    sentinel = annulus.solve_sentinel_equation

    def pinv_perturbed(matrix, *args, **kwargs):
        inverse = pinv(matrix, *args, **kwargs)
        return inverse * (1.0 + 1e-3 * noise_direction(inverse.shape, 0))

    def sentinel_perturbed(*args, **kwargs):
        psi = sentinel(*args, **kwargs)
        noise = 1.0 + 1e-3 * noise_direction(psi.values.shape, 0)
        return type(psi)(psi.grid, psi.segment, psi.values * noise)

    numpy.linalg.pinv = pinv_perturbed
    annulus.solve_sentinel_equation = sentinel_perturbed


def host_probe() -> float:
    """Seconds for a fixed slice of interpreter and small-array work, the
    kind of work the solves do; it does not touch bgrecon."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 65)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(100):
        acc += float(np.interp(0.37, x, x)) + float(np.trapezoid(x, x))
        for j in range(20):
            acc += j * 0.5
    return time.perf_counter() - start


def run_pass(workload, state, seed, p, tracer):
    """Run one pass; return the time of each solve, the host scale of the
    pass (PROBE_REF_S over the median probe time) and each solve's check."""
    solves = workload.make_pass(state, seed, p, tracer)
    outputs, times, probes = [], [], []
    for solve_id, solve in enumerate(solves):
        probes.append(host_probe())
        run = solve.run
        if tracer is not None:
            tracer.solve_id = (p, solve_id)
            run = tracer.wrap("solve", run)
        begin = time.perf_counter()
        try:
            outputs.append(run())
        except Exception:  # a failed solve is counted, and the run goes on
            traceback.print_exc()
            outputs.append(None)
        times.append(time.perf_counter() - begin)
    checks = []
    for solve, output in zip(solves, outputs):
        if output is None:
            checks.append((solve.label, None, False, []))
            continue
        try:
            err, ok, values = solve.check(output)
        except Exception:
            traceback.print_exc()
            err, ok, values = None, False, []
        checks.append((solve.label, err, ok, values))
    return times, PROBE_REF_S / statistics.median(probes), checks


def reference_deviations(reference, checks):
    """Per-solve maximum deviation from the stored reference outputs,
    relative to max(1, |reference|); inf where the solves do not match."""
    stored = dict(reference["solves"])
    devs = []
    for label, _, _, values in checks:
        ref = stored.get(label)
        if ref is None or len(ref) != len(values):
            devs.append(float("inf"))
            continue
        devs.append(max((abs(v - r) / max(1.0, abs(r)) for v, r in zip(values, ref)), default=0.0))
    return devs


def median_pass(passes):
    """Wall time of a typical pass: the sum over the pass's solves of each
    solve's median time across passes. Solves run back to back, so a
    pass's wall time is the sum of its solve times; taking the median
    solve by solve keeps a slow stretch of the machine that spans part
    of a pass from moving the result."""
    return sum(statistics.median(times) for times in zip(*passes))


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_version(module) -> str:
    config = module.show_config(mode="dicts")
    return config.get("Build Dependencies", {}).get("blas", {}).get("version", "unknown")


def metadata(args, passes) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "load": "closed loop, 1 caller, 1 solve at a time",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas_version(numpy), "scipy": blas_version(scipy)},
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def print_table(rows):
    for name, value, unit, note in rows:
        print(f"{name:<28} {value!s:<24} {unit:<6} {note}")


def run_passes(workload, state, args, tracer):
    """Repeat passes until ``args.seconds`` have elapsed. With a tracer,
    untraced and traced passes alternate, and at least one of each runs.

    Returns the per-solve times and host scales of the untraced (False)
    and traced (True) passes, the checks of every pass, and the per-layer
    metrics of every traced pass.
    """
    pass_times = {False: [], True: []}
    pass_scales = {False: [], True: []}
    pass_checks, layer_passes = [], []
    deadline = time.perf_counter() + args.seconds
    p = 0
    while p < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.begin_pass()
        try:
            times, scale, checks = run_pass(workload, state, args.seed, p, tracer if traced else None)
        finally:
            if traced:
                layer_passes.append(tracer.end_pass())
        pass_times[traced].append(times)
        pass_scales[traced].append(scale)
        pass_checks.append(checks)
        p += 1
    return pass_times, pass_scales, pass_checks, layer_passes


def check_reference(args, first_checks):
    """Write or compare the reference outputs of the first pass.

    Returns the per-solve deviations (None when there is no reference for
    this seed) and a note for the table."""
    path = REFERENCE / f"{args.workload}.json"
    if args.write_reference:
        REFERENCE.mkdir(exist_ok=True)
        path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "solves": [[label, values] for label, _, _, values in first_checks],
        }) + "\n")
        return None, f"written to {path.relative_to(ROOT)}"
    if path.exists():
        reference = json.loads(path.read_text())
        if reference["seed"] == args.seed:
            note = f"seed {args.seed} vs stored reference, tolerance {REFERENCE_TOL:g}"
            return reference_deviations(reference, first_checks), note
    return None, "no reference for this seed"


def write_trace(args, meta, layers, layer_passes, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "meta": meta,
        "layers": layers,
        "layer_passes": layer_passes,
        "span_fields": ["name", "start", "end", "parent", "solve"],
        "spans": tracer.spans,
    }))
    return path


def unit_of(layer_metric):
    return "s" if layer_metric.endswith("_s") else "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    try:
        import bgrecon
    except ImportError as exc:
        print(f"error: cannot import bgrecon from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(bgrecon.__file__).resolve().is_relative_to(SRC):
        print(f"error: bgrecon was imported from {bgrecon.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.corrupt:
        import numpy

        corrupt(numpy, bgrecon.annulus)

    setup_s, state = measure_setup(workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    pass_times, pass_scales, pass_checks, layer_passes = run_passes(workload, state, args, tracer)

    checks = [check for checks in pass_checks for check in checks]
    failed_flags = [not ok for _, _, ok, _ in checks]
    devs, ref_note = check_reference(args, pass_checks[0])
    if devs is not None:
        for i, dev in enumerate(devs):
            failed_flags[i] |= not dev <= REFERENCE_TOL
    ref_dev_max = max(devs) if devs else None

    attempted = len(checks)
    failed = sum(failed_flags)
    errs = [err for _, err, _, _ in checks if err is not None]
    err_max = max(errs) if errs else None
    norm_times = [
        [t * scale for t in times] for times, scale in zip(pass_times[False], pass_scales[False])
    ]
    solve_times = [t for times in pass_times[False] for t in times]
    norm_solve_times = [t for times in norm_times for t in times]
    tail_value, tail_pct = tail(solve_times)
    metrics = {
        "setup_s": setup_s,
        "wall_s": median_pass(pass_times[False]),
        "solve_p50_s": statistics.median(solve_times),
        "solve_tail_s": tail_value,
        "wall_norm_s": median_pass(norm_times),
        "solve_p50_norm_s": statistics.median(norm_solve_times),
        "solve_tail_norm_s": tail(norm_solve_times)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    for (label, err, _, _), bad in zip(checks, failed_flags):
        if bad:
            print(f"FAILED {label}: err={err}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(pass_checks)}  solves {attempted}  trace {args.trace}")
    rows = [(name, value, UNITS[name], "") for name, value in metrics.items()]
    rows[3] = (*rows[3][:3], f"p{tail_pct:.1f} of {len(solve_times)} solves")
    rows[4] = (*rows[4][:3], f"host scale {statistics.median(pass_scales[False]):.3f}")
    rows += [
        ("err_max", err_max, "rel" if args.workload == "annulus_sentinel" else "abs", "largest error against the truth"),
        ("fail_frac", failed / attempted, "1", f"{failed} of {attempted} solves"),
        ("ref_dev_max", ref_dev_max, "rel", ref_note),
    ]
    print_table(rows)

    meta = metadata(args, len(pass_checks))
    meta.update({
        "solve_tail_percentile": tail_pct,
        "solve_samples": len(solve_times),
        "pass_solve_times": [[round(t, 6) for t in times] for times in pass_times[False]],
        "pass_host_scales": [round(scale, 6) for scale in pass_scales[False]],
        "err_max": err_max,
        "fail_frac": failed / attempted,
        "reference_deviation_max": ref_dev_max,
    })
    result = {name: {"value": metrics[name], "unit": UNITS[name]} for name in RESULT_METRICS}
    if tracer is not None:
        layers = {
            name: statistics.median(lp[name] for lp in layer_passes)
            for name in tracing.LAYER_METRICS
        }
        layers["trace.overhead_s"] = median_pass(pass_times[True]) - median_pass(pass_times[False])
        meta["largest_layer"] = tracing.largest_layer(layers)
        print(f"traced passes {len(layer_passes)}  largest layer {meta['largest_layer']}")
        print_table([(name, value, unit_of(name), "") for name, value in layers.items()])
        path = write_trace(args, meta, layers, layer_passes, tracer)
        print(f"trace written to {path.relative_to(ROOT)}")
        result = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}

    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
