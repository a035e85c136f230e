import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from bgrecon import cli, solver
from bgrecon.cli import (
    _RUNNERS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNKNOWN_ID,
    EXIT_UNWRITABLE,
    N_MAX,
    ExperimentConfig,
    build_config,
    main,
    run_experiment,
)


def test_config_rejects_unknown_experiment():
    with pytest.raises(ValueError):
        ExperimentConfig("fig99")


def test_config_rejects_bad_numeric_values():
    with pytest.raises(ValueError):
        ExperimentConfig("fig1", n=2)
    with pytest.raises(ValueError):
        ExperimentConfig("fig1", nu=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig("fig1", eps=-0.1)


@pytest.mark.parametrize("flags", [["--eps", "inf"], ["--nu", "nan"]])
def test_nonfinite_flag_is_rejected(tmp_path, flags):
    assert main(["fig2", *flags, "--out", str(tmp_path)]) == EXIT_UNKNOWN_ID
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("line", ["eps=inf", "nu=nan"])
def test_nonfinite_config_value_is_rejected(tmp_path, line):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    out = tmp_path / "out"
    code = main(["fig2", "--config", str(cfg_file), "--out", str(out)])
    assert code == EXIT_UNKNOWN_ID
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["--seed", "-1"], ["--n", str(10**20)], ["--n", str(N_MAX + 1)]]
)
def test_out_of_range_flag_is_rejected(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["fig2", *flags, "--out", str(out)]) == EXIT_UNKNOWN_ID
    assert capsys.readouterr().err.startswith("error: need")
    assert not out.exists()


@pytest.mark.parametrize("line", ["seed=-1", f"n={10**20}", f"n={N_MAX + 1}"])
def test_out_of_range_config_value_is_rejected(tmp_path, capsys, line):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    with pytest.raises(ValueError, match="need"):
        build_config(["fig2", "--config", str(cfg_file)])
    out = tmp_path / "out"
    code = main(["fig2", "--config", str(cfg_file), "--out", str(out)])
    assert code == EXIT_UNKNOWN_ID
    assert capsys.readouterr().err.startswith("error: need")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_file_is_rejected(tmp_path, capsys, kind):
    cfg_path = tmp_path / "run.cfg"
    if kind == "directory":
        cfg_path.mkdir()
    out = tmp_path / "out"
    code = main(["hadamard", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_UNKNOWN_ID
    assert capsys.readouterr().err.startswith("error: cannot read config file")
    assert not out.exists()


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n=30\nbogus=1\n")
    out = tmp_path / "out"
    code = main(["hadamard", "--config", str(cfg_file), "--out", str(out)])
    assert code == EXIT_UNKNOWN_ID
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()


def test_nonfinite_reconstruction_exits_numerical(tmp_path, capsys):
    code = main(["fig2", "--eps", "1e308", "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("error: numerical failure")
    assert not (tmp_path / "manifest.txt").exists()


def test_failed_run_leaves_no_manifest_of_an_earlier_run(tmp_path):
    # a run removes an earlier run's manifest before it starts, so a
    # failing run leaves none
    assert main(["fig2", "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "manifest.txt").exists()
    assert main(["fig2", "--eps", "1e306", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert not (tmp_path / "manifest.txt").exists()


def _artifacts(out):
    """Bytes of every file in out but the manifest, by name; a staging
    directory left behind fails the check."""
    assert not list(out.glob(".bgrecon-*"))
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.txt"}


def test_failed_run_leaves_the_earlier_artifacts_as_they_were(tmp_path):
    assert main(["fig2", "--out", str(tmp_path)]) == EXIT_OK
    before = _artifacts(tmp_path)
    assert main(["fig2", "--eps", "1e306", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert _artifacts(tmp_path) == before


@pytest.mark.parametrize(
    "error, code", [(OSError, EXIT_UNWRITABLE), (FloatingPointError, EXIT_NUMERICAL)]
)
def test_run_failing_after_its_first_artifacts_leaves_the_directory_as_it_was(
    tmp_path, monkeypatch, error, code
):
    # the failing run has written its first CSV and SVG when it fails
    assert main(["fig2", "--out", str(tmp_path)]) == EXIT_OK
    before = _artifacts(tmp_path)

    def emit_then_fail(series, path):
        emit_plot(series, path)
        raise error("after the first plot")

    emit_plot = cli.emit_plot
    monkeypatch.setattr(cli, "emit_plot", emit_then_fail)
    assert main(["fig2", "--eps", "0.02", "--out", str(tmp_path)]) == code
    assert _artifacts(tmp_path) == before


def test_manifest_that_cannot_be_removed_exits_unwritable(tmp_path, capsys):
    (tmp_path / "manifest.txt").mkdir()
    assert main(["hadamard", "--out", str(tmp_path)]) == EXIT_UNWRITABLE
    assert capsys.readouterr().err.startswith("error: output directory not writable")
    assert not (tmp_path / "hadamard.csv").exists()


def test_numerical_failure_prints_only_the_error_line(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fig2", "--eps", "1e308", "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: numerical failure")


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--n", "7"],
        ["fig4", "--nu", "5"],
        ["fig3", "--eps", "0.1"],
        ["table1", "--seed", "3"],
        ["hadamard", "--n", "30", "--seed", "2"],
    ],
)
def test_unread_parameter_flag_is_rejected(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_UNKNOWN_ID
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_unread_parameter_in_config_file_is_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nu=0.5\n")
    out = tmp_path / "out"
    assert main(["fig5", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert "nu" in capsys.readouterr().err
    assert not out.exists()


def test_fig2_honours_and_records_its_parameters(tmp_path):
    runs = {
        "default": [],
        "eps": ["--eps", "0.01"],
        "nu": ["--nu", "0.01"],
        "exact": ["--eps", "0"],
    }
    manifests = {}
    for name, flags in runs.items():
        out = tmp_path / name
        assert main(["fig2", *flags, "--out", str(out)]) == EXIT_OK
        manifests[name] = (out / "manifest.txt").read_text().splitlines()
    # the default run perturbs its data by 1 % and says so
    assert "eps=0.01" in manifests["default"]
    assert manifests["eps"] == manifests["default"]
    assert "nu=0.01" in manifests["nu"]
    assert "eps=0" in manifests["exact"]
    # lines 5.. are the artifact checksums
    assert manifests["nu"][5:] != manifests["default"][5:]
    assert manifests["exact"][5:] != manifests["default"][5:]


def test_manifest_records_only_parameters_the_run_reads(tmp_path):
    # fig4 runs nu in {0.01, 0.1, 1}; a nu= line would misstate it
    assert main(["fig4", "--out", str(tmp_path)]) == EXIT_OK
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert manifest[0] == "experiment=fig4"
    assert all("," in line for line in manifest[1:])
    assert len(manifest) == 5


def test_table1_writes_the_tsvd_spectrum(tmp_path):
    assert main(["table1", "--out", str(tmp_path)]) == EXIT_OK
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert [line.split(",")[0] for line in manifest[1:]] == [
        "table1.csv",
        "table1_tsvd.csv",
    ]
    lines = (tmp_path / "table1_tsvd.csv").read_text().splitlines()
    assert lines[0] == "index,sigma,relative,kept"
    rows = [line.split(",") for line in lines[1:]]
    # the 33 x 128 grid has 65 nodes on each outer half
    assert [int(r[0]) for r in rows] == list(range(65))
    sigma = [float(r[1]) for r in rows]
    assert sigma == sorted(sigma, reverse=True)
    assert float(rows[0][2]) == 1.0
    kept = [int(r[3]) for r in rows]
    assert kept == [int(float(r[2]) > 1e-8) for r in rows]
    # the two contact columns are zero, so at least two values are cut
    assert 0 < sum(kept) <= 63


@pytest.mark.parametrize(
    "experiment, systems", [("fig1", 2), ("fig2", 1), ("fig3", 41), ("fig4", 3), ("fig5", 1)]
)
def test_moment_figures_build_one_weight_system_per_n_and_nu(
    tmp_path, monkeypatch, experiment, systems
):
    calls = []
    assemble = solver.assemble_adjoint_system

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(solver, "assemble_adjoint_system", counting)
    assert main([experiment, "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == systems


def test_main_unknown_experiment_exit_code():
    assert main(["not_an_experiment"]) == EXIT_UNKNOWN_ID


def test_unwritable_output_dir(tmp_path):
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    try:
        code = run_experiment(ExperimentConfig("hadamard", out=str(locked)))
    finally:
        locked.chmod(stat.S_IRWXU)
    if os.geteuid() == 0:
        pytest.skip("permission bits are not enforced for root")
    assert code == EXIT_UNWRITABLE


def test_output_dir_under_a_regular_file_exits_unwritable(tmp_path, capsys):
    # needs no permission bits, so it runs as root too
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["hadamard", "--out", str(blocker / "out")]) == EXIT_UNWRITABLE
    assert "Not a directory" in capsys.readouterr().err


def test_artifact_path_that_is_a_directory_exits_unwritable(tmp_path, capsys):
    (tmp_path / "hadamard.csv").mkdir()
    assert main(["hadamard", "--out", str(tmp_path)]) == EXIT_UNWRITABLE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write artifact") and "Is a directory" in err
    assert not (tmp_path / "manifest.txt").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n=30\nnu=0.5\nseed=7\n# comment\nout=ignored\n")
    cfg = build_config(
        ["fig2", "--config", str(cfg_file), "--nu", "0.25", "--out", str(tmp_path)]
    )
    assert cfg.n == 30
    assert cfg.nu == 0.25
    assert cfg.seed == 7
    assert cfg.out == str(tmp_path)


@pytest.mark.parametrize(
    "key,value", [("n", "30"), ("nu", "0.25"), ("eps", "0.02"), ("seed", "7"), ("out", "res")]
)
def test_flag_and_config_line_give_the_same_config(tmp_path, key, value):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key}={value}\n")
    by_flag = build_config(["fig2", f"--{key}", value])
    assert build_config(["fig2", "--config", str(cfg_file)]) == by_flag
    assert by_flag != ExperimentConfig("fig2")


def test_help_lists_every_experiment(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert set(_RUNNERS) <= set(capsys.readouterr().out.split())


def test_hadamard_run_writes_artifacts_and_manifest(tmp_path):
    code = main(["hadamard", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "hadamard.csv").exists()
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert manifest[0] == "experiment=hadamard"
    checksum_lines = [l for l in manifest if "," in l]
    assert len(checksum_lines) == 1
    name, digest = checksum_lines[0].split(",")
    assert name == "hadamard.csv"
    assert len(digest) == 64


def test_manifest_checksums_match_files(tmp_path):
    import hashlib

    main(["hadamard", "--out", str(tmp_path)])
    for line in (tmp_path / "manifest.txt").read_text().splitlines():
        if "," not in line:
            continue
        name, digest = line.split(",")
        actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert actual == digest


def test_repeat_runs_are_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["hadamard", "--out", str(out1)]) == EXIT_OK
    assert main(["hadamard", "--out", str(out2)]) == EXIT_OK
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


SRC = str(Path(__file__).resolve().parents[1] / "src")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def checkout_env(threads=None):
    """The environment for a new process that imports bgrecon from the
    checkout, with OPENBLAS_NUM_THREADS set to `threads`, or with no BLAS
    thread variable set for None."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(argv, threads):
    command = [sys.executable, "-m", "bgrecon.cli", *argv]
    subprocess.run(command, env=checkout_env(threads), check=True, capture_output=True)


def assert_same_files(dirs):
    names = sorted(os.listdir(dirs[0]))
    for other in dirs[1:]:
        assert names == sorted(os.listdir(other))
        for name in names:
            assert (dirs[0] / name).read_bytes() == (other / name).read_bytes()


def run_library(argv, threads):
    """Run the CLI's main in a new process whose numpy loaded OpenBLAS on
    `threads` threads before bgrecon.cli could pin one; return the
    process's OS thread count, or None where /proc/self/task is missing."""
    code = (
        "import os, sys; import numpy; from bgrecon.cli import main; "
        "assert main(sys.argv[1:]) == 0; task = '/proc/self/task'; "
        "print(len(os.listdir(task)) if os.path.isdir(task) else None)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=checkout_env(threads), capture_output=True, text=True, check=True,
    )
    count = result.stdout.split()[-1]
    return None if count == "None" else int(count)


@pytest.mark.parametrize("experiment", ["table1", "fig6"])
def test_annulus_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, experiment):
    # the annulus solves and the sentinel SVD are dense BLAS and LAPACK
    # calls; their artifacts must be the same bytes on 1 and 2 threads
    outs, os_threads = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        os_threads.append(run_library([experiment, "--out", str(out)], threads))
        outs.append(out)
    # the 2-thread run really has OpenBLAS's second thread, where the
    # count can be read and the process may run on 2 CPUs (OpenBLAS sizes
    # its pool from the affinity mask)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if None not in os_threads and cpus >= 2:
        assert os_threads[1] > os_threads[0]
    assert_same_files(outs)


def test_cli_pins_blas_to_one_thread(tmp_path):
    # fig2's moment solves round differently on 2 BLAS threads; the CLI
    # runs on one whatever the environment asks for
    outs = []
    for threads in (None, "1", "2"):
        out = tmp_path / f"threads{threads}"
        run_cli(["fig2", "--n", "100", "--out", str(out)], threads)
        outs.append(out)
    assert_same_files(outs)


def test_table1_loads_no_scipy(tmp_path):
    # the library runs on numpy alone; scipy is a test dependency
    code = (
        "import sys; from bgrecon.cli import main; "
        f"assert main(['table1', '--out', {str(tmp_path)!r}]) == 0; "
        "print('scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=checkout_env(), capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_fig3_slopes_artifact(tmp_path):
    # restrict the sweep through the public helper to keep this cheap
    from bgrecon.cli import fig3_errors, loglog_slope

    rows = fig3_errors(range(10, 31, 4))
    ns = [r[0] for r in rows]
    slope = loglog_slope(ns, [r[1] for r in rows])
    assert slope < -1.0


PROFILE = "t,reconstructed,truth"
# fig6 runs on the 17 x 64 annulus grid: 33 nodes on an outer half
FIG6_N_HALF = 32
FIG6_ITERATES = (1, 2, 5, 10, 25, 50, 100)
# per experiment at default flags: each CSV artifact's header and line count
CSV_ARTIFACTS = {
    "fig1": {
        f"fig1_{name}_N{n}.csv": (PROFILE, 2 * n + 2)
        for name in ("x_a", "x_b", "x_c")
        for n in (25, 50)
    },
    "fig2": {f"fig2_{name}_N25.csv": (PROFILE, 52) for name in ("x_a", "x_b", "x_c")},
    "fig3": {
        "fig3_errors.csv": ("N,err_xa,err_xb,parity", 42),
        "fig3_slopes.csv": ("function,loglog_slope", 3),
    },
    "fig4": {f"fig4_nu{nu}.csv": (PROFILE, 52) for nu in ("0.01", "0.1", "1")},
    "fig5": {f"fig5_{name}.csv": (PROFILE, 52) for name in ("x_b", "x_c")},
    "fig6": {
        **{
            f"fig6_psi_k{k}.csv": ("index,arc_parameter,value", FIG6_N_HALF + 2)
            for k in FIG6_ITERATES
        },
        "fig6_residuals.csv": ("iteration,residual", 102),
    },
    "table1": {
        "table1.csv": ("phi,mu_phi,psi_f,corrected,relative_error", 3),
        "table1_tsvd.csv": ("index,sigma,relative,kept", 66),
    },
    "hadamard": {"hadamard.csv": ("k,data_norm,solution_sup,ratio", 7)},
}


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The output directory of an experiment run at default flags, made
    once per experiment for the module."""
    outs = {}

    def run(experiment):
        if experiment not in outs:
            out = tmp_path_factory.mktemp(experiment)
            assert main([experiment, "--out", str(out)]) == EXIT_OK
            outs[experiment] = out
        return outs[experiment]

    return run


@pytest.mark.parametrize("experiment", sorted(CSV_ARTIFACTS))
def test_csv_artifacts_have_their_header_and_row_count(default_run, experiment):
    out = default_run(experiment)
    expected = CSV_ARTIFACTS[experiment]
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(expected)
    for name, (header, n_lines) in expected.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header, name
        assert len(lines) == n_lines, name
        n_fields = header.count(",") + 1
        assert all(line.count(",") + 1 == n_fields for line in lines[1:]), name


def test_fig6_plot_draws_each_kept_iterate_over_the_arc(default_run):
    out = default_run("fig6")
    svg = (out / "fig6.svg").read_text()
    polylines = re.findall(r'<polyline [^>]*points="([^"]*)"', svg)
    assert len(polylines) == len(FIG6_ITERATES)
    assert len(set(polylines)) == len(polylines)
    assert all(len(p.split()) == FIG6_N_HALF + 1 for p in polylines)
    values = [
        float(line.split(",")[2])
        for k in FIG6_ITERATES
        for line in (out / f"fig6_psi_k{k}.csv").read_text().splitlines()[1:]
    ]
    y_labels = re.findall(r'<text x="55" [^>]*>([^<]*)</text>', svg)
    assert y_labels == [f"{min(values):.4g}", f"{max(values):.4g}"]


@pytest.mark.parametrize("experiment", ["fig3", "fig6"])
def test_plotting_runs_repeat_byte_for_byte(tmp_path, experiment):
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main([experiment, "--out", str(out)]) == EXIT_OK
        outs.append(out)
    assert any(name.endswith(".svg") for name in os.listdir(outs[0]))
    assert_same_files(outs)
