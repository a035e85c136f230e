import os
import stat
import warnings

import pytest

from bgrecon.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNKNOWN_ID,
    EXIT_UNWRITABLE,
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


def test_fig3_slopes_artifact(tmp_path):
    # restrict the sweep through the public helper to keep this cheap
    from bgrecon.cli import fig3_errors, loglog_slope

    rows = fig3_errors(range(10, 31, 4))
    ns = [r[0] for r in rows]
    slope = loglog_slope(ns, [r[1] for r in rows])
    assert slope < -1.0
