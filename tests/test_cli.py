"""Command-line interface: config resolution, CSV IO, end-to-end runs."""

import numpy as np
import pytest

from pdsseries import cli
from pdsseries.cli import (
    ConfigError,
    load_csv,
    main,
    resolve_config,
    write_sample_csv,
)
from pdsseries.data import Dataset
from pdsseries.montecarlo import DgpConfig, generate_sample
from pdsseries.selection import ESTIMATORS, SelectionError

SAMPLE = """y,x,z1,z2,z3,w
1.0,0.5,0.1,0.2,0.3,9
2.0,NA,0.4,0.5,0.6,9
3.5,-1.0,0.7,0.8,0.9,9
,1.0,1.0,1.1,1.2,9
4.0,2.0,1.3,1.4,1.5,9
"""


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text(SAMPLE)
    return str(path)


# ---------------------------------------------------------------- load_csv

def test_load_csv_drops_missing_and_matches_wildcards(sample_csv):
    data, z_cols, n_dropped = load_csv(sample_csv, "y", "x", ["z*"])
    assert z_cols == ["z1", "z2", "z3"]
    assert n_dropped == 2
    np.testing.assert_allclose(data.y, [1.0, 3.5, 4.0])
    np.testing.assert_allclose(data.x, [0.5, -1.0, 2.0])
    np.testing.assert_allclose(data.Z[:, 2], [0.3, 0.9, 1.5])


def test_load_csv_exact_names_keep_request_order_and_dedupe(sample_csv):
    data, z_cols, _ = load_csv(sample_csv, "y", "x", ["z2", "z1", "z*"])
    # exact names first, wildcard hits appended in header order, no repeats
    assert z_cols == ["z2", "z1", "z3"]
    np.testing.assert_allclose(data.Z[0], [0.2, 0.1, 0.3])


def test_load_csv_missing_columns_error(sample_csv):
    with pytest.raises(ValueError, match="missing columns: v, q\\*"):
        load_csv(sample_csv, "y", "v", ["q*"])


def test_load_csv_non_numeric_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,x,z1\n1.0,2.0,3.0\n1.5,oops,0.5\n")
    with pytest.raises(ValueError, match="'oops' in row 3, column 'x'"):
        load_csv(str(path), "y", "x", ["z1"])


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e999"])
def test_load_csv_non_finite_names_row_and_column(tmp_path, cell):
    path = tmp_path / "inf.csv"
    path.write_text(f"y,x,z1\n1.0,2.0,3.0\n1.5,0.5,{cell}\n")
    with pytest.raises(ValueError, match=f"non-finite value '{cell}' in row 3, column 'z1'"):
        load_csv(str(path), "y", "x", ["z1"])


def test_main_exit_code_1_on_non_finite_cell(capsys, tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("y,x,z1\n1.0,2.0,3.0\n1.5,0.5,inf\n2.0,1.0,0.1\n")
    rc = main(["fit", "--input", str(path), "--y", "y", "--x", "x", "--z", "z1",
               "--k", "1", "--out", str(tmp_path / "o.txt")])
    assert rc == 1
    assert "non-finite value 'inf'" in capsys.readouterr().err


def test_load_csv_empty_and_all_missing(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="file is empty"):
        load_csv(str(empty), "y", "x", ["z1"])
    hollow = tmp_path / "hollow.csv"
    hollow.write_text("y,x,z1\nNA,1,2\n3,none,4\n")
    with pytest.raises(ValueError, match="no usable rows"):
        load_csv(str(hollow), "y", "x", ["z1"])


def test_write_sample_round_trip_exact(tmp_path):
    data = generate_sample(DgpConfig("low_dim", 25), np.random.default_rng(8))
    path = tmp_path / "dump.csv"
    write_sample_csv(data, str(path))
    back, z_cols, n_dropped = load_csv(str(path), "y", "x", ["z*"])
    assert z_cols == ["z1", "z2", "z3", "z4"] and n_dropped == 0
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.x, data.x)
    np.testing.assert_array_equal(back.Z, data.Z)


# ---------------------------------------------------------------- resolve

def test_resolve_simulate_happy_path():
    cfg = resolve_config([
        "simulate", "--design", "high", "--n", "300", "--sigma-v", "2",
        "--sigma-eps", "1.5", "--reps", "7", "--seed", "42",
        "--estimators", "post_double,oracle", "--functionals", "avg_deriv",
        "--out", "res.csv",
    ])
    assert cfg.command == "simulate"
    assert cfg.design == "high_dim" and cfg.n == 300
    assert cfg.sigma_v == 2.0 and cfg.sigma_eps == 1.5
    assert cfg.reps == 7 and cfg.seed == 42
    assert cfg.estimators == ["post_double", "oracle"]
    assert cfg.functionals == ["avg_deriv"]
    assert cfg.out == "res.csv"
    echo = cfg.echo()
    assert "[resolved config]" in echo and "design = high_dim" in echo


def test_resolve_simulate_estimators_all_and_alias():
    cfg = resolve_config(["simulate", "--design", "low_dim", "--n", "100",
                          "--estimators", "all", "--out", "o.csv"])
    assert cfg.design == "low_dim"
    assert cfg.estimators == list(ESTIMATORS)


def test_resolve_reports_every_problem_at_once():
    with pytest.raises(ConfigError) as err:
        resolve_config(["simulate", "--n", "one", "--reps", "0",
                        "--estimators", "post_double,psii"])
    msgs = err.value.problems
    assert len(msgs) == 5
    joined = "\n".join(msgs)
    assert "--design is required" in joined
    assert "--n must be an integer" in joined
    assert "--reps must be >= 1" in joined
    assert "unknown names ['psii']" in joined
    assert "--out is required" in joined


def test_resolve_requires_subcommand():
    with pytest.raises(ConfigError, match="subcommand"):
        resolve_config([])


def test_resolve_fit_options_and_validation():
    cfg = resolve_config([
        "fit", "--input", "in.csv", "--y", "y", "--x", "x", "--z", "z*,w",
        "--k", "bic", "--extended-fs", "--q-dict", "tensor",
        "--functional", "point:0.5", "--c", "2.0", "--gamma", "0.05",
        "--n-loadings", "3", "--out", "fit.txt",
    ])
    assert cfg.z == ["z*", "w"] and cfg.k == "bic"
    assert cfg.extended_fs is True and cfg.q_dict == "tensor"
    assert cfg.functional == "point:0.5"
    assert cfg.c == 2.0 and cfg.gamma == 0.05 and cfg.n_loadings == 3

    with pytest.raises(ConfigError) as err:
        resolve_config(["fit", "--input", "a.csv", "--y", "y", "--x", "x",
                        "--z", "z1", "--out", "o", "--k", "huge",
                        "--q-dict", "spline", "--functional", "point:abc",
                        "--gamma", "2.0", "--c", "-1"])
    joined = "\n".join(err.value.problems)
    assert "--k must be an integer" in joined
    assert "--q-dict must be raw or tensor" in joined
    assert "--functional point must be a number" in joined
    assert "--gamma must lie in (0, 1)" in joined
    assert "--c must be positive" in joined


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_numbers_are_configuration_errors(capsys, tmp_path, value):
    fit = ["fit", "--input", "a.csv", "--y", "y", "--x", "x", "--z", "z1",
           "--out", "o"]
    sim = ["simulate", "--design", "low", "--n", "60", "--out", "o.csv"]
    # "--c=-inf": argparse reads a separate "-inf" as an option
    for argv, name in ((fit + [f"--c={value}"], "--c"),
                       (fit + [f"--gamma={value}"], "--gamma"),
                       (fit + [f"--functional=point:{value}"], "--functional point"),
                       (sim + [f"--sigma-v={value}"], "--sigma-v"),
                       (sim + [f"--sigma-eps={value}"], "--sigma-eps")):
        assert main(argv) == 2
        assert f"{name} must be a finite number, got {value!r}" in capsys.readouterr().err


def test_config_file_merge_with_flag_priority(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[simulate]\ndesign = low\nn = 150\nreps = 3\nout = file_out.csv\n")
    cfg = resolve_config(["simulate", "--config", str(ini),
                          "--out", "flag_out.csv"])
    assert cfg.design == "low_dim" and cfg.n == 150 and cfg.reps == 3
    assert cfg.out == "flag_out.csv"  # explicit flag wins
    with pytest.raises(ConfigError, match="not found"):
        resolve_config(["simulate", "--config", str(tmp_path / "nope.ini")])


def test_config_file_unknown_section_key_and_bad_boolean_are_problems(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[simulate]\ndesign = low\nn = 150\nout = o.csv\nsigmav = 3\n")
    with pytest.raises(ConfigError) as err:
        resolve_config(["simulate", "--config", str(ini)])
    assert err.value.problems == [f"config file {str(ini)!r}: unknown key 'sigmav' in [simulate]"]
    ini.write_text("[simulat]\nreps = 3\n[fit]\nk = bic\n")
    with pytest.raises(ConfigError) as err:
        resolve_config(["simulate", "--config", str(ini), "--design", "low",
                        "--n", "50", "--out", "o.csv"])
    assert err.value.problems == [f"config file {str(ini)!r}: unknown section [simulat]"]

    ini.write_text("[fit]\ninput = a.csv\ny = y\nx = x\nz = z1\nout = o\n"
                   "extended-fs = maybe\n")
    with pytest.raises(ConfigError, match="--extended-fs must be true or false, got 'maybe'"):
        resolve_config(["fit", "--config", str(ini)])
    ini.write_text("[fit]\ninput = a.csv\ny = y\nx = x\nz = z1\nout = o\n"
                   "extended-fs = no\n")
    assert resolve_config(["fit", "--config", str(ini)]).extended_fs is False
    ini.write_text("[fit]\ninput = a.csv\ny = y\nx = x\nz = z1\nout = o\n"
                   "extended-fs = On\n")
    assert resolve_config(["fit", "--config", str(ini)]).extended_fs is True


def test_config_file_values_are_read_literally(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[simulate]\ndesign = low\nn = 150\nout = res%.txt\n")
    assert resolve_config(["simulate", "--config", str(ini)]).out == "res%.txt"


@pytest.mark.parametrize("text, reason", [
    ("design = low\nn = 150\n", "no section headers"),
    ("[simulate]\ndesign = low\nn = 150\nn = 200\n", "option 'n' in section 'simulate' already exists"),
])
def test_config_file_that_does_not_parse_is_a_configuration_error(capsys, tmp_path,
                                                                   text, reason):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    argv = ["simulate", "--config", str(ini), "--out", "o.csv"]
    with pytest.raises(ConfigError, match="does not parse") as err:
        resolve_config(argv)
    assert reason in err.value.problems[0]
    assert main(argv) == 2
    assert "configuration errors:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--estimators", "--functionals"])
def test_main_rejects_an_empty_name_list(capsys, tmp_path, flag):
    rc = main(["simulate", "--design", "low", "--n", "60", "--reps", "1",
               flag, ",", "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert f"{flag} must list at least one" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


# ---------------------------------------------------------------- main

def test_main_exit_code_2_on_config_error(capsys):
    assert main(["simulate"]) == 2
    err = capsys.readouterr().err
    assert "configuration errors:" in err
    assert "--design is required" in err


def test_main_exit_code_1_on_runtime_error(capsys, tmp_path):
    rc = main(["fit", "--input", str(tmp_path / "missing.csv"), "--y", "y",
               "--x", "x", "--z", "z*", "--out", str(tmp_path / "o.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_main_reports_fit_errors_and_propagates_programming_errors(
        monkeypatch, capsys, tmp_path):
    dump = tmp_path / "sample.csv"
    write_sample_csv(
        generate_sample(DgpConfig("low_dim", 60), np.random.default_rng(3)),
        str(dump))
    argv = ["fit", "--input", str(dump), "--y", "y", "--x", "x", "--z", "z*",
            "--k", "2", "--out", str(tmp_path / "fit.txt")]

    def failing(exc):
        def stage(*args, **kwargs):
            raise exc
        return stage

    monkeypatch.setattr(cli, "post_double_select", failing(SelectionError("no fit")))
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: no fit\n"
    monkeypatch.setattr(cli, "post_double_select", failing(TypeError("bug in fit")))
    with pytest.raises(TypeError, match="bug in fit"):
        main(argv)


def test_main_simulate_end_to_end(capsys, tmp_path):
    out = tmp_path / "mc.csv"
    dump = tmp_path / "sample.csv"
    argv = ["simulate", "--design", "low", "--n", "60", "--reps", "2",
            "--seed", "11", "--estimators", "post_double,oracle",
            "--functionals", "avg_deriv", "--dump-sample", str(dump),
            "--out", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "[resolved config]" in stdout and "Post-Double" in stdout
    csv1 = out.read_text()
    head = csv1.splitlines()[0]
    assert head == ("design,n,sigma_v,sigma_eps,functional,estimator,"
                    "med_bias,mad,rp5,n_reps,failures")
    assert (tmp_path / "mc.csv.txt").read_text() == stdout

    # the dumped sample is replication zero's draw
    want = generate_sample(
        DgpConfig("low_dim", 60),
        np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(0,))))
    got, _, _ = load_csv(str(dump), "y", "x", ["z*"])
    np.testing.assert_array_equal(got.y, want.y)
    np.testing.assert_array_equal(got.Z, want.Z)

    # byte-identical on a rerun with the same seed
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_text() == csv1


def test_main_fit_end_to_end(capsys, tmp_path):
    dump = tmp_path / "sample.csv"
    write_sample_csv(
        generate_sample(DgpConfig("low_dim", 80), np.random.default_rng(2)),
        str(dump))
    out = tmp_path / "fit.txt"
    rc = main(["fit", "--input", str(dump), "--y", "y", "--x", "x",
               "--z", "z*", "--k", "3", "--q-dict", "tensor",
               "--functional", "avg_deriv", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout
    assert "rows used: 80 (dropped 0" in stdout
    assert "dictionary degree K: 3" in stdout
    assert "theta_hat = " in stdout and "ci95      = [" in stdout


def test_main_fit_bic_mode_reports_grid(capsys, tmp_path):
    dump = tmp_path / "sample.csv"
    write_sample_csv(
        generate_sample(DgpConfig("low_dim", 70), np.random.default_rng(4)),
        str(dump))
    rc = main(["fit", "--input", str(dump), "--y", "y", "--x", "x",
               "--z", "z*", "--k", "bic", "--q-dict", "raw",
               "--functional", "quantile_contrast",
               "--out", str(tmp_path / "fit.txt")])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "degree grid: 2..8" in stdout
    assert "BIC minimizer: " in stdout and "chosen K: " in stdout
    assert "selected conditioning terms" in stdout


def test_dataset_validation():
    with pytest.raises(ValueError, match="sample dimension"):
        Dataset(y=np.ones(3), x=np.ones(4), Z=np.ones((3, 2)))
    with pytest.raises(ValueError, match="h_true"):
        Dataset(y=np.ones(3), x=np.ones(3), Z=np.ones((3, 2)), h_true=np.ones(5))
    d = Dataset(y=np.ones(3), x=np.ones(3), Z=np.ones(3))
    assert d.Z.shape == (3, 1)
