"""Command-line interface: config resolution, CSV IO, end-to-end runs."""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsseries import cli, selection
from pdsseries.cli import (
    ConfigError,
    RunConfig,
    load_csv,
    main,
    resolve_config,
    write_sample_csv,
)
from pdsseries.data import Dataset
from pdsseries.dictionary import DictionarySpec
from pdsseries.inference import FUNCTIONALS, functional_by_name
from pdsseries.montecarlo import DgpConfig, default_specs, generate_sample, run_monte_carlo
from pdsseries.selection import ESTIMATORS, SelectionError, comparison_estimators

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


def test_load_csv_names_the_file_line_of_a_bad_cell(tmp_path):
    # blank lines count: the bad cell sits on line 5 of the file
    path = tmp_path / "blank.csv"
    path.write_text("y,x,z1\n\n\n1,2,3\n4,5,abc\n")
    with pytest.raises(ValueError, match="non-numeric value 'abc' in row 5, column 'z1'"):
        load_csv(str(path), "y", "x", ["z1"])
    path.write_text("y,x,z1\r\n \r\n1,2,3\r\n\"4\",5,inf\r\n")
    with pytest.raises(ValueError, match="non-finite value 'inf' in row 4, column 'z1'"):
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


@pytest.mark.parametrize("x_col, z, col, roles", [
    ("y", "z1", "y", "y and x"),
    ("x", "*", "y", "y and z"),
    ("x", "z1,x", "x", "x and z"),
])
def test_fit_refuses_a_column_in_two_roles(capsys, sample_csv, tmp_path,
                                           x_col, z, col, roles):
    rc = main(["fit", "--input", sample_csv, "--y", "y", "--x", x_col, "--z", z,
               "--k", "1", "--out", str(tmp_path / "o.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"column {col!r} is given as both {roles}" in err
    assert not (tmp_path / "o.txt").exists()


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


def test_write_sample_pins_the_bytes_of_each_float(tmp_path):
    # each cell is the shortest text that reads back as the same double
    data = Dataset(y=np.array([-0.0, 0.1]), x=np.array([5e-324, 1e308]),
                   Z=np.array([[0.1, -0.0], [1e308, 5e-324]]))
    path = tmp_path / "dump.csv"
    write_sample_csv(data, str(path))
    assert path.read_bytes() == (b"y,x,z1,z2\n-0.0,5e-324,0.1,-0.0\n"
                                 b"0.1,1e+308,1e+308,5e-324\n")


# (text, whether NumPy's C reader takes it); every other file is read cell by cell
READER_CASES = {
    "crlf": ("y,x,z1\r\n1.5,2,3\r\n-4,5e-3,6\r\n", True),
    "cr_only": ("y,x,z1\r1,2,3\r4,5,6\r", True),
    "quoted": ('y,x,z1\n"1.5","2",3\n4,"-5",6\n', True),
    "padded": ("y , x,z1\n 1.5 ,\t2, 3 \n4,5 ,6\n", True),
    "trailing_delimiter": ("y,x,z1,\n1,2,3,\n4,5,6,\n", True),
    "extra_columns": ("y,w,x,z1\n1,a,2,3\n4,b,5,6,7\n", True),
    "reordered_columns": ("z1,x,y\n3,2,1\n6,5,4\n", True),
    "blank_lines": ("y,x,z1\n\n1,2,3\n\n4,5,6\n\n", True),
    "short_row": ("y,x,z1\n1,2,3\n4,5\n", False),
    "na_and_empty_cells": ("y,x,z1\n1,na,3\n4,,6\n7,8,9\n", False),
    "nan": ("y,x,z1\n1,nan,3\n4,5,6\n", False),
    "inf": ("y,x,z1\n1,2,3\n1,-inf,3\n", False),
    "whitespace_only_lines": ("y,x,z1\n1,2,3\n   \n\t\n4,5,6\n", False),
    "delimiters_only_line": ("y,x,z1\n1,2,3\n,,\n4,5,6\n", False),
    "header_only": ("y,x,z1\n", False),
    "underscore_digits": ("y,x,z1\n1_000,2,3\n4,5,6\n", False),
    "non_numeric": ("y,x,z1\n1,2,3\n4,5,abc\n", False),
    # the byte-order mark that Excel's "CSV UTF-8" writes
    "bom": ("\ufeffy,x,z1\n1.5,2,3\n4,5,6\n", True),
    "bom_na": ("\ufeffy,x,z1\n1,na,3\n4,5,6\n7,8,9\n", False),
}


def read_both(path, z=("z*",), y="y", x="x"):
    """``load_csv``'s reading and the cell-by-cell loop's alone: each the
    (data, z names, n_dropped) triple or the error text."""
    def attempt():
        try:
            return load_csv(str(path), y, x, list(z))
        except ValueError as exc:
            return str(exc)

    got = attempt()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_read_clean", lambda fh, pos: None)
        want = attempt()
    return got, want


def assert_same_reading(got, want):
    if isinstance(want, str):
        assert got == want
        return
    (got_data, *got_rest), (want_data, *want_rest) = got, want
    assert got_rest == want_rest
    for name in ("y", "x", "Z"):
        a, b = getattr(got_data, name), getattr(want_data, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_load_csv_readers_agree(tmp_path, case):
    path = tmp_path / "in.csv"
    path.write_bytes(READER_CASES[case][0].encode())
    got, want = read_both(path)
    assert_same_reading(got, want)


@pytest.mark.parametrize("token", [
    "1.", "+.5", "-0", "1.e5", "00001", "4.9e-324", "2.4703282292062328e-324", "1e-400",
    "\u20051", "infinity", "nan(123)", "0x1p3", "1_0", "\u0663", "\uff11.\uff15",
    "1.5\u200b", "1.0d0",
])
def test_load_csv_readers_agree_on_odd_numbers(tmp_path, token):
    # float() accepts some of these (underscores, non-ASCII digits) and NumPy
    # does not; the file must then be read cell by cell
    path = tmp_path / "in.csv"
    path.write_text(f"y,x,z1\n{token},2,3\n4,5,6\n", encoding="utf-8")
    got, want = read_both(path)
    assert_same_reading(got, want)


def test_a_clean_file_takes_the_c_reader(tmp_path, monkeypatch):
    def no_loop(*args):
        raise AssertionError("read cell by cell")

    monkeypatch.setattr(cli, "_read_cells", no_loop)
    for case, (text, clean) in READER_CASES.items():
        path = tmp_path / f"{case}.csv"
        path.write_bytes(text.encode())
        if clean:
            data, z_cols, n_dropped = load_csv(str(path), "y", "x", ["z*"])
            assert z_cols == ["z1"] and n_dropped == 0 and data.n == 2
        else:
            with pytest.raises(AssertionError, match="cell by cell"):
                load_csv(str(path), "y", "x", ["z*"])


@pytest.mark.parametrize("case", ["bom", "bom_na"])
def test_a_byte_order_mark_reads_as_the_file_without_it(tmp_path, case):
    text = READER_CASES[case][0]
    with_mark, without = tmp_path / "bom.csv", tmp_path / "plain.csv"
    with_mark.write_bytes(text.encode())
    without.write_bytes(text.removeprefix("\ufeff").encode())
    assert with_mark.read_bytes().startswith(b"\xef\xbb\xbf")
    got, plain = load_csv(str(with_mark), "y", "x", ["z*"]), load_csv(str(without), "y", "x", ["z*"])
    assert_same_reading(got, plain)
    assert got[0].n == 2


@pytest.mark.parametrize("header, z, col", [
    ("y,x,z1,z1", "z*", "z1"),
    ("y,x,y,z1", "z1", "y"),
])
def test_fit_refuses_a_used_name_the_header_repeats(capsys, tmp_path, header, z, col):
    path = tmp_path / "dup.csv"
    path.write_text(header + "\n1,2,3,4\n5,6,7,8\n4,3,2,1\n")
    got, want = read_both(path, [z])
    assert got == want == f"{path}: column {col!r} appears 2 times in the header"
    rc = main(["fit", "--input", str(path), "--y", "y", "--x", "x", "--z", z,
               "--k", "1", "--out", str(tmp_path / "o.txt")])
    assert rc == 1
    assert f"column {col!r} appears 2 times" in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), d=st.integers(1, 3), draw=st.data())
def test_write_sample_round_trip_through_both_readers(tmp_path_factory, n, d, draw):
    cells = np.array(draw.draw(st.lists(_FINITE, min_size=n * (d + 2),
                                        max_size=n * (d + 2)))).reshape(n, d + 2)
    data = Dataset(y=cells[:, 0], x=cells[:, 1], Z=cells[:, 2:])
    path = tmp_path_factory.mktemp("round_trip") / "s.csv"
    write_sample_csv(data, str(path))
    got, want = read_both(path)
    assert_same_reading(got, want)
    back, z_cols, n_dropped = got
    assert z_cols == [f"z{j + 1}" for j in range(d)] and n_dropped == 0
    for name in ("y", "x", "Z"):
        assert getattr(back, name).tobytes() == getattr(data, name).tobytes(), name


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
    assert "--estimators unknown estimator names: ['psii']" in joined
    assert "--out is required" in joined


def test_resolve_refuses_an_empty_path_or_column_with_the_other_problems(tmp_path):
    with pytest.raises(ConfigError) as err:
        resolve_config(["fit", "--input", "", "--y", "", "--x", "", "--z", "z*",
                        "--k", "0", "--out", ""])
    assert err.value.problems == [
        "--input must not be empty", "--y must not be empty", "--x must not be empty",
        "--k must be >= 1, got 0", "--out must not be empty"]
    with pytest.raises(ConfigError) as err:
        resolve_config(["simulate", "--design", "low", "--n", "1", "--dump-sample", "",
                        "--out", ""])
    assert err.value.problems == [
        "--n must be >= 2, got 1", "--dump-sample must not be empty",
        "--out must not be empty"]
    # an empty value in a config file is the same problem
    ini = tmp_path / "empty_out.ini"
    ini.write_text("[simulate]\ndesign = low\nn = 60\nout =\n")
    with pytest.raises(ConfigError) as err:
        resolve_config(["simulate", "--config", str(ini)])
    assert err.value.problems == ["--out must not be empty"]


def test_an_empty_config_path_is_a_configuration_problem(sample_csv, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        resolve_config(["simulate", "--config", "", "--n", "1", "--out", "o.csv"])
    assert err.value.problems == [
        "--config must not be empty", "--design is required (low or high)",
        "--n must be >= 2, got 1"]
    out = tmp_path / "f.txt"
    assert main(["fit", "--config", "", "--input", sample_csv, "--y", "y", "--x", "x",
                 "--z", "z*", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "configuration errors:\n  - --config must not be empty\n"
    assert not out.exists()


def test_an_empty_out_path_exits_2_before_any_work(sample_csv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_monte_carlo", None)  # refused before any replication
    assert main(["simulate", "--design", "low", "--n", "60", "--reps", "2",
                 "--out", ""]) == 2
    assert main(["fit", "--input", sample_csv, "--y", "y", "--x", "x", "--z", "z*",
                 "--out", ""]) == 2
    assert capsys.readouterr().err.count("--out must not be empty") == 2


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


@pytest.mark.parametrize("name,refusal", [
    ("avg_deriv", None),
    ("quantile_contrast", None),
    ("point:0.5", None),
    ("point:-1.25e0", None),
    ("mystery", "unknown functional 'mystery'"),
    ("point", "unknown functional 'point'"),
    ("point:abc", "point must be a number, got 'abc'"),
    ("point:nan", "point must be a finite number, got 'nan'"),
    ("point:inf", "point must be a finite number, got 'inf'"),
    ("point:1e400", "point must be a finite number, got '1e400'"),
])
def test_the_command_line_and_the_library_read_a_functional_name_alike(name, refusal):
    argv = ["fit", "--input", "a.csv", "--y", "y", "--x", "x", "--z", "z1", "--out", "o",
            f"--functional={name}"]
    spec, x = DictionarySpec("hermite_univariate", degree=3), np.linspace(-1.0, 1.0, 9)
    if refusal is None:
        assert resolve_config(argv).functional == name
        assert functional_by_name(name, spec, x).shape == (3,)
        return
    with pytest.raises(ValueError, match=refusal) as lib:
        functional_by_name(name, spec, x)
    with pytest.raises(ConfigError) as err:
        resolve_config(argv)
    assert err.value.problems == [f"--functional {lib.value}"]


@pytest.mark.parametrize("flag,names,message", [
    ("--estimators", [], "must list at least one estimator"),
    ("--estimators", ["psii"],
     f"unknown estimator names: ['psii']; valid: {', '.join(ESTIMATORS)}"),
    ("--estimators", ["oracle", "series_1", "oracle"], "repeated estimator names: ['oracle']"),
    ("--functionals", [], "must list at least one functional"),
    ("--functionals", ["mystery"],
     f"unknown functional names: ['mystery']; valid: {', '.join(FUNCTIONALS)}"),
    ("--functionals", ["avg_deriv", "avg_deriv"], "repeated functional names: ['avg_deriv']"),
    # a bare string is one name too many to read letter by letter; the
    # command line splits its lists, so only the library can be given one
    ("--estimators", "oracle",
     "estimator names must be a list of names, not the string 'oracle'"),
    ("--functionals", "avg_deriv",
     "functional names must be a list of names, not the string 'avg_deriv'"),
])
def test_every_caller_refuses_a_bad_name_list_with_one_message(capsys, flag, names, message):
    cfg = DgpConfig("low_dim", 60)
    if not isinstance(names, str):
        argv = ["simulate", "--design", "low", "--n", "60", flag, ",".join(names) or ",",
                "--out", "o.csv"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"configuration errors:\n  - {flag} {message}\n"
    with pytest.raises(ValueError) as lib:
        run_monte_carlo(cfg, n_reps=1, **{flag[2:]: names})
    assert str(lib.value) == message
    if flag == "--estimators":
        data = generate_sample(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError) as lib:
            comparison_estimators(data, *default_specs(cfg), estimators=names)
        assert str(lib.value) == message


@pytest.mark.parametrize("flag,names,repeated", [
    ("--estimators", "oracle,oracle", "['oracle']"),
    ("--estimators", "post_double,oracle,post_double,oracle", "['oracle', 'post_double']"),
    ("--functionals", "avg_deriv,quantile_contrast,avg_deriv", "['avg_deriv']"),
])
def test_a_repeated_name_is_a_configuration_error(capsys, tmp_path, flag, names, repeated):
    argv = ["simulate", "--design", "low", "--n", "60", "--reps", "1", flag, names,
            "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    assert f"{flag} repeated {flag[2:-1]} names: {repeated}" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_negative_seed_is_a_configuration_error(capsys, tmp_path):
    argv = ["simulate", "--design", "low", "--n", "60", "--reps", "1", "--seed=-1",
            "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


# one valid non-default value per option, spelled as on the command line
NON_DEFAULT = {
    "simulate": {"design": "high", "n": "50", "sigma-v": "2", "sigma-eps": "0.5",
                 "reps": "3", "seed": "7", "estimators": "oracle,post_double",
                 "functionals": "quantile_contrast", "dump-sample": "s.csv",
                 "out": "o.csv"},
    "fit": {"input": "a.csv", "y": "yy", "x": "xx", "z": "z1,z2", "k": "4",
            "extended-fs": "yes", "q-dict": "tensor", "functional": "point:0.5",
            "c": "2.0", "gamma": "0.05", "n-loadings": "3", "out": "o.txt"},
}


def _declared(command):
    return {f.name for f in fields(RunConfig) if command in f.metadata.get("commands", ())}


def _config_keys(tmp_path, command, candidates):
    """The candidates that a [command] section accepts as keys."""
    ini = tmp_path / "probe.ini"
    accepted = set()
    for name in candidates:
        ini.write_text(f"[{command}]\n{name.replace('_', '-')} = 1\n")
        try:
            resolve_config([command, "--config", str(ini)])
        except ConfigError as err:
            if any("unknown key" in p for p in err.problems):
                continue
        accepted.add(name)
    return accepted


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_option_declarations_drive_parser_config_file_and_echo(tmp_path, command):
    dests = set(vars(cli._build_parser().parse_args([command]))) - {"command", "config"}
    echoed = {line.split(" = ")[0] for line in RunConfig(command).echo().splitlines()[2:]}
    candidates = {f.name for f in fields(RunConfig)} | {"config"}
    assert dests == _config_keys(tmp_path, command, candidates) == echoed == _declared(command)


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_every_option_reads_the_same_from_a_flag_and_a_config_key(tmp_path, command):
    values = NON_DEFAULT[command]
    assert {key.replace("-", "_") for key in values} == _declared(command)
    argv = [command]
    for key, val in values.items():
        argv += [f"--{key}"] if key == "extended-fs" else [f"--{key}", val]
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    by_flag = resolve_config(argv)
    assert by_flag == resolve_config([command, "--config", str(ini)])
    default = RunConfig(command)
    for name in _declared(command):
        assert getattr(by_flag, name) != getattr(default, name), name


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


def test_one_parser_serves_every_call_in_a_process(capsys, tmp_path):
    # the parser is built once per process: what one call reads from its
    # config file leaves nothing behind for the next, and --help still works
    dump = tmp_path / "sample.csv"
    write_sample_csv(
        generate_sample(DgpConfig("low_dim", 80), np.random.default_rng(2)),
        str(dump))
    ini = tmp_path / "fit.ini"
    ini.write_text(f"[fit]\ninput = {dump}\ny = y\nx = x\nz = z*\nk = 4\n"
                   f"extended-fs = yes\nout = {tmp_path / 'ini.txt'}\n")
    assert main(["fit", "--config", str(ini)]) == 0
    first = capsys.readouterr().out.splitlines()
    argv = ["fit", "--input", str(dump), "--y", "y", "--x", "x", "--z", "z*",
            "--out", str(tmp_path / "flags.txt")]
    assert main(argv) == 0
    second = capsys.readouterr().out.splitlines()
    assert {"k = 4", "extended_fs = True", "dictionary degree K: 4"} <= set(first)
    assert {"k = auto13", "extended_fs = False", "dictionary degree K: 4"} <= set(second)
    assert resolve_config(argv) == RunConfig(
        "fit", input=str(dump), y="y", x="x", z=["z*"], out=str(tmp_path / "flags.txt"))
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            main(["fit", "--help"])
        assert stop.value.code == 0
        assert "--extended-fs" in capsys.readouterr().out


def test_config_file_with_a_byte_order_mark(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_bytes("\ufeff[simulate]\ndesign = low\nn = 150\nout = o.csv\n".encode())
    cfg = resolve_config(["simulate", "--config", str(ini)])
    assert cfg.design == "low_dim" and cfg.n == 150 and cfg.out == "o.csv"


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


@pytest.mark.parametrize("command, section, flags", [
    # configparser would fold reps into [fit], reported as a key of [fit]
    ("fit", "[fit]\ninput = a.csv\ny = y\nx = x\nz = z1\nout = o\n", []),
    # with no [simulate] section, reps would be dropped without a word
    ("simulate", "", ["--design", "low", "--n", "50", "--out", "o.csv"]),
], ids=["fit", "simulate"])
def test_config_file_default_section_is_refused_by_name(capsys, tmp_path, command,
                                                        section, flags):
    ini = tmp_path / "run.ini"
    ini.write_text("[DEFAULT]\nreps = 3\n" + section)
    argv = [command, "--config", str(ini), *flags]
    with pytest.raises(ConfigError) as err:
        resolve_config(argv)
    assert err.value.problems == [
        f"config file {str(ini)!r}: [DEFAULT] is not a subcommand section"]
    assert main(argv) == 2
    assert "[DEFAULT] is not a subcommand section" in capsys.readouterr().err


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


def test_config_file_that_is_not_utf8_is_a_configuration_error(capsys, tmp_path):
    ini = tmp_path / "fit.ini"
    ini.write_bytes("[fit]\ninput = caf\u00e9.csv\n".encode("latin-1"))
    argv = ["fit", "--config", str(ini)]
    with pytest.raises(ConfigError, match="does not parse") as err:
        resolve_config(argv)
    assert repr(str(ini)) in err.value.problems[0]
    assert "can't decode byte 0xe9" in err.value.problems[0]
    assert main(argv) == 2
    assert repr(str(ini)) in capsys.readouterr().err


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

    monkeypatch.setattr(selection, "post_double_select", failing(SelectionError("no fit")))
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: K=2: no fit\n"
    monkeypatch.setattr(selection, "post_double_select", failing(TypeError("bug in fit")))
    with pytest.raises(TypeError, match="bug in fit"):
        main(argv)


def test_main_fit_names_the_degree_and_the_equation_that_failed(capsys, tmp_path):
    # x in {-1, 0, 1}: standardized He_3 = -He_1, so the extended target
    # p_1 + p_3 is constant and its first-stage equation fails
    rng = np.random.default_rng(5)
    n = 120
    x = rng.choice((-1.0, 0.0, 1.0), size=n)
    Z = rng.standard_normal((n, 30))
    dump = tmp_path / "sample.csv"
    write_sample_csv(Dataset(y=x + Z[:, 0] + rng.standard_normal(n), x=x, Z=Z), str(dump))
    argv = ["fit", "--input", str(dump), "--y", "y", "--x", "x", "--z", "z*",
            "--k", "3", "--extended-fs", "--out", str(tmp_path / "fit.txt")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: K=3: first-stage equation 4 failed: all initial loadings are zero\n")
    # over the grid 2..9 only K = 2 fits; the report names each failed degree
    argv[argv.index("--k") + 1] = "bic"
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("BIC minimizer: 2; chosen K: 2")
    assert lines[at + 1].startswith("BIC by degree: K=2: ")
    assert lines[at + 2] == "failed degrees: " + "; ".join(
        f"K={k}: first-stage equation {k + 1} failed: all initial loadings are zero"
        for k in range(3, 10))


@pytest.mark.parametrize("values, column", [((1.5,), 0), ((-1.0, 1.0), 1)])
@pytest.mark.parametrize("k", ["5", "bic"])
def test_main_fit_names_a_constant_g_column_once(capsys, tmp_path, values, column, k):
    # a constant x (He_1) or x = +-1 (He_2 = x^2 - 1): one line, at a fixed
    # degree and over the whole BIC grid alike
    rng = np.random.default_rng(5)
    n = 120
    x = rng.choice(values, size=n)
    Z = rng.standard_normal((n, 30))
    dump = tmp_path / "sample.csv"
    write_sample_csv(Dataset(y=x + Z[:, 0] + rng.standard_normal(n), x=x, Z=Z), str(dump))
    argv = ["fit", "--input", str(dump), "--y", "y", "--x", "x", "--z", "z*",
            "--k", k, "--out", str(tmp_path / "fit.txt")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: P column {column} has zero variance on this sample\n")


def test_main_fit_at_a_degree_that_overflows_fails_in_one_line(capsys, tmp_path):
    # replication zero's sample of simulate --design low --n 500 --seed 0
    dump = tmp_path / "sample.csv"
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(0,)))
    write_sample_csv(generate_sample(DgpConfig("low_dim", 500), rng), str(dump))
    argv = ["fit", "--input", str(dump), "--y", "y", "--x", "x", "--z", "z*",
            "--out", str(tmp_path / "fit.txt")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--k", "400"]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: Hermite term He_") and err.endswith(
        " is out of floating-point range on this sample\n")
    assert err.count("\n") == 1
    # a degree the raw Hermite units once made look singular
    assert main([*argv, "--k", "12"]) == 0
    assert "se        = " in capsys.readouterr().out


@pytest.mark.parametrize("design, column, scale, refused", [
    ("low_dim", "y", 1e160, "target 5"),  # the outcome, after the 5 g terms
    ("high_dim", "z1", 1e160, "Q column 0"),
    ("low_dim", "y", 1e150, None),
])
def test_main_fit_refuses_a_column_whose_squares_overflow_in_one_line(
        capsys, tmp_path, design, column, scale, refused):
    # replication zero's sample of simulate --n 200 --seed 0, with one
    # column scaled: the refusal is the only report, with no RuntimeWarning
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(0,)))
    data = generate_sample(DgpConfig(design, 200), rng)
    if column == "y":
        data.y = scale * data.y
    else:
        data.Z[:, 0] *= scale
    dump = tmp_path / "sample.csv"
    write_sample_csv(data, str(dump))
    argv = ["fit", "--input", str(dump), "--y", "y", "--x", "x", "--z", "z*",
            "--out", str(tmp_path / "fit.txt")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert caught == []
    out, err = capsys.readouterr()
    if refused is None:
        assert code == 0 and err == "" and "theta_hat = " in out
        return
    assert code == 1
    assert err.startswith(f"error: {refused} is out of floating-point range on this sample")
    assert err.count("\n") == 1


@pytest.mark.parametrize("k", ["1", "auto14"])
def test_main_fit_refuses_a_tensor_on_many_inputs_in_one_line(capsys, tmp_path, k):
    # 1000 z columns, as in a high_dim dump at n = 500: the tensor is refused
    # by its size, not by a RecursionError; raw coordinates still fit
    rng = np.random.default_rng(8)
    n, d = 40, 1000
    x = rng.standard_normal(n)
    Z = rng.standard_normal((n, d))
    dump = tmp_path / "sample.csv"
    write_sample_csv(Dataset(y=x + Z[:, 0] + rng.standard_normal(n), x=x, Z=Z), str(dump))
    argv = ["fit", "--input", str(dump), "--y", "y", "--x", "x", "--z", "z*",
            "--k", k, "--out", str(tmp_path / "fit.txt")]
    assert main([*argv, "--q-dict", "tensor"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: a Hermite tensor of degree K={1 if k == '1' else 2} "
                          f"on d={d} inputs has L=")
    assert err.endswith("use the raw coordinates as the conditioning dictionary\n")
    assert err.count("\n") == 1
    assert main([*argv, "--q-dict", "raw"]) == 0
    assert "se        = " in capsys.readouterr().out


def test_main_fit_reports_a_rank_deficient_final_fit(monkeypatch, capsys, tmp_path):
    dump = tmp_path / "sample.csv"
    write_sample_csv(
        generate_sample(DgpConfig("low_dim", 80), np.random.default_rng(2)),
        str(dump))
    argv = ["fit", "--input", str(dump), "--y", "y", "--x", "x", "--z", "z*",
            "--k", "3", "--out", str(tmp_path / "fit.txt")]
    flag = "warning: the final OLS is rank-deficient"
    assert main(argv) == 0
    assert flag not in capsys.readouterr().out
    real = selection._final_fits

    def flagged(*args, **kwargs):
        return [replace(fit, rank_deficient=True) for fit in real(*args, **kwargs)]

    monkeypatch.setattr(selection, "_final_fits", flagged)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert flag in lines[lines.index("dictionary degree K: 3") + 1]
    assert any(line.startswith("theta_hat = ") for line in lines)


def test_main_fit_takes_a_gamma_whose_tail_is_below_the_rounding_of_one(capsys, tmp_path):
    # at gamma = 1e-13 the penalty's tail gamma / (2M) is below 2^-54, so
    # 1 - tail would round to 1; the level is finite and the fit runs
    dump = tmp_path / "sample.csv"
    write_sample_csv(
        generate_sample(DgpConfig("low_dim", 80), np.random.default_rng(2)),
        str(dump))
    argv = ["fit", "--input", str(dump), "--y", "y", "--x", "x", "--z", "z*",
            "--k", "3", "--gamma", "1e-13", "--out", str(tmp_path / "fit.txt")]
    assert main(argv) == 0
    assert "theta_hat = " in capsys.readouterr().out


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
    # each degree's BIC, after the choice; no degree failed
    lines = stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("BIC minimizer: "))
    head, _, cells = lines[at + 1].partition(": ")
    assert head == "BIC by degree" and "failed degrees" not in stdout
    bics = {int(k): float(b) for k, b in
            (cell.removeprefix("K=").split(": ") for cell in cells.split("; "))}
    assert list(bics) == list(range(2, 9))
    assert lines[at].startswith(f"BIC minimizer: {min(bics, key=bics.get)};")


def test_dataset_validation():
    with pytest.raises(ValueError, match="sample dimension"):
        Dataset(y=np.ones(3), x=np.ones(4), Z=np.ones((3, 2)))
    with pytest.raises(ValueError, match="sample dimension"):
        Dataset(y=np.ones(3), x=np.ones(3), Z=np.ones((4, 2)))
    with pytest.raises(ValueError, match="h_true"):
        Dataset(y=np.ones(3), x=np.ones(3), Z=np.ones((3, 2)), h_true=np.ones(5))
    d = Dataset(y=np.ones(3), x=np.ones(3), Z=np.ones(3))
    assert d.Z.shape == (3, 1)
