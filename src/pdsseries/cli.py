"""Command-line front end.

Two subcommands:

- ``pds-series simulate``: run the Monte Carlo harness for one design point
  and write the aggregated metrics as CSV (plus an aligned text table).
- ``pds-series fit``: estimate a functional of g on a user CSV.

Each long option is declared once, as a ``RunConfig`` field. The names
an option takes are not owned here: ``--functional`` is read by
``inference.parse_functional`` and ``--estimators``/``--functionals`` are
checked by ``data.check_names``, so the library refuses the same names
with the same text that follows the flag in the problem list. A ``--config
FILE`` in INI format can supply any of them (section named after the
subcommand); explicit flags win. The resolved configuration is echoed into
the text outputs. Exit codes: 0 success, 2 invalid configuration (all
problems listed), 1 runtime failure, such as a CSV column in two roles.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import fnmatch
import functools
import math
import sys
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .data import Dataset, check_names
from .dictionary import DictionarySpec, build_design, dictionary_labels
from .inference import FUNCTIONALS, functional_by_name, functional_estimate, parse_functional
from .lasso import LassoConfig
from .montecarlo import (
    DgpConfig,
    _replication_seed,
    generate_sample,
    run_monte_carlo,
)
from .selection import (
    ESTIMATORS,
    FIT_ERRORS,
    choose_k_bic,
    default_degree,
    default_k_grid,
    integer_root,
)

__all__ = ["RunConfig", "ConfigError", "load_csv", "write_sample_csv", "run", "main"]

_COMMANDS = {"simulate": "run the Monte Carlo harness",
             "fit": "fit one sample from a CSV file"}


class ConfigError(ValueError):
    """Invalid CLI configuration; ``problems`` lists every issue found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# Parsers of an option's raw text (a flag's value or an INI value). Each
# returns the parsed value or raises a ValueError whose text follows
# "--<option> " in the problem list.

def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"must be an integer, got {raw!r}") from None


def _number(raw: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ValueError(f"must be a number, got {raw!r}") from None
    if not math.isfinite(val):
        raise ValueError(f"must be a finite number, got {raw!r}")
    return val


def _within(parse, ok, rule: str):
    """``parse``, then refuse a value for which ``ok`` is false."""
    def check(raw: str):
        val = parse(raw)
        if not ok(val):
            raise ValueError(f"{rule}, got {val}")
        return val
    return check


def _at_least(parse, minimum):
    return _within(parse, lambda val: val >= minimum, f"must be >= {minimum}")


def _choice(values: dict, words: str):
    """Map an accepted text to its value; ``words`` lists the choices."""
    def parse(raw: str):
        if raw not in values:
            raise ValueError(f"must be {words}, got {raw!r}")
        return values[raw]
    return parse


def _names(noun: str, valid=None, everything: bool = False):
    """A comma-separated list of names, checked by ``check_names`` against
    ``valid``; without ``valid``, any non-empty list (``--z`` patterns may
    repeat)."""
    def parse(raw: str) -> list:
        names = [s.strip() for s in raw.split(",") if s.strip()]
        if everything and names == ["all"]:
            return list(valid)
        if valid is None and names:
            return names
        return check_names(names, valid or (), noun)
    return parse


def _boolean(raw: str) -> bool:
    flag = raw.strip().lower()
    if flag not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"must be true or false, got {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[flag]


_K_ROOTS = {"auto13": 3, "auto14": 4}  # --k auto1r: the degree is n^(1/r)


def _degree(raw: str):
    """``--k``: a degree of at least 1, auto13, auto14 or bic."""
    if raw in _K_ROOTS or raw == "bic":
        return raw
    return _at_least(_integer, 1)(raw)


def _option(commands, parse=str, default=None, required=False):
    """Declare the option ``--<field name>`` of ``commands``; ``parse`` checks
    its raw text; ``required`` is True or a note for the missing-option problem."""
    meta = {"commands": commands, "parse": parse, "required": required}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


_SIM, _FIT = ("simulate",), ("fit",)
_DESIGN_ALIASES = {"low": "low_dim", "high": "high_dim",
                   "low_dim": "low_dim", "high_dim": "high_dim"}


@dataclass
class RunConfig:
    """Validated knobs for one invocation. Each field after ``command`` is one
    option; the parser, the config-file keys, the checks and ``echo`` follow them."""

    command: str
    design: str | None = _option(_SIM, _choice(_DESIGN_ALIASES, "low or high"),
                                 required="low or high")
    n: int | None = _option(_SIM, _at_least(_integer, 2), required=True)
    sigma_v: float = _option(_SIM, _at_least(_number, 0.0), 1.0)
    sigma_eps: float = _option(_SIM, _at_least(_number, 0.0), 1.0)
    reps: int = _option(_SIM, _at_least(_integer, 1), 100)
    seed: int = _option(_SIM, _at_least(_integer, 0), 0)
    estimators: list = _option(_SIM, _names("estimator", ESTIMATORS, everything=True),
                               list(ESTIMATORS))
    functionals: list = _option(_SIM, _names("functional", FUNCTIONALS), list(FUNCTIONALS))
    dump_sample: str | None = _option(_SIM)
    input: str | None = _option(_FIT, required=True)
    y: str | None = _option(_FIT, required=True)
    x: str | None = _option(_FIT, required=True)
    z: list = _option(_FIT, _names("column"), [], required=True)
    k: int | str = _option(_FIT, _degree, "auto13")
    extended_fs: bool = _option(_FIT, _boolean, False)
    q_dict: str = _option(_FIT, _choice({"raw": "raw", "tensor": "tensor"}, "raw or tensor"),
                          "raw")
    functional: str = _option(_FIT, parse_functional, "avg_deriv")
    c: float = _option(_FIT, _within(_number, lambda val: val > 0, "must be positive"), 1.1)
    gamma: float | None = _option(
        _FIT, _within(_number, lambda val: 0.0 < val < 1.0, "must lie in (0, 1)"))
    n_loadings: int = _option(_FIT, _at_least(_integer, 1), 15)
    out: str | None = _option(_SIM + _FIT, required=True)

    def echo(self) -> str:
        lines = ["[resolved config]", f"command = {self.command}"]
        for opt in _options(self.command):
            val = getattr(self, opt.name)
            if isinstance(val, list):
                val = ",".join(str(v) for v in val)
            lines.append(f"{opt.name} = {val}")
        return "\n".join(lines)


def _options(command: str) -> list:
    """The declared options of ``command``, in declaration order."""
    return [f for f in fields(RunConfig) if command in f.metadata.get("commands", ())]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand's flags, built once per process: each
    parse returns a new namespace and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="pds-series",
        description="Post-double-selection series estimation",
    )
    sub = parser.add_subparsers(dest="command")
    for command, help_text in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("--config")
        for opt in _options(command):
            flag = "--" + opt.name.replace("_", "-")
            if opt.metadata["parse"] is _boolean:
                cmd.add_argument(flag, action="store_const", const="true")
            else:
                cmd.add_argument(flag)
    return parser


def _merge_config_file(command: str, path: str, values: dict, problems: list) -> None:
    """Fill unset ``values`` from an INI file; explicit flags keep priority.

    A section that names no subcommand, or a key that names no option of
    the subcommand, is a problem. So is ``[DEFAULT]``: configparser would
    fold its keys into every section, so it is read as an ordinary section
    and refused by name. Values are read literally (no ``%`` interpolation);
    a file that does not parse, such as one with no section header, a key
    given twice in a section or bytes that are not UTF-8, is a configuration
    error.
    """
    # no section header can be empty, so no section is the default one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError([f"config file {path!r} does not parse: {exc}"]) from None
    if not read:
        raise ConfigError([f"config file {path!r} not found or unreadable"])
    for section in parser.sections():
        if section == "DEFAULT":
            problems.append(f"config file {path!r}: [DEFAULT] is not a subcommand section")
        elif section not in _COMMANDS:
            problems.append(f"config file {path!r}: unknown section [{section}]")
    names = {opt.name for opt in _options(command)}
    if parser.has_section(command):
        for key, val in parser.items(command):
            dest = key.replace("-", "_")
            if dest not in names:
                problems.append(f"config file {path!r}: unknown key {key!r} in [{command}]")
            elif values[dest] is None:
                values[dest] = val


def resolve_config(argv) -> RunConfig:
    """Parse argv, merge any config file, validate everything at once."""
    args = _build_parser().parse_args(argv)
    if args.command not in _COMMANDS:
        raise ConfigError(["a subcommand is required: simulate or fit"])
    values = vars(args)
    problems: list[str] = []
    if args.config:
        _merge_config_file(args.command, args.config, values, problems)
    parsed = {}
    for opt in _options(args.command):
        flag = "--" + opt.name.replace("_", "-")
        raw = values[opt.name]
        required = opt.metadata["required"]
        if raw is None:
            if required:
                note = f" ({required})" if isinstance(required, str) else ""
                problems.append(f"{flag} is required{note}")
            continue
        try:
            parsed[opt.name] = opt.metadata["parse"](raw)
        except ValueError as exc:
            problems.append(f"{flag} {exc}")
    if problems:
        raise ConfigError(problems)
    return RunConfig(command=args.command, **parsed)


_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


def load_csv(path: str, y_col: str, x_col: str, z_patterns):
    """Read one estimation sample from a CSV file.

    ``z_patterns`` may contain exact column names or fnmatch-style
    wildcards; matches keep header order. Rows with a missing value in any
    used column are dropped (the count is reported). A non-numeric or
    infinite cell that is not a missing token raises a ValueError naming its
    row (its line in the file) and column; a column in two roles (y, x or
    z), or a used name that the header repeats, raises one naming it.

    Two readers keep one contract. The header is parsed once; NumPy's C
    reader (``np.loadtxt``) then reads the used columns of a clean file,
    where every used cell is a finite number. When it raises or warns,
    finds no row or reads a value that is not finite, the file is read
    again cell by cell, and only that loop drops rows and names bad cells.
    Both readers round each number correctly, so a clean file gives the
    same bits from either.

    Returns (Dataset, z_column_names, n_dropped).
    """
    # utf-8-sig skips the byte-order mark that Excel's "CSV UTF-8" writes
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        used = _used_columns(path, header, y_col, x_col, z_patterns)
        pos = [header.index(c) for c in used]
        arr, n_dropped = _read_clean(fh, pos), 0
        if arr is None:
            fh.seek(0)
            reader = csv.reader(fh)  # a fresh count of file lines
            next(reader)
            arr, n_dropped = _read_cells(path, reader, used, pos)
    data = Dataset(y=arr[:, 0], x=arr[:, 1], Z=arr[:, 2:])
    return data, used[2:], n_dropped


def _used_columns(path: str, header: list, y_col: str, x_col: str, z_patterns) -> list:
    """The names ``load_csv`` reads, y and x first, checked against ``header``."""
    missing_cols = [c for c in (y_col, x_col) if c not in header]
    z_cols: list[str] = []
    for pat in z_patterns:
        # a name without *, ? or [ matches only itself
        hits = [h for h in header if fnmatch.fnmatchcase(h, pat)]
        if not hits:
            missing_cols.append(pat)
        z_cols.extend(hits)
    if missing_cols:
        raise ValueError(f"{path}: missing columns: {', '.join(missing_cols)}")
    seen = set()
    z_cols = [c for c in z_cols if not (c in seen or seen.add(c))]
    roles = {y_col: "y"}
    for col, role in [(x_col, "x")] + [(c, "z") for c in z_cols]:
        if col in roles:
            raise ValueError(f"{path}: column {col!r} is given as both {roles[col]} and {role}")
        roles[col] = role
    used = [y_col, x_col] + z_cols
    for col in used:
        count = header.count(col)
        if count > 1:
            raise ValueError(f"{path}: column {col!r} appears {count} times in the header")
    return used


def _read_clean(fh, pos: list):
    """Columns ``pos`` of the rest of ``fh`` by NumPy's C reader, or None
    when it raises or warns, finds no row or reads a non-finite value."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arr = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                             usecols=pos, ndmin=2)
    except (ValueError, Warning):
        return None
    if not len(arr) or not np.isfinite(arr).all():
        return None
    return arr


def _read_cells(path: str, reader, used: list, pos: list):
    """The used columns of the rows of ``reader``, cell by cell: blank rows
    skipped, rows with a missing value dropped, bad cells named by their
    line in the file. Returns (array, n_dropped)."""
    parsed: list[list[float]] = []
    n_dropped = 0
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        line = reader.line_num
        vals = []
        drop = False
        for col, j in zip(used, pos):
            cell = row[j].strip() if j < len(row) else ""
            if cell.lower() in _MISSING_TOKENS:
                drop = True
                break
            try:
                val = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {cell!r} in row {line}, "
                    f"column {col!r}"
                ) from None
            if not math.isfinite(val):
                raise ValueError(
                    f"{path}: non-finite value {cell!r} in row {line}, "
                    f"column {col!r}"
                )
            vals.append(val)
        if drop:
            n_dropped += 1
            continue
        parsed.append(vals)
    if not parsed:
        raise ValueError(f"{path}: no usable rows after dropping missing values")
    return np.asarray(parsed), n_dropped


def write_sample_csv(data: Dataset, path: str) -> None:
    """Write one sample with full-precision floats (round-trip exact)."""
    d = data.Z.shape[1]
    header = ["y", "x"] + [f"z{j + 1}" for j in range(d)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(data.n):
            cells = [repr(float(data.y[i])), repr(float(data.x[i]))]
            cells += [repr(float(v)) for v in data.Z[i]]
            fh.write(",".join(cells) + "\n")


def _run_fit(cfg: RunConfig) -> str:
    data, z_names, n_dropped = load_csv(cfg.input, cfg.y, cfg.x, cfg.z)
    lasso_cfg = LassoConfig(c=cfg.c, gamma=cfg.gamma, n_loadings=cfg.n_loadings)
    bic = cfg.k == "bic"

    lines = [cfg.echo(), ""]
    lines.append(f"rows used: {data.n} (dropped {n_dropped} with missing values)")

    if bic:
        degree = default_degree(data.n)
    else:
        degree = integer_root(data.n, _K_ROOTS[cfg.k]) if cfg.k in _K_ROOTS else cfg.k
    if cfg.q_dict == "tensor":
        spec_q = DictionarySpec("hermite_tensor", degree=degree, input_dim=data.Z.shape[1])
    else:
        spec_q = DictionarySpec("raw_coordinates", input_dim=data.Z.shape[1])
    design = build_design(spec_q, data.Z)
    # a fixed degree is the one-degree grid
    grid = default_k_grid(data.n) if bic else [degree]
    res = choose_k_bic(data, design, grid, lasso_cfg, extended_fs=cfg.extended_fs)
    fit = res.fits[res.k_hat]
    if bic:
        lines.append(f"degree grid: {min(grid)}..{max(grid)}")
        lines.append(f"BIC minimizer: {res.k_bic}; chosen K: {res.k_hat}")
        lines.append("BIC by degree: "
                     + "; ".join(f"K={k}: {bic_k:.10g}" for k, bic_k in res.bics.items()))
        if res.errors:
            lines.append("failed degrees: "
                         + "; ".join(f"K={k}: {why}" for k, why in res.errors.items()))
    else:
        lines.append(f"dictionary degree K: {degree}")
    if fit.rank_deficient:
        lines.append("warning: the final OLS is rank-deficient; "
                     "beta_hat is a minimum-norm solution")

    chosen = dictionary_labels(spec_q, prefix="q",
                               names=z_names if cfg.q_dict == "raw" else None,
                               columns=fit.selected)
    lines.append(f"selected conditioning terms ({len(chosen)}): "
                 + (", ".join(chosen) if chosen else "(none)"))
    res_inf = functional_estimate(fit, functional_by_name(cfg.functional, fit.spec_p, data.x))
    lines.append("")
    lines.append(f"functional: {cfg.functional}")
    lines.append(f"theta_hat = {res_inf.theta_hat:.10g}")
    lines.append(f"se        = {res_inf.se:.10g}")
    lines.append(f"t_stat    = {res_inf.t_stat:.10g}")
    lines.append(f"ci95      = [{res_inf.ci_lower:.10g}, {res_inf.ci_upper:.10g}]")
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def _run_simulate(cfg: RunConfig) -> str:
    dgp = DgpConfig(design=cfg.design, n=cfg.n, sigma_v=cfg.sigma_v,
                    sigma_eps=cfg.sigma_eps)
    if cfg.dump_sample:
        # replication 0's sample
        rng = np.random.default_rng(_replication_seed(cfg.seed, 0))
        write_sample_csv(generate_sample(dgp, rng), cfg.dump_sample)
    report = run_monte_carlo(dgp, estimators=cfg.estimators, n_reps=cfg.reps,
                             base_seed=cfg.seed, functionals=cfg.functionals)
    report.write_csv(cfg.out)
    text = cfg.echo() + "\n\n" + report.to_table()
    with open(cfg.out + ".txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text


def run(cfg: RunConfig) -> str:
    """Execute a validated configuration; returns the text report."""
    if cfg.command == "simulate":
        return _run_simulate(cfg)
    return _run_fit(cfg)


def main(argv=None) -> int:
    try:
        cfg = resolve_config(argv if argv is not None else sys.argv[1:])
    except ConfigError as exc:
        print("configuration errors:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    try:
        text = run(cfg)
    except (OSError, *FIT_ERRORS) as exc:
        # unreadable input or a failed fit; a programming error propagates
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
