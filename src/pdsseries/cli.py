"""Command-line front end.

Two subcommands:

- ``pds-series simulate``: run the Monte Carlo harness for one design point
  and write the aggregated metrics as CSV (plus an aligned text table).
- ``pds-series fit``: estimate a functional of g on a user CSV.

A ``--config FILE`` in INI format can supply any long option (section named
after the subcommand); explicit flags win. The resolved configuration is
echoed into the text outputs. Exit codes: 0 success, 2 invalid
configuration (all problems listed), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import fnmatch
import sys
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .dictionary import DictionarySpec, build_design, build_extended_fs, dictionary_labels
from .inference import average_derivative, functional_estimate, point_eval, quantile_contrast
from .lasso import LassoConfig
from .montecarlo import (
    DgpConfig,
    FUNCTIONALS,
    generate_sample,
    run_monte_carlo,
)
from .selection import (
    ESTIMATORS,
    KGridResult,
    choose_k_bic,
    default_degree,
    default_k_grid,
    integer_root,
    pds_fit,
    post_double_select,
)

__all__ = ["RunConfig", "ConfigError", "load_csv", "write_sample_csv", "run", "main"]


class ConfigError(ValueError):
    """Invalid CLI configuration; ``problems`` lists every issue found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class RunConfig:
    """Validated knobs for one invocation."""

    command: str
    # simulate
    design: str | None = None
    n: int | None = None
    sigma_v: float = 1.0
    sigma_eps: float = 1.0
    reps: int = 100
    seed: int = 0
    estimators: list = field(default_factory=lambda: list(ESTIMATORS))
    functionals: list = field(default_factory=lambda: list(FUNCTIONALS))
    dump_sample: str | None = None
    # fit
    input: str | None = None
    y: str | None = None
    x: str | None = None
    z: list = field(default_factory=list)
    k: str = "auto13"
    extended_fs: bool = False
    q_dict: str = "raw"
    functional: str = "avg_deriv"
    c: float = 1.1
    gamma: float | None = None
    n_loadings: int = 15
    # shared
    out: str | None = None

    def echo(self) -> str:
        pairs = [("command", self.command)]
        if self.command == "simulate":
            keys = ("design", "n", "sigma_v", "sigma_eps", "reps", "seed",
                    "estimators", "functionals", "dump_sample", "out")
        else:
            keys = ("input", "y", "x", "z", "k", "extended_fs", "q_dict",
                    "functional", "c", "gamma", "n_loadings", "out")
        for key in keys:
            val = getattr(self, key)
            if isinstance(val, list):
                val = ",".join(str(v) for v in val)
            pairs.append((key, val))
        lines = ["[resolved config]"]
        lines += [f"{k} = {v}" for k, v in pairs]
        return "\n".join(lines)


_DESIGN_ALIASES = {"low": "low_dim", "high": "high_dim",
                   "low_dim": "low_dim", "high_dim": "high_dim"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pds-series",
        description="Post-double-selection series estimation",
    )
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="run the Monte Carlo harness")
    sim.add_argument("--config")
    sim.add_argument("--design")
    sim.add_argument("--n")
    sim.add_argument("--sigma-v", dest="sigma_v")
    sim.add_argument("--sigma-eps", dest="sigma_eps")
    sim.add_argument("--reps")
    sim.add_argument("--seed")
    sim.add_argument("--estimators")
    sim.add_argument("--functionals")
    sim.add_argument("--dump-sample", dest="dump_sample")
    sim.add_argument("--out")

    fit = sub.add_parser("fit", help="fit one sample from a CSV file")
    fit.add_argument("--config")
    fit.add_argument("--input")
    fit.add_argument("--y")
    fit.add_argument("--x")
    fit.add_argument("--z")
    fit.add_argument("--k")
    fit.add_argument("--extended-fs", dest="extended_fs", action="store_const", const="true")
    fit.add_argument("--q-dict", dest="q_dict")
    fit.add_argument("--functional")
    fit.add_argument("--c")
    fit.add_argument("--gamma")
    fit.add_argument("--n-loadings", dest="n_loadings")
    fit.add_argument("--out")
    return parser


def _merge_config_file(command: str, path: str, values: dict) -> dict:
    """Fill unset options from an INI file; explicit flags keep priority."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError([f"config file {path!r} not found or unreadable"])
    merged = dict(values)
    if parser.has_section(command):
        for key, val in parser.items(command):
            dest = key.replace("-", "_")
            if merged.get(dest) is None:
                merged[dest] = val
    return merged


def _coerce_int(name, raw, problems, minimum=None):
    try:
        val = int(str(raw))
    except ValueError:
        problems.append(f"--{name} must be an integer, got {raw!r}")
        return None
    if minimum is not None and val < minimum:
        problems.append(f"--{name} must be >= {minimum}, got {val}")
        return None
    return val


def _coerce_float(name, raw, problems, minimum=None):
    try:
        val = float(str(raw))
    except ValueError:
        problems.append(f"--{name} must be a number, got {raw!r}")
        return None
    if minimum is not None and val < minimum:
        problems.append(f"--{name} must be >= {minimum}, got {val}")
        return None
    return val


def resolve_config(argv) -> RunConfig:
    """Parse argv, merge any config file, validate everything at once."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command not in ("simulate", "fit"):
        raise ConfigError(["a subcommand is required: simulate or fit"])
    values = {k: v for k, v in vars(args).items() if k != "command"}
    if values.get("config"):
        values = _merge_config_file(args.command, values["config"], values)
    problems: list[str] = []
    cfg = RunConfig(command=args.command)

    if args.command == "simulate":
        design = values.get("design")
        if design is None:
            problems.append("--design is required (low or high)")
        elif str(design) not in _DESIGN_ALIASES:
            problems.append(f"--design must be low or high, got {design!r}")
        else:
            cfg.design = _DESIGN_ALIASES[str(design)]
        if values.get("n") is None:
            problems.append("--n is required")
        else:
            cfg.n = _coerce_int("n", values["n"], problems, minimum=2)
        if values.get("sigma_v") is not None:
            cfg.sigma_v = _coerce_float("sigma-v", values["sigma_v"], problems, minimum=0.0)
        if values.get("sigma_eps") is not None:
            cfg.sigma_eps = _coerce_float("sigma-eps", values["sigma_eps"], problems, minimum=0.0)
        if values.get("reps") is not None:
            cfg.reps = _coerce_int("reps", values["reps"], problems, minimum=1)
        if values.get("seed") is not None:
            cfg.seed = _coerce_int("seed", values["seed"], problems)
        if values.get("estimators") is not None:
            names = [s.strip() for s in str(values["estimators"]).split(",") if s.strip()]
            if names == ["all"]:
                names = list(ESTIMATORS)
            bad = [s for s in names if s not in ESTIMATORS]
            if bad:
                problems.append(
                    f"--estimators contains unknown names {bad}; valid: {', '.join(ESTIMATORS)}"
                )
            else:
                cfg.estimators = names
        if values.get("functionals") is not None:
            fns = [s.strip() for s in str(values["functionals"]).split(",") if s.strip()]
            bad = [s for s in fns if s not in FUNCTIONALS]
            if bad:
                problems.append(
                    f"--functionals contains unknown names {bad}; valid: {', '.join(FUNCTIONALS)}"
                )
            else:
                cfg.functionals = fns
        cfg.dump_sample = values.get("dump_sample")
        if values.get("out") is None:
            problems.append("--out is required")
        else:
            cfg.out = str(values["out"])
    else:
        for req in ("input", "y", "x", "z", "out"):
            if values.get(req) is None:
                problems.append(f"--{req} is required")
        cfg.input = values.get("input")
        cfg.y = values.get("y")
        cfg.x = values.get("x")
        if values.get("z") is not None:
            cfg.z = [s.strip() for s in str(values["z"]).split(",") if s.strip()]
            if not cfg.z:
                problems.append("--z must list at least one column")
        if values.get("k") is not None:
            k = str(values["k"])
            if k not in ("auto13", "auto14", "bic"):
                kv = _coerce_int("k", k, problems, minimum=1)
                if kv is not None:
                    k = str(kv)
            cfg.k = k
        if values.get("extended_fs") is not None:
            cfg.extended_fs = str(values["extended_fs"]).lower() in ("1", "true", "yes", "on")
        if values.get("q_dict") is not None:
            if str(values["q_dict"]) not in ("raw", "tensor"):
                problems.append(f"--q-dict must be raw or tensor, got {values['q_dict']!r}")
            else:
                cfg.q_dict = str(values["q_dict"])
        if values.get("functional") is not None:
            fn = str(values["functional"])
            if fn in FUNCTIONALS:
                cfg.functional = fn
            elif fn.startswith("point:"):
                if _coerce_float("functional point", fn[6:], problems) is not None:
                    cfg.functional = fn
            else:
                problems.append(
                    f"--functional must be avg_deriv, quantile_contrast or point:VALUE, got {fn!r}"
                )
        if values.get("c") is not None:
            val = _coerce_float("c", values["c"], problems)
            if val is not None:
                if val <= 0:
                    problems.append(f"--c must be positive, got {val}")
                else:
                    cfg.c = val
        if values.get("gamma") is not None:
            val = _coerce_float("gamma", values["gamma"], problems)
            if val is not None:
                if not 0.0 < val < 1.0:
                    problems.append(f"--gamma must lie in (0, 1), got {val}")
                else:
                    cfg.gamma = val
        if values.get("n_loadings") is not None:
            val = _coerce_int("n-loadings", values["n_loadings"], problems, minimum=1)
            if val is not None:
                cfg.n_loadings = val
        cfg.out = values.get("out")

    if problems:
        raise ConfigError(problems)
    return cfg


_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


def load_csv(path: str, y_col: str, x_col: str, z_patterns):
    """Read one estimation sample from a CSV file.

    ``z_patterns`` may contain exact column names or fnmatch-style
    wildcards; matches keep header order. Rows with a missing value in any
    used column are dropped (the count is reported). A non-numeric,
    non-missing cell raises a ValueError naming the row and column.

    Returns (Dataset, z_column_names, n_dropped).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]

    missing_cols = [c for c in (y_col, x_col) if c not in header]
    z_cols: list[str] = []
    for pat in z_patterns:
        if any(ch in pat for ch in "*?["):
            hits = [h for h in header if fnmatch.fnmatchcase(h, pat)]
            if not hits:
                missing_cols.append(pat)
            z_cols.extend(hits)
        elif pat in header:
            z_cols.append(pat)
        else:
            missing_cols.append(pat)
    if missing_cols:
        raise ValueError(f"{path}: missing columns: {', '.join(missing_cols)}")
    seen = set()
    z_cols = [c for c in z_cols if not (c in seen or seen.add(c))]

    used = [y_col, x_col] + z_cols
    pos = {c: header.index(c) for c in used}
    parsed: list[list[float]] = []
    n_dropped = 0
    for i, row in enumerate(rows):
        vals = []
        drop = False
        for col in used:
            j = pos[col]
            cell = row[j].strip() if j < len(row) else ""
            if cell.lower() in _MISSING_TOKENS:
                drop = True
                break
            try:
                vals.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {cell!r} in row {i + 2}, "
                    f"column {col!r}"
                ) from None
        if drop:
            n_dropped += 1
            continue
        parsed.append(vals)
    if not parsed:
        raise ValueError(f"{path}: no usable rows after dropping missing values")
    arr = np.asarray(parsed)
    data = Dataset(y=arr[:, 0], x=arr[:, 1], Z=arr[:, 2:])
    return data, z_cols, n_dropped


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


def _resolve_k(k: str, n: int):
    """Return (mode, value): a fixed degree or the BIC grid marker."""
    if k == "auto13":
        return "fixed", integer_root(n, 3)
    if k == "auto14":
        return "fixed", integer_root(n, 4)
    if k == "bic":
        return "bic", None
    return "fixed", int(k)


def _functional_spec(cfg: RunConfig, spec_p, x):
    if cfg.functional == "avg_deriv":
        return average_derivative(spec_p, x)
    if cfg.functional == "quantile_contrast":
        return quantile_contrast(spec_p, x)
    return point_eval(spec_p, float(cfg.functional[6:]))


def _run_fit(cfg: RunConfig) -> str:
    data, z_names, n_dropped = load_csv(cfg.input, cfg.y, cfg.x, cfg.z)
    lasso_cfg = LassoConfig(c=cfg.c, gamma=cfg.gamma, n_loadings=cfg.n_loadings)
    mode, k_val = _resolve_k(cfg.k, data.n)

    lines = [cfg.echo(), ""]
    lines.append(f"rows used: {data.n} (dropped {n_dropped} with missing values)")

    def q_spec(degree: int) -> DictionarySpec:
        if cfg.q_dict == "tensor":
            return DictionarySpec("hermite_tensor", degree=degree,
                                  input_dim=data.Z.shape[1])
        return DictionarySpec("raw_coordinates", input_dim=data.Z.shape[1])

    degree = default_degree(data.n) if mode == "bic" else k_val
    spec_p = DictionarySpec("hermite_univariate", degree=degree)
    spec_q = q_spec(degree)
    design = build_design(spec_p, spec_q, data.x, data.Z)
    if mode == "bic":
        grid = default_k_grid(data.n)
        res: KGridResult = choose_k_bic(data, design, grid, lasso_cfg,
                                        extended_fs=cfg.extended_fs)
        fit = res.fits[res.k_hat]
        spec_p = fit.spec_p
        lines.append(f"degree grid: {min(grid)}..{max(grid)}")
        lines.append(f"BIC minimizer: {res.k_bic}; chosen K: {res.k_hat}")
    else:
        P_fs = build_extended_fs(design.P) if cfg.extended_fs else design.P
        sel = post_double_select(P_fs, design, data.y, lasso_cfg)
        fit = pds_fit(design.p_raw, design.q_raw(sel.union_set), data.y, sel,
                      spec_p=spec_p)
        lines.append(f"dictionary degree K: {k_val}")

    labels = dictionary_labels(spec_q, prefix="q",
                               names=z_names if cfg.q_dict == "raw" else None)
    chosen = [labels[j] for j in fit.selected]
    lines.append(f"selected conditioning terms ({len(chosen)}): "
                 + (", ".join(chosen) if chosen else "(none)"))
    fspec = _functional_spec(cfg, spec_p, data.x)
    res_inf = functional_estimate(fit, fspec)
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
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,))
        )
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
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
