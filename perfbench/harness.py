"""Workloads, timing loop, output check and metrics of the pipeline benchmark.

Each workload is a closed loop in one process: the next unit of work (one
Monte Carlo replication, or one ``pds-series fit`` call) starts when the
previous one has returned. Units are numbered from 0 and unit ``i`` draws
its inputs from ``SeedSequence(seed, spawn_key=(i,))``, so a seed fixes
every input. The program is reached only through its public functions.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pdsseries
from pdsseries import cli, dictionary, inference, lasso, montecarlo, selection
from pdsseries.data import Dataset

import tracer as tracing

HERE = Path(__file__).resolve().parent
RUN_PY = HERE / "run.py"
REFERENCE_DIR = HERE / "reference"
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_SEED = 0
RTOL = 1e-8  # the fit workload's figures are parsed from 10-digit CLI output
SETUP_REPEATS = 3
N_JOBS = 1
TAIL_BEYOND = 10  # a tail percentile needs at least this many samples beyond it
# Seconds per unit when the benchmark was written (2-core x86 VM, NumPy
# fallback kernel). A traced run covers seconds / 2 / NOMINAL_UNIT_S units
# twice, a count fixed by --seconds, so its counters repeat exactly.
NOMINAL_UNIT_S = {"mc_high_dim": 0.4, "mc_noise_controls": 0.4, "fit_bic_ext": 4.0}


class CheckError(RuntimeError):
    """The program's output failed the benchmark's check."""


@dataclass
class State:
    """Everything a workload's units need, made during set-up."""

    workload: str
    seed: int
    workdir: Path
    theta: float = float("nan")
    dgp: object = None
    spec_p: object = None
    spec_q: object = None
    estimators: tuple = ()
    csvs: list = field(default_factory=list)


# ------------------------------------------------------------------ set-up

FIT_POOL = 8  # distinct samples a fit run cycles through
NOISE_N = 1000


def setup(workload: str, seed: int, workdir: Path) -> State:
    """Compute the true functional value or write the input files."""
    # Freeing one 30 MiB block raises glibc's mmap threshold to its ceiling, so
    # the pipeline's multi-MB temporaries are reused from the heap instead of
    # being mapped and faulted in afresh. Without this, whether a run pays
    # those page faults depends on its allocation history, and timings of
    # identical work differ by up to 2x between runs.
    np.empty(30 << 17)
    st = State(workload, seed, workdir)
    if workload == "mc_high_dim":
        st.dgp = montecarlo.DgpConfig("high_dim", 500, sigma_eps=2.0)
        st.theta = montecarlo.true_theta(st.dgp, "avg_deriv")
        st.spec_p, st.spec_q = montecarlo.default_specs(st.dgp)
        st.estimators = ("post_double", "post_single_2", "oracle")
    elif workload == "mc_noise_controls":
        # E g'(x) for standard normal x, by Gauss-Hermite quadrature
        nodes, weights = np.polynomial.hermite_e.hermegauss(100)
        st.theta = float(weights @ montecarlo.g_deriv_true(nodes) / math.sqrt(2 * math.pi))
        st.spec_p = dictionary.DictionarySpec("hermite_univariate", degree=10)
        st.spec_q = dictionary.DictionarySpec("hermite_tensor", degree=10, input_dim=4)
        st.estimators = ("post_double", "oracle")
    elif workload == "fit_bic_ext":
        cfg = montecarlo.DgpConfig("low_dim", 500)
        for j in range(FIT_POOL):
            data = montecarlo.generate_sample(cfg, _unit_rng(seed, j))
            path = workdir / f"sample-{j}.csv"
            cli.write_sample_csv(data, str(path))
            st.csvs.append(path)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return st


def _unit_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


# ------------------------------------------------------------------ units

def unit_key(st: State, i: int) -> str:
    """Key of unit ``i`` in the reference: its replication or sample index."""
    return str(i % FIT_POOL if st.workload == "fit_bic_ext" else i)


def run_unit(st: State, i: int) -> dict:
    """Run unit ``i``; return its digest, one cell per estimator."""
    if st.workload == "fit_bic_ext":
        return {"fit": _fit_cell(st, i)}
    return mc_replication(st, i)


def noise_controls_sample(rng: np.random.Generator) -> Dataset:
    """x and four controls iid standard normal, y = g(x) + e, h = 0."""
    x = rng.standard_normal(NOISE_N)
    Z = rng.standard_normal((NOISE_N, 4))
    y = montecarlo.g_true(x) + rng.standard_normal(NOISE_N)
    return Dataset(y=y, x=x, Z=Z, h_true=np.zeros(NOISE_N))


def mc_replication(st: State, r: int) -> dict:
    """One replication, as ``run_monte_carlo`` does it for one functional."""
    rng = _unit_rng(st.seed, r)
    if st.dgp is not None:
        data = montecarlo.generate_sample(st.dgp, rng)
    else:
        data = noise_controls_sample(rng)
    fits, failures = selection.comparison_estimators(
        data, st.spec_p, st.spec_q, lasso.LassoConfig(), estimators=st.estimators, rng=rng)
    out = {}
    for name in st.estimators:
        if name in failures:
            out[name] = {"error": failures[name]}
            continue
        fit = fits[name]
        try:
            res = inference.functional_estimate(
                fit, inference.average_derivative(fit.spec_p, data.x))
            reject = inference.rejection_test(res, st.theta)
        except (ValueError, np.linalg.LinAlgError) as exc:
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        out[name] = {"selected": [int(j) for j in fit.selected],
                     "theta_hat": res.theta_hat, "se": res.se, "reject": reject}
    return out


FIT_ARGS = ("fit", "--y", "y", "--x", "x", "--z", "z*", "--k", "bic", "--extended-fs",
            "--q-dict", "tensor", "--functional", "avg_deriv")


def _fit_cell(st: State, i: int) -> dict:
    out_path = st.workdir / f"fit-{i}.txt"
    argv = [*FIT_ARGS, "--input", str(st.csvs[i % FIT_POOL]), "--out", str(out_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0:
        return {"error": f"exit {code}: {stderr.getvalue().strip()}"}
    out_path.unlink()
    return parse_fit_report(stdout.getvalue())


def parse_fit_report(text: str) -> dict:
    """Chosen degree, selected terms, theta_hat and se from ``fit``'s report."""
    k = re.search(r"chosen K: (\d+)", text)
    terms = re.search(r"^selected conditioning terms \(\d+\): (.*)$", text, re.M)
    theta = re.search(r"^theta_hat = (\S+)$", text, re.M)
    se = re.search(r"^se += (\S+)$", text, re.M)
    if not (k and terms and theta and se):
        raise CheckError("fit report lacks the chosen K, the terms, theta_hat or se")
    selected = [] if terms.group(1) == "(none)" else terms.group(1).split(", ")
    return {"k": int(k.group(1)), "selected": selected,
            "theta_hat": float(theta.group(1)), "se": float(se.group(1))}


def run_units(st: State, seconds: float = 0.0, count: int | None = None, trace=None):
    """Closed loop: run ``count`` units, or units until ``seconds`` have passed.

    Returns (digests as (key, cell dict) pairs, per-unit seconds, loop wall).
    """
    digests, times = [], []
    start = time.perf_counter()
    i = 0
    while True:
        if trace is not None:
            trace.unit = i
        t0 = time.perf_counter()
        cells = run_unit(st, i)
        t1 = time.perf_counter()
        digests.append((unit_key(st, i), cells))
        times.append(t1 - t0)
        i += 1
        if (count is not None and i >= count) or (count is None and t1 - start >= seconds):
            return digests, times, t1 - start


# ------------------------------------------------------------------ checks

def load_reference(workload: str):
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_digests(digests, reference: dict | None, rtol: float = RTOL) -> list:
    """Problems found: non-finite or non-positive figures, reference mismatches.

    ``reference`` maps unit keys to cells; keys it lacks are only checked for
    finite figures.
    """
    problems = []
    for key, cells in digests:
        for name, cell in cells.items():
            if "error" in cell:
                continue
            th, se = cell["theta_hat"], cell["se"]
            if not (math.isfinite(th) and math.isfinite(se) and se > 0):
                problems.append(f"unit {key} {name}: theta_hat={th!r} se={se!r}")
        if reference is None or key not in reference:
            continue
        ref = reference[key]
        if set(ref) != set(cells):
            problems.append(f"unit {key}: estimators {sorted(cells)} != reference {sorted(ref)}")
            continue
        for name, cell in cells.items():
            problems += [f"unit {key} {name}: {p}" for p in _compare_cell(cell, ref[name], rtol)]
    return problems


def _compare_cell(cell: dict, ref: dict, rtol: float) -> list:
    if ("error" in cell) != ("error" in ref):
        return [f"{cell.get('error', 'succeeded')} vs reference {ref.get('error', 'succeeded')}"]
    if "error" in cell:
        return []
    out = []
    for field_name in ref:
        got, want = cell.get(field_name), ref[field_name]
        if isinstance(want, float):
            if not (isinstance(got, float) and math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)):
                out.append(f"{field_name} {got!r} vs reference {want!r}")
        elif got != want:
            out.append(f"{field_name} {got!r} vs reference {want!r}")
    return out


def count_failures(digests) -> tuple:
    attempted = sum(len(cells) for _, cells in digests)
    failed = sum("error" in cell for _, cells in digests for cell in cells.values())
    return attempted, failed


# ------------------------------------------------------------------ machine

def machine_facts(loadavg_start) -> dict:
    """Facts that make two results comparable, or show why they are not."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "n_jobs": N_JOBS,
        "l3_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "loadavg_start": loadavg_start,
        "cd_backend": getattr(pdsseries, "BACKEND", None),
    }


def _read_first(path: str):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.readline().strip()
    except OSError:
        return None


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinned setting."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                    and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


# ------------------------------------------------------------------ metrics

def tail_percentile(n: int):
    """Highest whole percentile with at least ``TAIL_BEYOND`` samples beyond it."""
    pct = min(99, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))
    return pct if pct >= 50 else None


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def time_setup_children(workload: str, seed: int) -> list:
    """Wall seconds of set-up in fresh interpreters: import, theta, inputs."""
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--setup-only", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return walls


def setup_only(workload: str, seed: int) -> int:
    """Body of the child process that ``time_setup_children`` times."""
    workdir = make_workdir()
    try:
        setup(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def make_workdir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))


# ------------------------------------------------------------------ runs

def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    loadavg = list(os.getloadavg())
    workdir = make_workdir()
    try:
        if trace:
            result = _traced_run(workload, seed, seconds, workdir)
        else:
            result = _untraced_run(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digests, metrics, lines, extra_problems = result

    reference = None
    if seed == REFERENCE_SEED:
        reference = load_reference(workload)["units"]
    problems = extra_problems + check_digests(digests, reference)
    attempted, failed = count_failures(digests)
    compared = sum(key in reference for key, _ in digests) if reference else 0

    print(f"perfbench workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print("machine " + json.dumps(machine_facts(loadavg), sort_keys=True))
    for line in lines:
        print(line)
    print(f"failure_rate={failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(f"check: {'ok' if not problems else 'FAILED'}; {len(digests)} units, "
          f"{compared} compared with the reference at seed {REFERENCE_SEED}")
    for p in problems[:20]:
        print(f"  check problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


def _untraced_run(workload, seed, seconds, workdir):
    setup_walls = time_setup_children(workload, seed)
    st = setup(workload, seed, workdir)
    digests, times, wall = run_units(st, seconds=seconds)
    n = len(times)
    p50 = statistics.median(times)
    pct = tail_percentile(n)
    tail = nearest_rank(times, pct) if pct is not None else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup_walls)
    what = "fit" if workload == "fit_bic_ext" else "rep"
    tail_text = (f"{what}_s_tail={tail:.6g} (p{pct} of {n} {what}s)" if pct is not None
                 else f"{what}_s_tail=n/a (needs {2 * TAIL_BEYOND} {what}s, got {n})")
    lines = [
        f"setup_s={setup_s:.6g} (median of {SETUP_REPEATS} fresh interpreters: "
        + ", ".join(f"{w:.4g}" for w in setup_walls) + ")",
        f"{what}s_per_s={n / wall:.6g} ({n} {what}s in {wall:.4g} s)",
        f"{what}_s_p50={p50:.6g} of {n} {what}s",
        tail_text,
        f"peak_rss_mb={rss_mb:.6g}",
    ]
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "units_per_s": metric(n / wall, "1/s"),
        "unit_s_p50": metric(p50, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return digests, metrics, lines, []


def _traced_run(workload, seed, seconds, workdir):
    """The same units untraced, then traced, in about ``seconds`` together."""
    count = max(1, int(seconds / 2.0 / NOMINAL_UNIT_S[workload]))
    tr = tracing.Tracer()
    tr.install()
    try:
        t0 = time.perf_counter()
        st = setup(workload, seed, workdir)
        setup_wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    plain, _, plain_wall = run_units(st, count=count)
    tr.install()
    try:
        traced, _, traced_wall = run_units(st, count=count, trace=tr)
    finally:
        tr.uninstall()
    problems = [] if traced == plain else ["traced units differ from the same units untraced"]

    self_s, incl_s = tr.self_times()
    total = setup_wall + traced_wall
    metrics = {}
    lines = [f"traced {len(traced)} units in {traced_wall:.4g} s after set-up of "
             f"{setup_wall:.4g} s; untraced {plain_wall:.4g} s",
             f"{'layer':<40} {'self_s':>10} {'incl_s':>10} {'share':>7}"]
    for _, _, stem in tracing.HOOKS:
        s = self_s.get(stem, 0.0)
        metrics[f"{stem}_s"] = metric(s, "s")
        metrics[f"{stem}_share"] = metric(s / total, "ratio")
        lines.append(f"{stem:<40} {s:>10.4f} {incl_s.get(stem, 0.0):>10.4f} {s / total:>7.3f}")
    fs_incl = incl_s.get("selection.first_stage", 0.0)
    metrics["selection.first_stage_incl_s"] = metric(fs_incl, "s")
    metrics["selection.first_stage_incl_share"] = metric(fs_incl / total, "ratio")
    for name, value in tr.counters().items():
        unit = "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = metric(value, unit)
        lines.append(f"{name:<40} {value:>10.6g}")
    metrics["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
    lines.append(f"trace.overhead_s={traced_wall - plain_wall:.6g}")
    lines.append("missing hooks: " + (", ".join(sorted(tr.missing)) or "none"))

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump(tr.dump(), fh)
    lines.append(f"spans: {len(tr.spans)} written to {span_file.relative_to(ROOT)}")
    return traced, metrics, lines, problems
