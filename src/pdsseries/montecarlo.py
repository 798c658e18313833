"""Simulation designs and the Monte Carlo harness.

Two synthetic designs share the structural curve g(x) = logistic(x) - 1/2
and differ in the confounder:

- ``low_dim``: h(z) = logistic(z_1 + z_2 + z_3 + z_4) - 1/2 with a 4-variate
  Gaussian z, approximated by a tensor Hermite dictionary;
- ``high_dim``: h(z) = sum_j (1/2)^(j-1) z_j with dim(z) = 2n, approximated
  by the raw coordinates.

In both, z has Toeplitz correlation rho^|j-k|, x = h(z) + sigma_v v, and
y = g(x) + h(z) + sigma_eps e with standard normal v and e.
The population values of the functionals are computed by quadrature.

Replications are seeded by spawning one child sequence per replication
index from the base seed (``_replication_seed``, which also seeds the
sample that ``pds-series simulate --dump-sample`` writes), so results do
not depend on worker scheduling. Worker processes are started by
``spawn``, each with BLAS on one thread.

A replication returns one record per (estimator, functional): the
estimate and the test's verdict, or the failure text, that of the fit or
of the functional on it. ``run_monte_carlo`` aggregates the records in one
loop over those pairs; the functionals are built by
``inference.functional_by_name``. The names are not owned here:
``FUNCTIONALS`` is ``inference``'s, re-exported, the estimators are
``selection.ESTIMATORS``, and ``data.check_names`` checks both lists.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _require_whole, check_names
from .dictionary import DictionarySpec
from .inference import FUNCTIONALS, functional_by_name, functional_estimate, rejection_test
from .lasso import normal_quantile
from .selection import (
    ESTIMATORS,
    ESTIMATOR_LABELS,
    FIT_ERRORS,
    comparison_estimators,
    default_degree,
)

__all__ = [
    "DESIGNS",
    "FUNCTIONALS",
    "DgpConfig",
    "McRow",
    "McReport",
    "g_true",
    "g_deriv_true",
    "h_true_low_dim",
    "h_true_high_dim",
    "draw_toeplitz_gaussian",
    "generate_sample",
    "default_specs",
    "true_theta",
    "aggregate_metrics",
    "run_monte_carlo",
]

DESIGNS = ("low_dim", "high_dim")

# Gauss-Hermite order of true_theta: within 2.3e-12 of adaptive quadrature
# at sigma_v = 0 and from 0.3 to 3 (README, "Simulation designs")
_GH_NODES = 300


@dataclass(frozen=True)
class DgpConfig:
    """One simulation design point.

    ``dim_z`` defaults to 4 in the low-dimensional design and 2n in the
    high-dimensional one.
    """

    design: str
    n: int
    sigma_v: float = 1.0
    sigma_eps: float = 1.0
    dim_z: int | None = None
    rho: float = 0.5

    def __post_init__(self) -> None:
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        object.__setattr__(self, "n", _require_whole("n", self.n, 2))
        if not (0.0 <= self.sigma_v < math.inf and 0.0 <= self.sigma_eps < math.inf):
            raise ValueError("noise scales must be finite and nonnegative")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        dim_z = self.dim_z
        if dim_z is None:
            dim_z = 4 if self.design == "low_dim" else 2 * self.n
        object.__setattr__(self, "dim_z", _require_whole("dim_z", dim_z, 1))


def _logistic(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return float(out[0]) if scalar else out


def g_true(x):
    """Structural curve g(x) = logistic(x) - 1/2."""
    return _logistic(x) - 0.5


def g_deriv_true(x):
    """g'(x) = logistic(x) (1 - logistic(x))."""
    p = _logistic(x)
    return p * (1.0 - p)


def h_true_low_dim(Z: np.ndarray) -> np.ndarray:
    return _logistic(np.asarray(Z, dtype=float).sum(axis=1)) - 0.5


def h_true_high_dim(Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=float)
    w = 0.5 ** np.arange(Z.shape[1])
    return Z @ w


def draw_toeplitz_gaussian(n: int, d: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian rows with correlation rho^|j-k|, built by the AR(1) map.

    z_1 = e_1 and z_j = rho z_{j-1} + sqrt(1 - rho^2) e_j gives exactly the
    Toeplitz correlation structure for standard normal e.

    The map runs in place over the draw, so the (n, d) draw is the only
    n x d array: its columns 2..d are scaled by s = sqrt(1 - rho^2) in one
    pass, then each column adds rho times the column before it. Every entry
    has the bits of fl(fl(rho z_{j-1}) + fl(s e_j)), as a column-by-column
    recurrence into a second array gives, and the generator's stream is
    consumed the same way.
    """
    z = rng.standard_normal((n, d))
    np.multiply(z[:, 1:], np.sqrt(1.0 - rho * rho), out=z[:, 1:])
    cols = [z[:, j] for j in range(d)]
    prev = np.empty(n)
    for left, col in zip(cols, cols[1:]):
        np.multiply(left, rho, out=prev)
        np.add(col, prev, out=col)
    return z


def generate_sample(cfg: DgpConfig, rng: np.random.Generator) -> Dataset:
    """Draw one sample from the design."""
    Z = draw_toeplitz_gaussian(cfg.n, cfg.dim_z, cfg.rho, rng)
    h = h_true_low_dim(Z) if cfg.design == "low_dim" else h_true_high_dim(Z)
    v = rng.standard_normal(cfg.n)
    eps = rng.standard_normal(cfg.n)
    x = h + cfg.sigma_v * v
    y = g_true(x) + h + cfg.sigma_eps * eps
    return Dataset(y=y, x=x, Z=Z, h_true=h)


def default_specs(cfg: DgpConfig):
    """Baseline dictionary pair for a design point: K = floor(n^(1/3))."""
    k = default_degree(cfg.n)
    spec_p = DictionarySpec("hermite_univariate", degree=k)
    if cfg.design == "low_dim":
        spec_q = DictionarySpec("hermite_tensor", degree=k, input_dim=cfg.dim_z)
    else:
        spec_q = DictionarySpec("raw_coordinates", input_dim=cfg.dim_z)
    return spec_p, spec_q


def _toeplitz_quad_form(d: int, rho: float, decay: float = 0.5) -> float:
    # w' S w for w_j = decay^(j-1) and S_jk = rho^|j-k|
    w = decay ** np.arange(d)
    total = float(w @ w)
    for lag in range(1, d):
        total += 2.0 * rho**lag * float(w[: d - lag] @ w[lag:])
    return total


def true_theta(cfg: DgpConfig, functional: str) -> float:
    """Population value of the functional under the design, by quadrature.

    x is symmetric about 0 and g is odd, so the quantile contrast is
    2 g(x_0.75). In ``high_dim``, x ~ N(0, w'Sw + sigma_v^2): the average
    derivative is a Gauss-Hermite sum and the quantile is closed form. In
    ``low_dim``, x = h(S) + sigma_v v with S = z_1 + ... + z_d ~ N(0, 1'S1):
    the average derivative is a two-dimensional Gauss-Hermite sum and x_0.75
    solves F(t) = E_S Phi((t - h(S)) / sigma_v) = 3/4 by bisection.
    """
    if functional not in FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}")
    u, w = np.polynomial.hermite_e.hermegauss(_GH_NODES)
    w /= math.sqrt(2.0 * math.pi)
    sv = cfg.sigma_v
    if cfg.design == "high_dim":
        sd_x = math.sqrt(_toeplitz_quad_form(cfg.dim_z, cfg.rho) + sv * sv)
        if functional == "avg_deriv":
            return float(w @ g_deriv_true(sd_x * u))
        return 2.0 * g_true(sd_x * normal_quantile(0.75))
    sd_s = math.sqrt(_toeplitz_quad_form(cfg.dim_z, cfg.rho, decay=1.0))
    h = g_true(sd_s * u)
    if functional == "avg_deriv":
        return float(w @ g_deriv_true(h[:, None] + sv * u) @ w)
    if sv == 0.0:
        return 2.0 * g_true(g_true(sd_s * normal_quantile(0.75)))
    # F(0) = 1/2 and F(1/2 + 10 sigma_v) > Phi(10), so x_0.75 is bracketed
    pairs = list(zip(w.tolist(), h.tolist()))
    scale = 1.0 / (sv * math.sqrt(2.0))
    lo, hi = 0.0, 0.5 + 10.0 * sv
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        cdf = 0.5 * sum(wk * math.erfc((hk - mid) * scale) for wk, hk in pairs)
        lo, hi = (mid, hi) if cdf < 0.75 else (lo, mid)
    return 2.0 * g_true(0.5 * (lo + hi))


@dataclass
class McRow:
    """Aggregated metrics for one (estimator, functional) cell.

    ``failure_reasons`` counts the failed replications by their message,
    ``"Type: message"``; its counts add up to ``failures``.
    """

    estimator: str
    functional: str
    theta_true: float
    med_bias: float
    mad: float
    rp5: float
    n_reps: int
    failures: int
    failure_reasons: dict = field(default_factory=dict)


@dataclass
class McReport:
    """Monte Carlo results for one design point."""

    cfg: DgpConfig
    n_reps: int
    base_seed: int
    estimators: list
    functionals: list
    rows: list = field(default_factory=list)

    CSV_COLUMNS = (
        "design,n,sigma_v,sigma_eps,functional,estimator,"
        "med_bias,mad,rp5,n_reps,failures"
    )

    def to_csv(self) -> str:
        lines = [self.CSV_COLUMNS]
        for row in self.rows:
            lines.append(
                f"{self.cfg.design},{self.cfg.n},{self.cfg.sigma_v:g},"
                f"{self.cfg.sigma_eps:g},{row.functional},{row.estimator},"
                f"{row.med_bias:.10g},{row.mad:.10g},{row.rp5:.10g},"
                f"{row.n_reps},{row.failures}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())

    def to_table(self) -> str:
        """Aligned text table, one row per estimator, one block per functional.

        Under a block with failed replications, one line per estimator and
        reason gives the count and the message.
        """
        by_fn: dict[str, dict[str, McRow]] = {}
        for row in self.rows:
            by_fn.setdefault(row.functional, {})[row.estimator] = row
        width = max(len(ESTIMATOR_LABELS[e]) for e in self.estimators)
        out = [
            f"design={self.cfg.design} n={self.cfg.n} dim_z={self.cfg.dim_z} "
            f"sigma_v={self.cfg.sigma_v:g} sigma_eps={self.cfg.sigma_eps:g} "
            f"reps={self.n_reps} seed={self.base_seed}"
        ]
        for fn in self.functionals:
            rows = by_fn.get(fn, {})
            theta = next(iter(rows.values())).theta_true if rows else float("nan")
            out.append("")
            out.append(f"functional: {fn} (true value {theta:.6f})")
            head = f"{'':<{width}}  {'Med.Bias':>9}  {'MAD':>7}  {'RP(5%)':>7}  {'Fail':>4}"
            out.append(head)
            for est in self.estimators:
                row = rows.get(est)
                label = ESTIMATOR_LABELS[est]
                if row is None:
                    out.append(f"{label:<{width}}  {'--':>9}  {'--':>7}  {'--':>7}  {'--':>4}")
                    continue
                out.append(
                    f"{label:<{width}}  {row.med_bias:>9.3f}  {row.mad:>7.3f}  "
                    f"{row.rp5:>7.3f}  {row.failures:>4d}"
                )
            reasons = [(ESTIMATOR_LABELS[est], count, msg)
                       for est in self.estimators if est in rows
                       for msg, count in rows[est].failure_reasons.items()]
            if reasons:
                out.append("failures:")
                out.extend(f"  {label}: {count} failed with {msg}"
                           for label, count, msg in reasons)
        return "\n".join(out) + "\n"


def aggregate_metrics(theta_hats, rejections, theta_true: float):
    """Median bias, median absolute deviation from truth, rejection rate."""
    th = np.asarray(theta_hats, dtype=float)
    rj = np.asarray(rejections, dtype=bool)
    if th.size == 0:
        return float("nan"), float("nan"), float("nan")
    med_bias = float(np.median(th - theta_true))
    mad = float(np.median(np.abs(th - theta_true)))
    rp5 = float(np.mean(rj))
    return med_bias, mad, rp5


def _replication_seed(base_seed: int, r: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(r,))


def _run_replication(args) -> dict:
    """One replication's records, one per (estimator, functional):
    ``(theta_hat, reject)`` or the failure text ``"Type: message"``."""
    cfg, estimators, functionals, base_seed, r, theta = args
    rng = np.random.default_rng(_replication_seed(base_seed, r))
    data = generate_sample(cfg, rng)
    spec_p, spec_q = default_specs(cfg)
    fits, failures = comparison_estimators(data, spec_p, spec_q, estimators=estimators,
                                           rng=rng)
    out = {(name, fn): why for name, why in failures.items() for fn in functionals}
    for name, fit in fits.items():
        for fn in functionals:
            try:
                res = functional_estimate(fit, functional_by_name(fn, fit.spec_p, data.x))
                out[name, fn] = (res.theta_hat, rejection_test(res, theta[fn]))
            except FIT_ERRORS as exc:
                out[name, fn] = f"{type(exc).__name__}: {exc}"
    return out


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _worker_pool(n_jobs: int):
    """A pool of ``n_jobs`` spawned worker processes, each on one BLAS thread.

    A BLAS library reads its thread count from the environment once, when
    it loads; a forked worker inherits the parent's loaded library, and
    with it as many BLAS threads as cores, which then compete across the
    workers. A spawned worker imports NumPy afresh, so the BLAS variables,
    set to 1 while the pool runs, pin it. The parent's own values, or their
    absence, are restored when the pool closes.

    A spawned worker imports the calling script again; when the script has
    no main guard, that import calls here before the worker has started.
    The pool is then refused at once, by the same test that ``multiprocessing``
    makes when a process is started, but before the pool makes the
    semaphores of its queues, which the ending worker would leak.
    """
    if getattr(multiprocessing.current_process(), "_inheriting", False):
        raise RuntimeError(
            "a spawned worker is re-running the calling script, which needs an "
            'if __name__ == "__main__": guard')
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=n_jobs,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_monte_carlo(cfg: DgpConfig, estimators=None, n_reps: int = 100,
                    base_seed: int = 0, functionals=FUNCTIONALS,
                    n_jobs: int | None = None) -> McReport:
    """Run the replication loop and aggregate.

    ``n_jobs`` defaults to the PDS_THREADS environment variable (1 when
    unset); either must be a positive integer, and a non-integer
    PDS_THREADS or a count below 1 raises ``ValueError``. The worker count
    is capped at ``n_reps``. ``n_reps``, ``n_jobs`` and ``base_seed`` (>= 0)
    are read by ``data._require_whole``, so 1e1 is 10, and a fraction, NaN
    or a string is refused by a ``ValueError`` naming the parameter.
    Records are aggregated in replication order, which ``pool.map`` keeps,
    so the report is identical for any worker count. Two or more workers
    run in spawned processes (``_worker_pool``), so a script that calls
    this with ``n_jobs > 1`` needs an ``if __name__ == "__main__":``
    guard; without one, the workers end early and a ``RuntimeError`` says
    so. ``estimators`` (all nine by default) and
    ``functionals`` are checked by ``data.check_names``: a bare string, an
    empty list, an unknown name or a repeated one is refused. Every fit
    uses the default ``LassoConfig``.
    """
    estimators = check_names(estimators if estimators is not None else ESTIMATORS,
                             ESTIMATORS, "estimator")
    functionals = check_names(functionals, FUNCTIONALS, "functional")
    n_reps = _require_whole("n_reps", n_reps, 1)
    base_seed = _require_whole("base_seed", base_seed, 0)
    if n_jobs is None:
        raw = os.environ.get("PDS_THREADS", "1")
        if not raw.strip().isdecimal() or int(raw) < 1:
            raise ValueError(f"PDS_THREADS must be a positive integer, got {raw!r}")
        n_jobs = int(raw)
    n_jobs = min(_require_whole("n_jobs", n_jobs, 1), n_reps)

    theta = {fn: true_theta(cfg, fn) for fn in functionals}
    tasks = [(cfg, estimators, functionals, base_seed, r, theta) for r in range(n_reps)]
    if n_jobs == 1:
        results = [_run_replication(t) for t in tasks]
    else:
        with _worker_pool(n_jobs) as pool:
            try:
                results = list(pool.map(_run_replication, tasks, chunksize=1))
            except BrokenProcessPool as exc:
                raise RuntimeError(
                    "a worker process ended before returning a result; spawned workers "
                    "re-run the calling script, which needs an "
                    'if __name__ == "__main__": guard') from exc

    report = McReport(cfg=cfg, n_reps=n_reps, base_seed=base_seed,
                      estimators=estimators, functionals=functionals)
    for fn in functionals:
        for est in estimators:
            entries = [rep[est, fn] for rep in results]
            fitted = [e for e in entries if not isinstance(e, str)]
            reasons = Counter(e for e in entries if isinstance(e, str))
            med_bias, mad, rp5 = aggregate_metrics(
                [th for th, _ in fitted], [rj for _, rj in fitted], theta[fn])
            report.rows.append(
                McRow(estimator=est, functional=fn, theta_true=theta[fn],
                      med_bias=med_bias, mad=mad, rp5=rp5,
                      n_reps=len(fitted), failures=sum(reasons.values()),
                      failure_reasons=dict(reasons))
            )
    return report
