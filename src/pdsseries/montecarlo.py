"""Simulation designs and the Monte Carlo harness.

Two synthetic designs share the structural curve g(x) = logistic(x) - 1/2
and differ in the confounder:

- ``low_dim``: h(z) = logistic(z_1 + z_2 + z_3 + z_4) - 1/2 with a 4-variate
  Gaussian z, approximated by a tensor Hermite dictionary;
- ``high_dim``: h(z) = sum_j (1/2)^(j-1) z_j with dim(z) = 2n, approximated
  by the raw coordinates.

In both, z has Toeplitz correlation rho^|j-k|, x = h(z) + sigma_v v, and
y = g(x) + h(z) + sigma_eps e with standard normal v and e.

Replications are seeded by spawning one child sequence per replication
index from the base seed, so results do not depend on worker scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .dictionary import DictionarySpec
from .inference import (
    average_derivative,
    empirical_quantile,
    functional_estimate,
    quantile_contrast,
    rejection_test,
)
from .lasso import LassoConfig
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
FUNCTIONALS = ("avg_deriv", "quantile_contrast")

ORACLE_DRAWS = 10_000_000
ORACLE_SEED = 977_650_301
_ORACLE_CHUNK = 1_000_000

_theta_cache: dict = {}


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
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.sigma_v < 0 or self.sigma_eps < 0:
            raise ValueError("noise scales must be nonnegative")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if self.dim_z is None:
            object.__setattr__(
                self, "dim_z", 4 if self.design == "low_dim" else 2 * self.n
            )
        if self.dim_z < 1:
            raise ValueError("dim_z must be >= 1")


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
    """
    e = rng.standard_normal((n, d))
    out = np.empty_like(e)
    out[:, 0] = e[:, 0]
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, d):
        out[:, j] = rho * out[:, j - 1] + scale * e[:, j]
    return out


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


def _toeplitz_quad_form(d: int, rho: float) -> float:
    # w' S w for w_j = (1/2)^(j-1) and S_jk = rho^|j-k|
    w = 0.5 ** np.arange(d)
    total = float(w @ w)
    for lag in range(1, d):
        total += 2.0 * rho**lag * float(w[: d - lag] @ w[lag:])
    return total


def _oracle_draw_x(cfg: DgpConfig, rng: np.random.Generator, size: int) -> np.ndarray:
    if cfg.design == "low_dim":
        Z = draw_toeplitz_gaussian(size, cfg.dim_z, cfg.rho, rng)
        h = h_true_low_dim(Z)
    else:
        # h(z) is exactly Gaussian here, so x can be drawn directly
        sd_h = np.sqrt(_toeplitz_quad_form(cfg.dim_z, cfg.rho))
        h = sd_h * rng.standard_normal(size)
    return h + cfg.sigma_v * rng.standard_normal(size)


def true_theta(cfg: DgpConfig, functional: str, n_draws: int = ORACLE_DRAWS) -> float:
    """Population value of the functional under the design, by simulation.

    Uses a fixed internal seed and a large draw so the value is a
    deterministic function of the design parameters; results are cached per
    process.
    """
    if functional not in FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}")
    key = (cfg.design, cfg.dim_z, cfg.rho, cfg.sigma_v, functional, n_draws)
    if key in _theta_cache:
        return _theta_cache[key]
    rng = np.random.default_rng(ORACLE_SEED)
    if functional == "avg_deriv":
        total = 0.0
        done = 0
        while done < n_draws:
            size = min(_ORACLE_CHUNK, n_draws - done)
            total += float(g_deriv_true(_oracle_draw_x(cfg, rng, size)).sum())
            done += size
        value = total / n_draws
    else:
        xs = np.empty(n_draws)
        done = 0
        while done < n_draws:
            size = min(_ORACLE_CHUNK, n_draws - done)
            xs[done : done + size] = _oracle_draw_x(cfg, rng, size)
            done += size
        lo = empirical_quantile(xs, 0.25)
        hi = empirical_quantile(xs, 0.75)
        value = float(g_true(hi) - g_true(lo))
    _theta_cache[key] = value
    return value


@dataclass
class McRow:
    """Aggregated metrics for one (estimator, functional) cell."""

    estimator: str
    functional: str
    theta_true: float
    med_bias: float
    mad: float
    rp5: float
    n_reps: int
    failures: int


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
        """Aligned text table, one row per estimator, one block per functional."""
        by_fn: dict[str, dict[str, McRow]] = {}
        for row in self.rows:
            by_fn.setdefault(row.functional, {})[row.estimator] = row
        width = max(len(ESTIMATOR_LABELS.get(e, e)) for e in self.estimators)
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
                label = ESTIMATOR_LABELS.get(est, est)
                if row is None:
                    out.append(f"{label:<{width}}  {'--':>9}  {'--':>7}  {'--':>7}  {'--':>4}")
                    continue
                out.append(
                    f"{label:<{width}}  {row.med_bias:>9.3f}  {row.mad:>7.3f}  "
                    f"{row.rp5:>7.3f}  {row.failures:>4d}"
                )
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


def _run_replication(args):
    cfg, estimators, functionals, base_seed, r, theta, lasso_config = args
    rng = np.random.default_rng(_replication_seed(base_seed, r))
    data = generate_sample(cfg, rng)
    spec_p, spec_q = default_specs(cfg)
    fits, failures = comparison_estimators(
        data, spec_p, spec_q, lasso_config, estimators=estimators, rng=rng
    )
    out: dict = {}
    for name in estimators:
        if name in failures:
            out[name] = {"error": failures[name]}
            continue
        fit = fits[name]
        cell: dict = {}
        for fn in functionals:
            try:
                if fn == "avg_deriv":
                    fspec = average_derivative(fit.spec_p, data.x)
                else:
                    fspec = quantile_contrast(fit.spec_p, data.x)
                res = functional_estimate(fit, fspec)
                reject = rejection_test(res, theta[fn])
                cell[fn] = (res.theta_hat, res.se, reject)
            except FIT_ERRORS as exc:
                cell[fn] = {"error": f"{type(exc).__name__}: {exc}"}
        out[name] = cell
    return r, out


def run_monte_carlo(cfg: DgpConfig, estimators=None, n_reps: int = 100,
                    base_seed: int = 0, functionals=FUNCTIONALS,
                    n_jobs: int | None = None,
                    lasso_config: LassoConfig | None = None) -> McReport:
    """Run the replication loop and aggregate.

    ``n_jobs`` defaults to the PDS_THREADS environment variable (1 when
    unset). Aggregation is keyed by replication index, so the report is
    identical for any worker count.
    """
    estimators = list(estimators) if estimators is not None else list(ESTIMATORS)
    unknown = [e for e in estimators if e not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimator names: {unknown}")
    functionals = list(functionals)
    for fn in functionals:
        if fn not in FUNCTIONALS:
            raise ValueError(f"unknown functional {fn!r}")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if n_jobs is None:
        n_jobs = int(os.environ.get("PDS_THREADS", "1"))
    n_jobs = max(1, min(n_jobs, n_reps))

    lcfg = lasso_config if lasso_config is not None else LassoConfig()
    theta = {fn: true_theta(cfg, fn) for fn in functionals}
    tasks = [(cfg, estimators, functionals, base_seed, r, theta, lcfg)
             for r in range(n_reps)]
    if n_jobs == 1:
        results = [_run_replication(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_run_replication, tasks, chunksize=1))
    results.sort(key=lambda pair: pair[0])

    report = McReport(cfg=cfg, n_reps=n_reps, base_seed=base_seed,
                      estimators=estimators, functionals=functionals)
    for fn in functionals:
        for est in estimators:
            thetas, rejects, failures = [], [], 0
            for _, rep in results:
                cell = rep[est]
                if "error" in cell:
                    failures += 1
                    continue
                entry = cell[fn]
                if isinstance(entry, dict):
                    failures += 1
                    continue
                th, _, rj = entry
                thetas.append(th)
                rejects.append(rj)
            med_bias, mad, rp5 = aggregate_metrics(thetas, rejects, theta[fn])
            report.rows.append(
                McRow(estimator=est, functional=fn, theta_true=theta[fn],
                      med_bias=med_bias, mad=mad, rp5=rp5,
                      n_reps=len(thetas), failures=failures)
            )
    return report
