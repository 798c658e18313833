"""Simulation designs, the truth oracle, and the replication harness."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from _oracles import toeplitz_column_loop
from pdsseries import inference, montecarlo
from pdsseries.dictionary import evaluate_dictionary
from pdsseries.inference import average_derivative, functional_estimate
from pdsseries.montecarlo import (
    DESIGNS,
    FUNCTIONALS,
    DgpConfig,
    _replication_seed,
    aggregate_metrics,
    default_specs,
    draw_toeplitz_gaussian,
    g_deriv_true,
    g_true,
    generate_sample,
    h_true_high_dim,
    h_true_low_dim,
    run_monte_carlo,
    true_theta,
    _toeplitz_quad_form,
)
from pdsseries.selection import pds_fit

# exact population values at the design points of the acceptance tests,
# pinned so that a change to the quadrature shows without scipy installed
FROZEN_THETA = {
    ("high_dim", 1.0, "avg_deriv"): 0.16116990250729918,
    ("high_dim", 1.0, "quantile_contrast"): 0.5408618919600687,
    ("high_dim", 2.0, "avg_deriv"): 0.1312770299475997,
    ("high_dim", 2.0, "quantile_contrast"): 0.6864634487971963,
    ("low_dim", 1.0, "avg_deriv"): 0.2025884768921215,
    ("low_dim", 1.0, "quantile_contrast"): 0.34487225471425154,
    ("low_dim", 2.0, "avg_deriv"): 0.14994487420210184,
    ("low_dim", 2.0, "quantile_contrast"): 0.5951437235688737,
}


class FixedMatrixRng:
    """Stand-in rng whose standard_normal returns a copy of a preset matrix,
    which a draw may then write in place."""

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=float)

    def standard_normal(self, size):
        assert tuple(size) == self.mat.shape
        return self.mat.copy()


# ---------------------------------------------------------------- config

def test_dgp_config_defaults_and_validation():
    low = DgpConfig("low_dim", 500)
    assert low.dim_z == 4
    high = DgpConfig("high_dim", 500)
    assert high.dim_z == 1000
    assert DgpConfig("high_dim", 500, dim_z=40).dim_z == 40
    assert set(DESIGNS) == {"low_dim", "high_dim"}
    with pytest.raises(ValueError, match="unknown design"):
        DgpConfig("medium_dim", 100)
    with pytest.raises(ValueError, match="n must be"):
        DgpConfig("low_dim", 1)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            DgpConfig("low_dim", 100, sigma_v=bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            DgpConfig("low_dim", 100, sigma_eps=bad)
    with pytest.raises(ValueError, match="rho"):
        DgpConfig("low_dim", 100, rho=1.0)
    with pytest.raises(ValueError, match="dim_z"):
        DgpConfig("low_dim", 100, dim_z=0)


@pytest.mark.parametrize("bad", [60.5, 1, 1.0, math.nan, math.inf, "60", None])
def test_dgp_config_n_is_a_whole_number(bad):
    with pytest.raises(ValueError, match="n must be a whole number >= 2, got "):
        DgpConfig("low_dim", bad)


@pytest.mark.parametrize("bad", [4.5, 0, 0.0, math.nan, math.inf, "4"])
def test_dgp_config_dim_z_is_a_whole_number(bad):
    with pytest.raises(ValueError, match="dim_z must be a whole number >= 1, got "):
        DgpConfig("low_dim", 60, dim_z=bad)


def test_whole_float_sizes_draw_the_integer_sample():
    cfg = DgpConfig("high_dim", 60.0, dim_z=7.0)
    assert cfg == DgpConfig("high_dim", 60, dim_z=7)
    assert type(cfg.n) is int and type(cfg.dim_z) is int
    assert DgpConfig("high_dim", 60.0).dim_z == 120
    a = generate_sample(cfg, np.random.default_rng(3))
    b = generate_sample(DgpConfig("high_dim", 60, dim_z=7), np.random.default_rng(3))
    for got, want in zip((a.y, a.x, a.Z), (b.y, b.x, b.Z)):
        assert got.tobytes() == want.tobytes()


def test_default_specs_follow_cube_root():
    cfg = DgpConfig("low_dim", 500)
    spec_p, spec_q = default_specs(cfg)
    assert spec_p.kind == "hermite_univariate" and spec_p.degree == 7
    assert spec_q.kind == "hermite_tensor"
    assert spec_q.degree == 7 and spec_q.input_dim == 4
    cfg = DgpConfig("high_dim", 500, dim_z=100)
    spec_p, spec_q = default_specs(cfg)
    assert spec_p.degree == 7
    assert spec_q.kind == "raw_coordinates" and spec_q.input_dim == 100


# ---------------------------------------------------------------- functions

def test_structural_functions_pointwise():
    assert g_true(0.0) == 0.0
    assert g_deriv_true(0.0) == 0.25
    x = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(g_true(x) + g_true(-x), 0.0, atol=1e-15)
    np.testing.assert_allclose(g_true(x), 1 / (1 + np.exp(-x)) - 0.5, rtol=1e-12)
    p = 1 / (1 + np.exp(-x))
    np.testing.assert_allclose(g_deriv_true(x), p * (1 - p), rtol=1e-12)


def test_h_true_components(rng):
    Z = rng.standard_normal((9, 4))
    s = Z.sum(axis=1)
    np.testing.assert_allclose(h_true_low_dim(Z),
                               1 / (1 + np.exp(-s)) - 0.5, rtol=1e-12)
    Z6 = rng.standard_normal((9, 6))
    want = sum(0.5**j * Z6[:, j] for j in range(6))
    np.testing.assert_allclose(h_true_high_dim(Z6), want, rtol=1e-12)


# ---------------------------------------------------------------- z draws

def test_ar1_map_induces_exact_toeplitz_covariance():
    for d, rho in [(5, 0.5), (8, -0.3), (3, 0.9)]:
        M = draw_toeplitz_gaussian(d, d, rho, FixedMatrixRng(np.eye(d)))
        S = rho ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        assert np.abs(M.T @ M - S).max() < 1e-12


def test_in_place_draw_matches_the_column_recurrence():
    # the same bits as the former column-by-column draw into a second
    # array, and the generator left where that draw left it
    for k, (n, d, rho) in enumerate(itertools.product(
            (1, 3, 500), (1, 2, 1000), (0.0, 0.5, -0.3, 0.9))):
        got_rng, want_rng = np.random.default_rng(k), np.random.default_rng(k)
        got = draw_toeplitz_gaussian(n, d, rho, got_rng)
        want = toeplitz_column_loop(n, d, rho, want_rng)
        assert got.shape == (n, d) and np.array_equal(got, want), (n, d, rho)
        assert np.array_equal(got_rng.standard_normal(3), want_rng.standard_normal(3))


def test_high_dim_sample_holds_one_draw_sized_block():
    # the AR(1) map runs in place over the draw: no second n x d array
    cfg = DgpConfig("high_dim", 500)
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        data = generate_sample(cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.Z.shape == (500, 1000)
    assert peak < 1.2 * cfg.n * cfg.dim_z * 8


def test_toeplitz_quad_form_matches_direct():
    d, rho = 50, 0.5
    w = 0.5 ** np.arange(d)
    S = rho ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    assert _toeplitz_quad_form(d, rho) == pytest.approx(w @ S @ w, abs=1e-12)
    # geometric limit for the high-dimensional weights
    assert _toeplitz_quad_form(2000, 0.5) == pytest.approx(20.0 / 9.0, abs=1e-9)


def test_generate_sample_structure():
    cfg = DgpConfig("low_dim", 5000, sigma_v=2.0, sigma_eps=1.5)
    rng = np.random.default_rng(77)
    d = generate_sample(cfg, rng)
    assert d.n == 5000 and d.Z.shape == (5000, 4)
    np.testing.assert_allclose(d.h_true, h_true_low_dim(d.Z), rtol=1e-12)
    v = d.x - d.h_true
    assert d.x.std() == pytest.approx(np.sqrt(d.h_true.var() + 4.0), rel=0.05)
    assert v.std() == pytest.approx(2.0, rel=0.05)
    eps = d.y - g_true(d.x) - d.h_true
    assert eps.std() == pytest.approx(1.5, rel=0.05)
    assert abs(np.corrcoef(d.Z[:, 0], d.Z[:, 1])[0, 1] - 0.5) < 0.05
    assert abs(np.corrcoef(d.Z[:, 0], d.Z[:, 3])[0, 1] - 0.125) < 0.05


def test_generate_sample_high_dim_structure():
    cfg = DgpConfig("high_dim", 400)
    d = generate_sample(cfg, np.random.default_rng(3))
    assert d.Z.shape == (400, 800)
    np.testing.assert_allclose(d.h_true, h_true_high_dim(d.Z), rtol=1e-12)


def test_generate_sample_reproducible():
    cfg = DgpConfig("low_dim", 50)
    a = generate_sample(cfg, np.random.default_rng(5))
    b = generate_sample(cfg, np.random.default_rng(5))
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.Z, b.Z)


# ---------------------------------------------------------------- truth

@pytest.mark.parametrize("design,sv,fn", sorted(FROZEN_THETA))
def test_true_theta_frozen_values(design, sv, fn):
    dim_z = 1000 if design == "high_dim" else None
    cfg = DgpConfig(design, 500, sigma_v=sv, sigma_eps=1.0, dim_z=dim_z)
    assert true_theta(cfg, fn) == pytest.approx(FROZEN_THETA[(design, sv, fn)], abs=1e-12)


def _logistic_half(t):
    return math.copysign(0.5 * math.tanh(0.5 * abs(t)), t)


def _logistic_density(t):
    return 0.25 / math.cosh(0.5 * t) ** 2


def _normal_density(t, sd=1.0):
    return math.exp(-0.5 * (t / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def _scipy_theta(cfg, fn):
    """The population value by adaptive quadrature and root finding."""
    integrate = pytest.importorskip("scipy.integrate")
    optimize = pytest.importorskip("scipy.optimize")
    stats = pytest.importorskip("scipy.stats")
    g, dg, dens = _logistic_half, _logistic_density, _normal_density
    tol = dict(epsabs=1e-13, epsrel=1e-13)
    idx = np.arange(cfg.dim_z)
    cov = cfg.rho ** np.abs(np.subtract.outer(idx, idx))
    sv = cfg.sigma_v
    q75 = stats.norm.ppf(0.75)
    if cfg.design == "high_dim":
        w = 0.5 ** idx
        sd = math.sqrt(w @ cov @ w + sv**2)
        if fn == "quantile_contrast":
            return 2.0 * g(sd * q75)
        return integrate.quad(lambda x: dg(x) * dens(x, sd), -12 * sd, 12 * sd,
                              limit=200, **tol)[0]
    # low_dim: x = h(S) + sigma_v v with S the sum of the z's
    sd = math.sqrt(cov.sum())
    if fn == "quantile_contrast":
        if sv == 0.0:
            return 2.0 * g(g(sd * q75))
        cdf = lambda t: integrate.quad(
            lambda s: 0.5 * math.erfc((g(s) - t) / (sv * math.sqrt(2.0))) * dens(s, sd),
            -12 * sd, 12 * sd, limit=200, **tol)[0]
        root = optimize.brentq(lambda t: cdf(t) - 0.75, 0.0, 0.5 + 10 * sv,
                               xtol=1e-15, rtol=1e-15)
        return 2.0 * g(root)
    if sv == 0.0:
        return integrate.quad(lambda s: dg(g(s)) * dens(s, sd), -12 * sd, 12 * sd,
                              limit=200, **tol)[0]
    return integrate.dblquad(lambda v, s: dg(g(s) + sv * v) * dens(v) * dens(s, sd),
                             -12 * sd, 12 * sd, -12.0, 12.0, **tol)[0]


@pytest.mark.parametrize("sv", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("fn", FUNCTIONALS)
@pytest.mark.parametrize("design", DESIGNS)
def test_true_theta_matches_scipy_integrate(design, fn, sv):
    cfg = DgpConfig(design, 500, sigma_v=sv)
    assert true_theta(cfg, fn) == pytest.approx(_scipy_theta(cfg, fn), abs=1e-10)


def test_true_theta_ignores_outcome_noise_and_sample_size():
    a = true_theta(DgpConfig("low_dim", 500, sigma_eps=1.0), "avg_deriv")
    b = true_theta(DgpConfig("low_dim", 900, sigma_eps=2.0), "avg_deriv")
    assert a == b
    with pytest.raises(ValueError, match="unknown functional"):
        true_theta(DgpConfig("low_dim", 100), "median_deriv")


# ---------------------------------------------------------------- omitted controls

def omitted_control_slope(cfg, S):
    """Slope b_S of E[h | x, z_S] in x for the high-dimensional design.

    h, z and v are jointly Gaussian with x = h + sigma_v v, so with
    V = Var(h | z_S) the conditional mean is linear with slope
    V / (V + sigma_v^2). OLS of y on [1, p(x), z_S] therefore picks up b_S
    in the linear term of p and the average derivative is biased by b_S,
    which lies in [0, b_empty] for every control set.
    """
    S = np.asarray(S, dtype=int)
    var_h = _toeplitz_quad_form(cfg.dim_z, cfg.rho)
    if S.size:
        w = 0.5 ** np.arange(cfg.dim_z)
        cov_hz = w @ cfg.rho ** np.abs(np.subtract.outer(np.arange(cfg.dim_z), S))
        cov_zz = cfg.rho ** np.abs(np.subtract.outer(S, S))
        var_h -= cov_hz @ np.linalg.solve(cov_zz, cov_hz)
    return var_h / (var_h + cfg.sigma_v**2)


def test_omitted_control_bias_is_closed_form_and_nonnegative():
    cfg = DgpConfig("high_dim", 500, sigma_eps=2.0)
    sets = ([], [0], [0, 1])
    b = [omitted_control_slope(cfg, S) for S in sets]
    # Var(h) = 20/9 and sigma_v = 1, so b_empty = (20/9) / (29/9)
    assert b[0] == pytest.approx((20.0 / 9.0) / (29.0 / 9.0), abs=1e-12)
    assert all(0.0 <= b_s <= b[0] for b_s in b)
    spec_p, _ = default_specs(cfg)
    theta = true_theta(cfg, "avg_deriv")
    n_reps = 100
    bias = np.empty((len(sets), n_reps))
    for r in range(n_reps):
        data = generate_sample(cfg, np.random.default_rng(_replication_seed(0, r)))
        P = evaluate_dictionary(spec_p, data.x)
        functional = average_derivative(spec_p, data.x)
        for i, S in enumerate(sets):
            fit = pds_fit(P, data.Z, data.y, np.array(S, dtype=int), spec_p=spec_p)
            bias[i, r] = functional_estimate(fit, functional).theta_hat - theta
    # three standard errors of a sample median, 1.2533 sd / sqrt(R) under
    # normality: about 0.02-0.03 here, while the b_S differ by >= 0.2
    tol = 3.0 * 1.2533 * bias.std(axis=1) / np.sqrt(n_reps)
    np.testing.assert_array_less(np.abs(np.median(bias, axis=1) - b), tol)


# ---------------------------------------------------------------- metrics

def test_aggregate_metrics_hand_example():
    med, mad, rp5 = aggregate_metrics([1.0, 2.0, 4.0], [True, False, True], 2.0)
    assert med == 0.0
    assert mad == 1.0
    assert rp5 == pytest.approx(2.0 / 3.0)
    med, mad, rp5 = aggregate_metrics([], [], 1.0)
    assert np.isnan(med) and np.isnan(mad) and np.isnan(rp5)


# ---------------------------------------------------------------- harness

@pytest.fixture(scope="module")
def tiny_report():
    cfg = DgpConfig("low_dim", 80)
    return run_monte_carlo(cfg, estimators=("post_double", "oracle"),
                           n_reps=4, base_seed=123,
                           functionals=("avg_deriv",))


def test_run_monte_carlo_report_shape(tiny_report):
    rep = tiny_report
    assert rep.n_reps == 4 and rep.base_seed == 123
    assert [r.estimator for r in rep.rows] == ["post_double", "oracle"]
    for row in rep.rows:
        assert row.functional == "avg_deriv"
        assert row.n_reps == 4 and row.failures == 0
        assert np.isfinite(row.med_bias) and row.mad >= 0 and 0 <= row.rp5 <= 1
        assert row.theta_true == pytest.approx(0.2026, abs=0.002)


def test_run_monte_carlo_deterministic_and_parallel_invariant(tiny_report):
    cfg = DgpConfig("low_dim", 80)
    again = run_monte_carlo(cfg, estimators=("post_double", "oracle"),
                            n_reps=4, base_seed=123,
                            functionals=("avg_deriv",))
    assert again.to_csv() == tiny_report.to_csv()
    par = run_monte_carlo(cfg, estimators=("post_double", "oracle"),
                          n_reps=4, base_seed=123,
                          functionals=("avg_deriv",), n_jobs=2)
    assert par.to_csv() == tiny_report.to_csv()
    other_seed = run_monte_carlo(cfg, estimators=("post_double",),
                                 n_reps=4, base_seed=124,
                                 functionals=("avg_deriv",))
    assert other_seed.to_csv() != tiny_report.to_csv()
    # all nine estimators on high_dim, where a worker's fits carry the most
    # controls: the spawned workers' CSV is the serial one, byte for byte
    high = DgpConfig("high_dim", 200)
    serial, pooled = (run_monte_carlo(high, n_reps=4, base_seed=7, n_jobs=w) for w in (1, 2))
    assert serial.to_csv().encode() == pooled.to_csv().encode()


def test_pool_workers_run_blas_on_one_thread_and_the_environment_is_restored(monkeypatch):
    blas = montecarlo._BLAS_THREAD_VARS
    assert set(blas) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "")
    before = {var: os.environ.get(var) for var in blas}
    with montecarlo._worker_pool(2) as pool:
        # os.getenv runs in a worker, on the environment it was spawned with
        assert list(pool.map(os.getenv, blas, timeout=120)) == ["1", "1", "1"]
        assert pool._mp_context.get_start_method() == "spawn"
    assert {var: os.environ.get(var) for var in blas} == before
    # restored when the pool's work raises, too
    with pytest.raises(ZeroDivisionError):
        with montecarlo._worker_pool(1):
            1 / 0
    assert {var: os.environ.get(var) for var in blas} == before


def test_csv_schema_and_formatting(tiny_report, tmp_path):
    text = tiny_report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ("design,n,sigma_v,sigma_eps,functional,estimator,"
                        "med_bias,mad,rp5,n_reps,failures")
    assert len(lines) == 1 + len(tiny_report.rows)
    first = lines[1].split(",")
    assert first[:6] == ["low_dim", "80", "1", "1", "avg_deriv", "post_double"]
    assert first[6] == f"{tiny_report.rows[0].med_bias:.10g}"
    assert first[9:] == ["4", "0"]
    out = tmp_path / "rep.csv"
    tiny_report.write_csv(out)
    assert out.read_text() == text


def test_to_table_header_and_labels(tiny_report):
    table = tiny_report.to_table()
    head = table.splitlines()[0]
    for token in ("design=low_dim", "n=80", "dim_z=4", "sigma_v=1",
                  "sigma_eps=1", "reps=4", "seed=123"):
        assert token in head
    assert "Post-Double" in table and "Oracle" in table


def test_the_table_names_each_failure_reason_and_its_count(monkeypatch, tiny_report):
    assert "failures:" not in tiny_report.to_table()
    # every other replication draws a constant x, which every estimator refuses
    real = montecarlo.generate_sample
    draws = []

    def constant_x_every_other_draw(cfg, rng):
        data = real(cfg, rng)
        draws.append(data)
        if len(draws) % 2 == 0:
            data.x = np.full(data.n, 0.5)
        return data

    monkeypatch.setattr(montecarlo, "generate_sample", constant_x_every_other_draw)
    report = run_monte_carlo(DgpConfig("low_dim", 80), estimators=("post_double", "oracle"),
                             n_reps=4, base_seed=123, functionals=("avg_deriv",))
    reason = "DegenerateColumnError: P column 0 has zero variance on this sample"
    for row in report.rows:
        assert (row.n_reps, row.failures) == (2, 2)
        assert row.failure_reasons == {reason: 2}
    assert report.to_csv().splitlines()[1].endswith(",2,2")
    lines = report.to_table().splitlines()
    at = lines.index("failures:")
    assert lines[at + 1:] == [f"  Post-Double: 2 failed with {reason}",
                              f"  Oracle: 2 failed with {reason}"]


def test_a_failed_functional_is_counted_apart_from_its_fit(monkeypatch, tiny_report):
    # quantile_contrast fails on every replication while every fit, and
    # avg_deriv on it, succeeds
    def refuse(spec_p, x):
        raise ValueError("no quartiles here")

    monkeypatch.setattr(inference, "quantile_contrast", refuse)
    report = run_monte_carlo(DgpConfig("low_dim", 80), estimators=("post_double", "oracle"),
                             n_reps=4, base_seed=123,
                             functionals=("avg_deriv", "quantile_contrast"))
    rows = {(r.functional, r.estimator): r for r in report.rows}
    for est in ("post_double", "oracle"):
        failed = rows["quantile_contrast", est]
        assert (failed.n_reps, failed.failures) == (0, 4)
        assert failed.failure_reasons == {"ValueError: no quartiles here": 4}
        assert math.isnan(failed.med_bias)
    # the avg_deriv rows are those of the run without the failing functional
    assert [rows["avg_deriv", est] for est in ("post_double", "oracle")] == tiny_report.rows


@pytest.mark.parametrize("kwargs,name", [
    ({"estimators": ("oracle", "oracle")}, "oracle"),
    ({"estimators": ("oracle", "post_double", "oracle")}, "oracle"),
    ({"estimators": ("oracle",), "functionals": ("avg_deriv", "avg_deriv")}, "avg_deriv"),
])
def test_run_monte_carlo_refuses_a_repeated_name(kwargs, name):
    with pytest.raises(ValueError, match=f"repeated .* names: \\['{name}'\\]"):
        run_monte_carlo(DgpConfig("low_dim", 60), n_reps=2, **kwargs)


UNGUARDED_SCRIPT = """\
from pdsseries.montecarlo import DgpConfig, run_monte_carlo

run_monte_carlo(DgpConfig("low_dim", 60), estimators=["oracle"], n_reps=2, n_jobs=2)
"""


def test_a_script_without_a_main_guard_gets_a_named_error(tmp_path):
    # the two spawned workers re-run the script, whose pool refuses to start
    # while they are still importing it, so each ends before its first task,
    # and the parent's error is the last line
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_SCRIPT, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("RuntimeError: a worker process ended before returning a result")
    assert 'if __name__ == "__main__": guard' in last
    # each worker refuses its pool before making a semaphore, so none leaks
    assert "RuntimeError: a spawned worker is re-running the calling script" in proc.stderr
    assert "leaked semaphore" not in proc.stderr


def test_run_monte_carlo_validation():
    cfg = DgpConfig("low_dim", 60)
    with pytest.raises(ValueError, match="unknown estimator"):
        run_monte_carlo(cfg, estimators=("nope",), n_reps=2)
    with pytest.raises(ValueError, match="unknown functional"):
        run_monte_carlo(cfg, estimators=("oracle",), n_reps=2,
                        functionals=("mystery",))
    with pytest.raises(ValueError, match="n_reps"):
        run_monte_carlo(cfg, estimators=("oracle",), n_reps=0)
    with pytest.raises(ValueError, match="at least one estimator"):
        run_monte_carlo(cfg, estimators=(), n_reps=2)
    with pytest.raises(ValueError, match="at least one functional"):
        run_monte_carlo(cfg, estimators=("oracle",), n_reps=2, functionals=())
    assert set(FUNCTIONALS) == {"avg_deriv", "quantile_contrast"}


@pytest.mark.parametrize("value", ["two", "1.5", "", "0", "-2"])
def test_run_monte_carlo_rejects_a_bad_pds_threads(monkeypatch, value):
    monkeypatch.setenv("PDS_THREADS", value)
    with pytest.raises(ValueError, match="PDS_THREADS must be a positive integer"):
        run_monte_carlo(DgpConfig("low_dim", 60), estimators=("oracle",), n_reps=2)


@pytest.mark.parametrize("name, value", [
    ("n_reps", 2.5), ("n_reps", math.nan), ("n_reps", "2"), ("n_jobs", 1.5),
    ("n_jobs", math.inf), ("base_seed", 1.5), ("base_seed", -1),
])
def test_run_monte_carlo_counts_are_whole_numbers(name, value):
    kwargs = {"n_reps": 2, name: value}
    with pytest.raises(ValueError, match=f"{name} must be a whole number >= [01], got "):
        run_monte_carlo(DgpConfig("low_dim", 60), estimators=("oracle",), **kwargs)


def test_run_monte_carlo_reads_whole_floats_as_integers():
    cfg = DgpConfig("low_dim", 60)
    got = run_monte_carlo(cfg, estimators=("oracle",), n_reps=2.0, base_seed=1e1, n_jobs=1.0)
    want = run_monte_carlo(cfg, estimators=("oracle",), n_reps=2, base_seed=10, n_jobs=1)
    assert type(got.n_reps) is int and type(got.base_seed) is int
    assert got.to_csv() == want.to_csv() and got.to_table() == want.to_table()


def test_run_monte_carlo_rejects_n_jobs_below_one(monkeypatch):
    monkeypatch.setenv("PDS_THREADS", "nonsense")  # ignored when n_jobs is given
    cfg = DgpConfig("low_dim", 60)
    for n_jobs in (0, -1):
        with pytest.raises(ValueError, match="n_jobs must be a whole number >= 1, got "):
            run_monte_carlo(cfg, estimators=("oracle",), n_reps=2, n_jobs=n_jobs)
    rep = run_monte_carlo(cfg, estimators=("oracle",), n_reps=2,
                          functionals=("avg_deriv",), n_jobs=1)
    assert rep.n_reps == 2
