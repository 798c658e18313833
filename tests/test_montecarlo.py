"""Simulation designs, the truth oracle, and the replication harness."""

import numpy as np
import pytest

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

# deterministic oracle values at one million draws, pinned once
FROZEN_THETA_1M = {
    ("low_dim", 1.0, "avg_deriv"): 0.2025920418245061,
    ("low_dim", 1.0, "quantile_contrast"): 0.34494672776602947,
    ("low_dim", 2.0, "avg_deriv"): 0.14993271374902095,
    ("low_dim", 2.0, "quantile_contrast"): 0.595317093299948,
    ("high_dim", 1.0, "avg_deriv"): 0.16125732392351588,
    ("high_dim", 1.0, "quantile_contrast"): 0.539882290307582,
    ("high_dim", 2.0, "avg_deriv"): 0.13133548453020258,
    ("high_dim", 2.0, "quantile_contrast"): 0.6864978397301387,
}


class FixedMatrixRng:
    """Stand-in rng whose standard_normal returns a preset matrix."""

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=float)

    def standard_normal(self, size):
        assert tuple(size) == self.mat.shape
        return self.mat


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
    with pytest.raises(ValueError, match="nonnegative"):
        DgpConfig("low_dim", 100, sigma_v=-1.0)
    with pytest.raises(ValueError, match="rho"):
        DgpConfig("low_dim", 100, rho=1.0)
    with pytest.raises(ValueError, match="dim_z"):
        DgpConfig("low_dim", 100, dim_z=0)


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

@pytest.mark.parametrize("design,sv,fn", sorted(FROZEN_THETA_1M))
def test_true_theta_frozen_values(design, sv, fn):
    dim_z = 1000 if design == "high_dim" else None
    cfg = DgpConfig(design, 500, sigma_v=sv, sigma_eps=1.0, dim_z=dim_z)
    got = true_theta(cfg, fn, n_draws=1_000_000)
    assert got == pytest.approx(FROZEN_THETA_1M[(design, sv, fn)], abs=1e-9)


def test_true_theta_ignores_outcome_noise_and_sample_size():
    a = true_theta(DgpConfig("low_dim", 500, sigma_eps=1.0), "avg_deriv",
                   n_draws=200_000)
    b = true_theta(DgpConfig("low_dim", 900, sigma_eps=2.0), "avg_deriv",
                   n_draws=200_000)
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
            fit = pds_fit(P, data.Z[:, S], data.y, np.array(S, dtype=int),
                          spec_p=spec_p)
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


def test_run_monte_carlo_validation():
    cfg = DgpConfig("low_dim", 60)
    with pytest.raises(ValueError, match="unknown estimator"):
        run_monte_carlo(cfg, estimators=("nope",), n_reps=2)
    with pytest.raises(ValueError, match="unknown functional"):
        run_monte_carlo(cfg, estimators=("oracle",), n_reps=2,
                        functionals=("mystery",))
    with pytest.raises(ValueError, match="n_reps"):
        run_monte_carlo(cfg, estimators=("oracle",), n_reps=0)
    assert set(FUNCTIONALS) == {"avg_deriv", "quantile_contrast"}
