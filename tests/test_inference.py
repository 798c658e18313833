"""Functionals of g and the sandwich variance."""

import numpy as np
import pytest

from _oracles import residualize_p
from pdsseries.dictionary import DictionarySpec, hermite_design
from pdsseries.inference import (
    Z_CRITICAL,
    SingularOmegaError,
    average_derivative,
    empirical_quantile,
    functional_by_name,
    functional_estimate,
    point_eval,
    quantile_contrast,
    rejection_test,
    sandwich_variance,
)
from pdsseries.montecarlo import DgpConfig, generate_sample
from pdsseries.selection import pds_fit


def small_sample(seed=0, n=120, k=3, n_q=2, y_shift=0.0):
    """(P, Q, y, x): a Hermite g dictionary, controls and outcome."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    P = hermite_design(x, k)
    Q = rng.standard_normal((n, n_q))
    y = x - 0.2 * (x**2 - 1) + Q @ np.arange(1.0, n_q + 1) \
        + rng.standard_normal(n) + y_shift
    return P, Q, y, x


def small_fit(seed=0, n=120, k=3, n_q=2, y_shift=0.0):
    P, Q, y, x = small_sample(seed, n, k, n_q, y_shift)
    fit = pds_fit(P, Q, y, np.arange(n_q),
                  spec_p=DictionarySpec("hermite_univariate", degree=k))
    return fit, x


# ---------------------------------------------------------------- quantile

def test_empirical_quantile_order_statistics():
    x = np.array([30.0, 10.0, 40.0, 20.0])
    assert empirical_quantile(x, 0.25) == 10.0    # ceil(1) -> x_(1)
    assert empirical_quantile(x, 0.26) == 20.0    # ceil(1.04) -> x_(2)
    assert empirical_quantile(x, 0.5) == 20.0     # no interpolation
    assert empirical_quantile(x, 0.75) == 30.0
    assert empirical_quantile(x, 1.0) == 40.0
    assert empirical_quantile(np.array([5.0]), 0.01) == 5.0


def test_empirical_quantile_validation():
    with pytest.raises(ValueError, match="empty"):
        empirical_quantile(np.array([]), 0.5)
    for q in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="lie in"):
            empirical_quantile(np.arange(4.0), q)


# ---------------------------------------------------------------- loadings

def test_average_derivative_loadings(rng):
    x = rng.standard_normal(200)
    spec = DictionarySpec("hermite_univariate", degree=4)
    f = average_derivative(spec, x)
    # A_k = mean He_k'(x) = k * mean He_{k-1}(x)
    want = [np.mean(1.0 + 0 * x),
            np.mean(2.0 * x),
            np.mean(3.0 * (x**2 - 1)),
            np.mean(4.0 * (x**3 - 3 * x))]
    np.testing.assert_allclose(f, want, rtol=1e-12)
    with pytest.raises(ValueError, match="univariate"):
        average_derivative(DictionarySpec("raw_coordinates", input_dim=2), x)


def test_quantile_contrast_loadings(rng):
    x = rng.standard_normal(101)
    spec = DictionarySpec("hermite_univariate", degree=3)
    f = quantile_contrast(spec, x)
    lo = empirical_quantile(x, 0.25)
    hi = empirical_quantile(x, 0.75)
    want = hermite_design(np.array([hi]), 3)[0] - hermite_design(np.array([lo]), 3)[0]
    np.testing.assert_allclose(f, want, rtol=1e-12)


def test_point_eval_loadings():
    spec = DictionarySpec("hermite_univariate", degree=3)
    f = point_eval(spec, 2.0)
    np.testing.assert_allclose(f, [2.0, 3.0, 2.0], rtol=1e-12)


@pytest.mark.parametrize("name,make", [
    ("avg_deriv", average_derivative),
    ("quantile_contrast", quantile_contrast),
    ("point:0.5", lambda spec, x: point_eval(spec, 0.5)),
    ("point:-1.25e0", lambda spec, x: point_eval(spec, -1.25)),
])
def test_a_functional_by_name_has_the_loadings_of_its_function(rng, name, make):
    spec = DictionarySpec("hermite_univariate", degree=5)
    x = rng.standard_normal(77)
    got, want = functional_by_name(name, spec, x), make(spec, x)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["avg_deriv", "quantile_contrast", "point:0.5"])
def test_a_functional_is_its_loadings(name):
    fit, x = small_fit(seed=2)
    A = functional_by_name(name, fit.spec_p, x)
    assert type(A) is np.ndarray and A.shape == fit.beta_hat.shape
    res = functional_estimate(fit, A)
    assert res.theta_hat == float(A @ fit.beta_hat)


@pytest.mark.parametrize("name", ["mystery", "avg-deriv", "point", ""])
def test_an_unknown_functional_name_is_refused(name):
    with pytest.raises(ValueError, match="unknown functional"):
        functional_by_name(name, DictionarySpec("hermite_univariate", degree=3), np.zeros(5))


def test_avg_deriv_matches_finite_difference_of_g_hat():
    fit, x = small_fit(seed=3)
    f = average_derivative(fit.spec_p, x)
    theta = float(f @ fit.beta_hat)
    h = 1e-6
    fd = (fit.predict_g(x + h) - fit.predict_g(x - h)) / (2 * h)
    assert theta == pytest.approx(float(fd.mean()), abs=1e-6)


# ---------------------------------------------------------------- residualize
# The final OLS residualizes the g dictionary on [1, retained controls] and
# keeps the result as ``P_resid``; the oracle is the former separate step.

def test_residualize_p_orthogonality(rng):
    n = 80
    P = rng.standard_normal((n, 3))
    Q = rng.standard_normal((n, 2))
    U = pds_fit(P, Q, rng.standard_normal(n), np.arange(2)).P_resid
    assert U.shape == P.shape
    np.testing.assert_allclose(U.sum(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(Q.T @ U, 0.0, atol=1e-8)
    np.testing.assert_allclose(U, residualize_p(P, Q), rtol=1e-12, atol=1e-12)


def test_residualize_p_empty_controls_demeans(rng):
    P = rng.standard_normal((50, 2)) + 5.0
    U = pds_fit(P, np.empty((50, 0)), rng.standard_normal(50),
                np.array([], dtype=int)).P_resid
    np.testing.assert_allclose(U, P - P.mean(axis=0), atol=1e-10)


def test_final_ols_is_the_joint_regression():
    # Frisch-Waugh-Lovell: the fit is OLS of y on [1, P, Q] in one piece
    for seed in range(5):
        P, Q, y, _ = small_sample(seed=seed, n_q=4)
        fit = pds_fit(P, Q, y, np.arange(4))
        X = np.concatenate([np.ones((P.shape[0], 1)), P, Q], axis=1)
        coef = np.linalg.lstsq(X, y, rcond=None)[0]
        np.testing.assert_allclose(fit.beta_hat, coef[1:4], rtol=1e-10)
        np.testing.assert_allclose(fit.eta_hat, np.r_[coef[:1], coef[4:]], rtol=1e-10)
        np.testing.assert_allclose(fit.residuals, y - X @ coef, atol=1e-10)
        assert not fit.rank_deficient


def test_g_column_in_the_span_of_the_controls_is_singular(rng):
    n = 100
    x = rng.standard_normal(n)
    P = hermite_design(x, 3)
    Q = np.column_stack([rng.standard_normal(n), 2.0 * P[:, 1] - 0.5])
    y = x + Q[:, 0] + rng.standard_normal(n)
    fit = pds_fit(P, Q, y, np.arange(2),
                  spec_p=DictionarySpec("hermite_univariate", degree=3))
    assert fit.rank_deficient
    assert np.all(np.isfinite(fit.beta_hat)) and np.all(np.isfinite(fit.eta_hat))
    np.testing.assert_allclose(fit.P_resid[:, 1], 0.0, atol=1e-10)
    with pytest.raises(SingularOmegaError, match="singular"):
        functional_estimate(fit, average_derivative(fit.spec_p, x))


@pytest.mark.parametrize("design", ["low_dim", "high_dim"])
def test_high_degrees_at_unit_scale_give_a_finite_se(design):
    # He_k's scale grows like sqrt(k!), but these fits are not singular: the
    # sandwich reads each column in units of its raw RMS. V_hat agrees with
    # U (U'U)^-1 A formed from a QR of those columns, with no Omega at all,
    # to the accuracy that Omega's condition number (up to 1e11 here) allows
    cfg = DgpConfig(design, 500)
    for seed in range(3):
        data = generate_sample(cfg, np.random.default_rng(seed))
        for k in (12, 13, 15):
            spec = DictionarySpec("hermite_univariate", degree=k)
            fit = pds_fit(hermite_design(data.x, k), data.Z[:, :4], data.y,
                          np.arange(4), spec_p=spec)
            A = average_derivative(spec, data.x)
            res = functional_estimate(fit, A)
            assert np.isfinite(res.se) and res.se > 0
            Qf, R = np.linalg.qr(fit.P_resid / fit.p_rms)
            z = fit.n * (Qf @ np.linalg.solve(R.T, A / fit.p_rms))
            assert res.V_hat == pytest.approx(np.mean(z**2 * fit.residuals**2), rel=1e-4)


def test_the_rms_scaling_leaves_the_variance_as_it_is():
    for seed in range(5):
        fit, x = small_fit(seed=seed, k=5)
        A = average_derivative(fit.spec_p, x)
        res = functional_estimate(fit, A)
        v_raw, _, _ = sandwich_variance(fit.P_resid, fit.residuals, A)
        assert res.V_hat == pytest.approx(v_raw, rel=1e-12)
        np.testing.assert_allclose(fit.p_rms, np.sqrt(np.mean(hermite_design(x, 5) ** 2,
                                                              axis=0)), rtol=1e-15)


def test_a_duplicated_or_zero_g_column_is_singular(rng):
    n = 100
    x = rng.standard_normal(n)
    Q = rng.standard_normal((n, 2))
    y = x + Q[:, 0] + rng.standard_normal(n)
    A = np.ones(4)
    P = hermite_design(x, 3)
    dup = pds_fit(np.column_stack([P, P[:, 1]]), Q, y, np.arange(2))
    assert dup.rank_deficient
    with pytest.raises(SingularOmegaError, match="smallest eigenvalue"):
        functional_estimate(dup, A)
    zero = pds_fit(np.column_stack([P, np.zeros(n)]), Q, y, np.arange(2))
    with pytest.raises(SingularOmegaError, match="g column 3 is zero"):
        functional_estimate(zero, A)


def test_near_collinear_g_column_and_control(rng):
    # a control that nearly copies a g column: a full-rank fit whose
    # residualized column is small but kept, and which matches the joint OLS
    n = 200
    x = rng.standard_normal(n)
    P = hermite_design(x, 3)
    Q = np.column_stack([P[:, 0] + 1e-5 * rng.standard_normal(n),
                         rng.standard_normal(n)])
    y = x - 0.2 * P[:, 1] + Q[:, 1] + rng.standard_normal(n)
    fit = pds_fit(P, Q, y, np.arange(2),
                  spec_p=DictionarySpec("hermite_univariate", degree=3))
    assert not fit.rank_deficient
    X = np.concatenate([np.ones((n, 1)), P, Q], axis=1)
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    np.testing.assert_allclose(fit.beta_hat, coef[1:4], rtol=1e-6)
    np.testing.assert_allclose(fit.residuals, y - X @ coef, atol=1e-8)
    np.testing.assert_allclose(fit.P_resid, residualize_p(P, Q), rtol=1e-6, atol=1e-12)
    assert 0.0 < np.linalg.norm(fit.P_resid[:, 0]) < 1e-3 * np.sqrt(n)
    res = functional_estimate(fit, average_derivative(fit.spec_p, x))
    assert np.isfinite(res.se) and res.se > 0


def test_functional_estimate_runs_no_least_squares(monkeypatch):
    fit, x = small_fit(seed=4)
    f = average_derivative(fit.spec_p, x)
    calls = []
    real = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    res = functional_estimate(fit, f)
    assert calls == []
    assert np.isfinite(res.se)


# ---------------------------------------------------------------- sandwich

def test_sandwich_symmetry_psd_and_nonnegative(rng):
    for _ in range(10):
        n, k = 60, 4
        U = rng.standard_normal((n, k))
        r = rng.standard_normal(n)
        A = rng.standard_normal(k)
        v, omega, sigma = sandwich_variance(U, r, A)
        np.testing.assert_array_equal(omega, omega.T)
        np.testing.assert_array_equal(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-10
        assert v >= 0.0


def test_sandwich_closed_form_one_column():
    # k = 1: V = mean(u^2 r^2) / mean(u^2)^2
    u = np.array([[1.0], [2.0], [-1.0], [0.5]])
    r = np.array([1.0, -1.0, 2.0, 0.0])
    v, omega, sigma = sandwich_variance(u, r, np.array([1.0]))
    m2 = np.mean(u[:, 0] ** 2)
    want = np.mean(u[:, 0] ** 2 * r**2) / m2**2
    assert v == pytest.approx(want, rel=1e-12)
    assert omega[0, 0] == pytest.approx(m2, rel=1e-12)


def test_sandwich_singular_omega(rng):
    n = 40
    base = rng.standard_normal((n, 1))
    U = np.concatenate([base, base], axis=1)
    with pytest.raises(SingularOmegaError):
        sandwich_variance(U, rng.standard_normal(n), np.ones(2))


def test_duplication_shrinks_se_by_root_two():
    fit, x = small_fit(seed=8)
    P, Q, y, _ = small_sample(seed=8)
    f = average_derivative(fit.spec_p, x)
    res1 = functional_estimate(fit, f)
    fit2 = pds_fit(np.vstack([P, P]), np.vstack([Q, Q]), np.concatenate([y, y]),
                   np.arange(Q.shape[1]), spec_p=fit.spec_p)
    res2 = functional_estimate(fit2, f)
    assert res2.theta_hat == pytest.approx(res1.theta_hat, rel=1e-10)
    assert res2.se == pytest.approx(res1.se / np.sqrt(2.0), rel=1e-8)


# ---------------------------------------------------------------- estimates

def test_functional_estimate_fields():
    fit, x = small_fit(seed=5)
    f = average_derivative(fit.spec_p, x)
    res = functional_estimate(fit, f)
    assert res.n == fit.n
    assert res.theta_hat == pytest.approx(float(f @ fit.beta_hat), rel=1e-12)
    assert res.se > 0
    assert res.t_stat == pytest.approx(res.theta_hat / res.se, rel=1e-12)
    assert res.ci_lower == pytest.approx(res.theta_hat - Z_CRITICAL * res.se)
    assert res.ci_upper == pytest.approx(res.theta_hat + Z_CRITICAL * res.se)
    assert res.V_hat == pytest.approx(res.se**2 * res.n, rel=1e-12)


def test_functional_estimate_length_mismatch():
    fit, _ = small_fit(seed=5)
    with pytest.raises(ValueError, match="loadings"):
        functional_estimate(fit, np.ones(7))


def test_theta_invariant_to_outcome_shift():
    fit0, x = small_fit(seed=11, y_shift=0.0)
    fit1, _ = small_fit(seed=11, y_shift=10.0)
    f = average_derivative(fit0.spec_p, x)
    r0 = functional_estimate(fit0, f)
    r1 = functional_estimate(fit1, f)
    assert r1.theta_hat == pytest.approx(r0.theta_hat, rel=1e-9)
    assert r1.se == pytest.approx(r0.se, rel=1e-9)
    assert fit1.eta_hat[0] == pytest.approx(fit0.eta_hat[0] + 10.0, rel=1e-9)


# ---------------------------------------------------------------- testing

def test_z_critical_pinned():
    assert Z_CRITICAL == 1.959964


def test_rejection_rule_strict_inequality():
    from pdsseries.inference import InferenceResult

    def res_at(theta):
        return InferenceResult(theta_hat=theta, se=1.0, t_stat=theta,
                               ci_lower=theta - Z_CRITICAL,
                               ci_upper=theta + Z_CRITICAL,
                               V_hat=1.0, n=50)

    assert not rejection_test(res_at(0.0), 0.0)
    # exactly at the critical value: not rejected (strict inequality)
    assert not rejection_test(res_at(Z_CRITICAL), 0.0)
    assert rejection_test(res_at(np.nextafter(Z_CRITICAL, 2.0)), 0.0)
    assert rejection_test(res_at(-2.0), 0.0)


def test_rejection_undefined_when_se_zero():
    from pdsseries.inference import InferenceResult
    res = InferenceResult(theta_hat=1.0, se=0.0, t_stat=np.inf,
                          ci_lower=1.0, ci_upper=1.0,
                          V_hat=0.0, n=10)
    with pytest.raises(ValueError, match="zero"):
        rejection_test(res, 0.0)
