"""Weighted-penalty Lasso: solver, penalty levels, loadings, iteration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    cd_solve,
    lasso_objective,
    lasso_sign_enumeration,
    random_instance,
    workspace_of,
)
from pdsseries.dictionary import build_design
from pdsseries.lasso import (
    ConvergenceError,
    DegenerateLoadingsError,
    LassoConfig,
    default_gamma,
    initial_loadings,
    iterated_lasso,
    kkt_max_violation,
    lasso_solve,
    normal_quantile,
    penalty_level,
    post_lasso,
    refined_loadings,
)
from pdsseries.montecarlo import DgpConfig, default_specs, generate_sample
from pdsseries.selection import (
    SelectionError,
    first_stage_select,
    post_double_select,
    reduced_form_select,
)

scipy_stats = pytest.importorskip("scipy.stats")


# ---------------------------------------------------------------- quantile

def test_normal_quantile_frozen_values():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.9599639845400536, abs=1e-14)
    assert normal_quantile(0.9975) == pytest.approx(2.8070337683438114, abs=1e-14)
    assert normal_quantile(1 - 1e-12) == pytest.approx(7.0344869100478356, abs=1e-12)
    assert normal_quantile(0.025) == pytest.approx(-normal_quantile(0.975),
                                                   abs=1e-12)


def test_normal_quantile_against_scipy():
    ps = np.concatenate([
        np.linspace(1e-10, 1 - 1e-10, 201),
        [1e-15, 1e-12, 1e-6, 0.5 - 1e-9, 0.5 + 1e-9, 1 - 1e-6, 1 - 1e-12],
    ])
    want = scipy_stats.norm.ppf(ps)
    got = np.array([normal_quantile(p) for p in ps])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_normal_quantile_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            normal_quantile(p)


# ---------------------------------------------------------------- penalty

def test_penalty_level_formula_and_frozen_value():
    cfg = LassoConfig(gamma=0.1)
    lam = penalty_level(100, 1, 50, cfg)
    want = 2.0 * 1.1 * 10.0 * normal_quantile(1.0 - 0.1 / 100.0)
    assert lam == pytest.approx(want, rel=1e-15)
    assert lam == pytest.approx(67.98511073569189, abs=1e-10)
    fs = penalty_level(200, 5, 40, LassoConfig(gamma=0.2), stage="first_stage")
    assert fs == pytest.approx(102.37716568259604, abs=1e-10)


def test_penalty_level_root_n_scaling():
    cfg = LassoConfig(gamma=0.05)
    lam1 = penalty_level(100, 1, 30, cfg)
    lam4 = penalty_level(400, 1, 30, cfg)
    assert lam4 / lam1 == pytest.approx(2.0, rel=1e-15)
    # doubling c doubles the level
    lam_c = penalty_level(100, 1, 30, LassoConfig(c=2.2, gamma=0.05))
    assert lam_c / lam1 == pytest.approx(2.0, rel=1e-15)


def test_penalty_level_monotone_in_dictionary_size():
    cfg = LassoConfig(gamma=0.1)
    lams = [penalty_level(100, 1, m, cfg) for m in (5, 50, 500, 5000)]
    assert all(a < b for a, b in zip(lams, lams[1:]))


def test_penalty_level_validation():
    with pytest.raises(ValueError, match="unknown stage"):
        penalty_level(100, 1, 10, stage="third_stage")
    with pytest.raises(ValueError, match="single target"):
        penalty_level(100, 3, 10, stage="reduced_form")
    with pytest.raises(ValueError):
        penalty_level(0, 1, 10)
    with pytest.raises(ValueError):
        penalty_level(100, 1, 0)


def test_default_gamma():
    assert default_gamma(100, 1, 50) == pytest.approx(0.1 / math.log(100))
    assert default_gamma(100, 4, 50) == pytest.approx(0.1 / math.log(200))
    assert default_gamma(10**6, 1, 10) == pytest.approx(0.1 / math.log(10**6))


def test_lasso_config_validation():
    with pytest.raises(ValueError, match="c must be positive"):
        LassoConfig(c=0.0)
    with pytest.raises(ValueError, match="gamma"):
        LassoConfig(gamma=1.5)
    with pytest.raises(ValueError, match="n_loadings"):
        LassoConfig(n_loadings=0)
    with pytest.raises(ValueError, match="cd_max_iter"):
        LassoConfig(cd_max_iter=0)


# ---------------------------------------------------------------- loadings

def test_initial_loadings_worked_example():
    X = np.array([[1.0, 2.0], [-1.0, 0.0], [1.0, -2.0], [-1.0, 0.0]])
    t = np.array([1.0, 2.0, 3.0, 4.0])
    # psi_j = sqrt(mean(x_j^2 (t - tbar)^2)), tbar = 2.5
    np.testing.assert_allclose(initial_loadings(X, t),
                               [math.sqrt(1.25), math.sqrt(2.5)], rtol=1e-12)


def test_refined_loadings_worked_example():
    X = np.array([[1.0], [2.0], [3.0]])
    r = np.array([3.0, 0.0, -1.0])
    want = math.sqrt((9.0 + 0.0 + 9.0) / 3.0)
    np.testing.assert_allclose(refined_loadings(X, r), [want], rtol=1e-12)


def test_loadings_degenerate_raises():
    X = np.ones((5, 2))
    with pytest.raises(DegenerateLoadingsError):
        initial_loadings(X, np.full(5, 3.0))  # constant target
    with pytest.raises(DegenerateLoadingsError):
        refined_loadings(X, np.zeros(5))


# ---------------------------------------------------------------- solver

def test_all_zero_solution_above_threshold(rng):
    X, y = random_instance(rng, 40, 6)
    grad0 = np.abs(2.0 * X.T @ y)
    loadings = np.ones(6)
    lam = 2.0 * grad0.max()
    fit = lasso_solve(X, y, lam, loadings)
    assert fit.active_set.size == 0
    np.testing.assert_array_equal(fit.coefficients, np.zeros(6))
    assert fit.converged


def test_single_column_closed_form():
    X = np.ones((4, 1))
    y = np.full(4, 2.5)
    # X'X = 4, X'y = 10; soft threshold at lam*psi/2 = 2 -> (10 - 2)/4 = 2
    fit = lasso_solve(X, y, 4.0, np.ones(1))
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
    fit_neg = lasso_solve(X, -y, 4.0, np.ones(1))
    assert fit_neg.coefficients[0] == pytest.approx(-2.0, abs=1e-12)


def test_kkt_invariant_random_instances():
    rng = np.random.default_rng(11)
    for i in range(25):
        X, y = random_instance(rng, 50, 20)
        lam = penalty_level(50, 1, 20, LassoConfig(gamma=0.1))
        loadings = initial_loadings(X, y)
        fit = lasso_solve(X, y, lam, loadings)
        assert fit.converged
        assert kkt_max_violation(X, y, fit) <= 1e-6


def test_objective_never_worse_than_endpoints(rng):
    for _ in range(10):
        X, y = random_instance(rng, 60, 8)
        lam = 0.4 * np.abs(2 * X.T @ y).max()
        loadings = initial_loadings(X, y)
        fit = lasso_solve(X, y, lam, loadings)
        obj = lasso_objective(X, y, fit.coefficients, lam, loadings)
        assert obj <= lasso_objective(X, y, np.zeros(8), lam, loadings) + 1e-9
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert obj <= lasso_objective(X, y, ols, lam, loadings) + 1e-9


def test_column_scaling_covariance(rng):
    X, y = random_instance(rng, 50, 5)
    lam = 0.3 * np.abs(2 * X.T @ y).max()
    loadings = initial_loadings(X, y)
    base = lasso_solve(X, y, lam, loadings)
    c = 3.7
    X2 = X.copy()
    X2[:, 2] *= c
    load2 = loadings.copy()
    load2[2] *= c
    fit2 = lasso_solve(X2, y, lam, load2)
    want = base.coefficients.copy()
    want[2] /= c
    np.testing.assert_allclose(fit2.coefficients, want, atol=1e-8)


def test_lambda_zero_reproduces_ols(rng):
    for _ in range(5):
        X, y = random_instance(rng, 80, 6)
        fit = lasso_solve(X, y, 0.0, np.ones(6),
                          LassoConfig(cd_tol=1e-12, cd_max_iter=100_000))
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        np.testing.assert_allclose(fit.coefficients, ols, atol=1e-6)


def test_matches_sign_enumeration_oracle():
    rng = np.random.default_rng(7)
    for i in range(25):
        m = 2 + i % 3
        X, y = random_instance(rng, 30, m, n_nonzero=m)
        loadings = initial_loadings(X, y)
        lam = (0.1 + 0.2 * (i % 5)) * np.abs(2 * X.T @ y).max()
        fit = lasso_solve(X, y, lam, loadings,
                          LassoConfig(cd_tol=1e-12, cd_max_iter=100_000))
        want = lasso_sign_enumeration(X, y, lam, loadings)
        np.testing.assert_allclose(fit.coefficients, want, atol=1e-6)


def test_lasso_solve_validation(rng):
    X, y = random_instance(rng, 20, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        lasso_solve(X, y, -1.0, np.ones(3))
    with pytest.raises(ValueError, match="length"):
        lasso_solve(X, y, 1.0, np.ones(4))
    with pytest.raises(ValueError, match="positive"):
        lasso_solve(X, y, 1.0, np.array([1.0, 0.0, 1.0]))


def test_gram_shortcut_matches_direct(rng):
    X, y = random_instance(rng, 40, 7)
    lam = 0.5 * np.abs(2 * X.T @ y).max()
    loadings = initial_loadings(X, y)
    direct = lasso_solve(X, y, lam, loadings)
    via_gram = lasso_solve(X, y, lam, loadings, gram=X.T @ X, xty=X.T @ y)
    np.testing.assert_array_equal(direct.coefficients, via_gram.coefficients)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=40, deadline=None)
def test_kkt_property(seed, frac):
    rng = np.random.default_rng(seed)
    X, y = random_instance(rng, 30, 8)
    lam = frac * np.abs(2 * X.T @ y).max()
    loadings = initial_loadings(X, y)
    fit = lasso_solve(X, y, lam, loadings)
    assert kkt_max_violation(X, y, fit) <= 1e-6


# ---------------------------------------------------------------- post-lasso

def test_post_lasso_refits_active_block(rng):
    X, y = random_instance(rng, 50, 6)
    active = np.array([1, 4])
    coef = post_lasso(X, y, active)
    assert coef.shape == (6,)
    inactive = [0, 2, 3, 5]
    np.testing.assert_array_equal(coef[inactive], 0.0)
    block = np.linalg.lstsq(X[:, active], y, rcond=None)[0]
    np.testing.assert_allclose(coef[active], block, rtol=1e-10)


def test_post_lasso_empty_set(rng):
    X, y = random_instance(rng, 30, 4)
    np.testing.assert_array_equal(post_lasso(X, y, np.array([], dtype=int)),
                                  np.zeros(4))


# ---------------------------------------------------------------- iteration

def test_iterated_single_round_equals_initial_loadings_solve(rng):
    X, y = random_instance(rng, 60, 10)
    lam = penalty_level(60, 1, 10, LassoConfig(gamma=0.1))
    one = iterated_lasso(X, y, lam, LassoConfig(gamma=0.1, n_loadings=1))
    direct = lasso_solve(X, y, lam, initial_loadings(X, y))
    np.testing.assert_array_equal(one.coefficients, direct.coefficients)


def test_iterated_perfect_fit_flag(rng):
    n = 50
    X = np.linalg.qr(rng.standard_normal((n, 4)))[0]
    y = 5.0 * X[:, 0]
    lam = 0.1 * abs(2 * X[:, 0] @ y)
    fit = iterated_lasso(X, y, lam, LassoConfig(gamma=0.1))
    assert fit.perfect_fit
    assert 0 in fit.active_set


def test_iterated_degenerate_refined_loadings_flag():
    rng = np.random.default_rng(2)
    X = np.zeros((8, 3))
    X[:4] = np.abs(rng.standard_normal((4, 3))) + 1.0
    y = np.zeros(8)
    y[6] = 1.0
    # selection stays empty, residual lives where every column is zero
    lam = 10.0 * np.abs(2 * X.T @ y).max()
    fit = iterated_lasso(X, y, lam, LassoConfig(gamma=0.1))
    assert fit.loadings_degenerate
    assert fit.active_set.size == 0


def test_iterated_constant_target_raises():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 4))
    with pytest.raises(DegenerateLoadingsError):
        iterated_lasso(X, np.full(20, 2.0), 1.0)


def test_iterated_support_recovery():
    rng = np.random.default_rng(20260819)
    n, m = 200, 50
    X = rng.standard_normal((n, m))
    beta = np.zeros(m)
    beta[[3, 17, 40]] = [4.0, -3.0, 5.0]
    y = X @ beta + 0.5 * rng.standard_normal(n)
    lam = penalty_level(n, 1, m)
    fit = iterated_lasso(X, y, lam)
    assert {3, 17, 40} <= set(fit.active_set.tolist())
    coef = post_lasso(X, y, fit.active_set)
    assert np.max(np.abs(coef[[3, 17, 40]] - beta[[3, 17, 40]])) < 0.2


# ---------------------------------------------------------------- kernel oracle

TIGHT = LassoConfig(cd_tol=1e-13, cd_max_iter=100_000)
# largest subgradient violation accepted at a TIGHT solve
KKT_TOL = 1e-6


def assert_matches_full_sweep(X, y, lam, loadings, gram=None, xty=None):
    """The active-set kernel against the former full-sweep kernel."""
    gram = X.T @ X if gram is None else gram
    xty = X.T @ y if xty is None else xty
    fit = lasso_solve(X, y, lam, loadings, TIGHT, gram=gram, xty=xty)
    want, _, ok = cd_solve(gram, xty, lam, loadings, TIGHT.cd_max_iter, TIGHT.cd_tol)
    assert ok and fit.converged
    np.testing.assert_allclose(fit.coefficients, want, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(fit.active_set, np.flatnonzero(want))
    return fit


def test_kernel_matches_full_sweep_random_problems():
    rng = np.random.default_rng(31)
    for i in range(30):
        n, m = 40 + 5 * (i % 4), 10 + 3 * i
        X, y = random_instance(rng, n, m, n_nonzero=1 + i % 6)
        lam = (0.02 + 0.03 * (i % 10)) * np.abs(2 * X.T @ y).max()
        assert_matches_full_sweep(X, y, lam, initial_loadings(X, y))


def test_kernel_skips_zero_variance_column(rng):
    X, y = random_instance(rng, 50, 8)
    X[:, 3] = 0.0
    lam = 0.1 * np.abs(2 * X.T @ y).max()
    fit = assert_matches_full_sweep(X, y, lam, np.ones(8))
    assert fit.coefficients[3] == 0.0
    assert fit.active_set.size > 0


def test_kernel_lambda_zero_admits_every_column(rng):
    X, y = random_instance(rng, 60, 12)
    fit = assert_matches_full_sweep(X, y, 0.0, np.ones(12))
    assert fit.active_set.size == 12


def test_kernel_above_lambda_max_takes_no_sweep(rng):
    X, y = random_instance(rng, 40, 9)
    loadings = initial_loadings(X, y)
    lam = 1.01 * np.max(np.abs(2 * X.T @ y) / loadings)
    fit = assert_matches_full_sweep(X, y, lam, loadings)
    assert fit.active_set.size == 0
    assert fit.iterations == 0


def test_kernel_matches_full_sweep_on_pipeline_problems():
    """First-stage and reduced-form solves of one high_dim n=500 sample."""
    cfg = DgpConfig("high_dim", 500)
    data = generate_sample(cfg, np.random.default_rng(2024))
    spec_p, spec_q = default_specs(cfg)
    d = build_design(spec_p, spec_q, data.x, data.Z)
    n, k = d.P.shape
    lam_fs = penalty_level(n, k, d.Q.shape[1], stage="first_stage")
    lam_rf = penalty_level(n, 1, d.Q.shape[1])
    problems = [(d.P[:, j], lam_fs) for j in (0, 1, k - 1)] + [(data.y, lam_rf)]
    selected = 0
    for target, lam in problems:
        xty = d.Q.T @ target
        final = iterated_lasso(d.Q, target, lam, gram=d.gram, sq=d.sq)
        for loadings in (initial_loadings(d.Q, target), final.loadings):
            fit = assert_matches_full_sweep(d.Q, target, lam, loadings, d.gram, xty)
            assert kkt_max_violation(d.Q, target, fit) <= KKT_TOL
            selected += fit.active_set.size
    assert selected > 0


# ---------------------------------------------------------------- shared X*X

def test_loadings_matvec_matches_elementwise(rng):
    X, y = random_instance(rng, 300, 40)
    X[:, 5] *= 1e3
    e = y - X[:, :3] @ np.ones(3)
    dev2 = (y - y.mean()) ** 2
    np.testing.assert_allclose(initial_loadings(X, y) ** 2,
                               (X * X * dev2[:, None]).mean(0), rtol=1e-12)
    np.testing.assert_allclose(refined_loadings(X, e) ** 2,
                               (X * X * (e * e)[:, None]).mean(0), rtol=1e-12)
    sq = X * X
    np.testing.assert_array_equal(initial_loadings(X, y, sq), initial_loadings(X, y))
    np.testing.assert_array_equal(refined_loadings(X, e, sq), refined_loadings(X, e))


def test_iterated_lasso_same_fit_with_supplied_sq():
    rng = np.random.default_rng(8)
    n, m = 200, 60
    X = rng.standard_normal((n, m))
    y = X[:, [2, 9, 30]] @ np.array([2.0, -1.5, 1.0]) + rng.standard_normal(n)
    lam = penalty_level(n, 1, m)
    own = iterated_lasso(X, y, lam)
    shared = iterated_lasso(X, y, lam, gram=X.T @ X, sq=X * X)
    assert own.active_set.size > 0
    np.testing.assert_array_equal(own.coefficients, shared.coefficients)
    np.testing.assert_array_equal(own.loadings, shared.loadings)
    assert own.iterations == shared.iterations


# ---------------------------------------------------------------- non-convergence

def test_sweep_cap_reported_by_solve_and_raised_by_iteration():
    rng = np.random.default_rng(12)
    n, m = 100, 20
    X = rng.standard_normal((n, m))
    P = X[:, :2] + 0.1 * rng.standard_normal((n, 2))
    y = X[:, 0] - X[:, 1] + rng.standard_normal(n)
    capped = LassoConfig(cd_max_iter=1)
    lam = penalty_level(n, 1, m)
    fit = lasso_solve(X, y, lam, initial_loadings(X, y), capped)
    assert fit.iterations == 1 and not fit.converged
    with pytest.raises(ConvergenceError, match="cd_max_iter=1"):
        iterated_lasso(X, y, lam, capped)
    design = workspace_of(X)
    with pytest.raises(SelectionError, match="first-stage equation 0.*cd_max_iter"):
        first_stage_select(P, design, capped)
    with pytest.raises(SelectionError, match="reduced-form equation.*cd_max_iter"):
        reduced_form_select(design, y, capped)
    with pytest.raises(SelectionError):
        post_double_select(P, design, y, capped)
