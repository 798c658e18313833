"""Weighted-penalty Lasso: solver, penalty levels, loadings, iteration."""

import collections
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import (
    bank_of,
    cd_solve,
    g_columns,
    iterated_lasso as iterated_lasso_oracle,
    kkt_max_violation,
    lasso_objective,
    lasso_sign_enumeration,
    random_instance,
    unit_columns,
)
from pdsseries import lasso as lasso_module
from pdsseries import selection as selection_module
from pdsseries.dictionary import DictionarySpec, build_design
from pdsseries.lasso import (
    ConvergenceError,
    DegenerateLoadingsError,
    LassoConfig,
    LassoDesign,
    LassoFit,
    TargetBank,
    default_gamma,
    initial_loadings,
    iterated_lasso,
    lasso_solve,
    normal_quantile,
    penalty_level,
    post_lasso,
    refined_loadings,
)
from pdsseries.montecarlo import DgpConfig, default_specs, generate_sample
from pdsseries.selection import (
    FIT_ERRORS,
    SelectionError,
    choose_k_bic,
    comparison_estimators,
    first_stage_select,
    post_double_select,
    reduced_form_select,
    resolve_gamma,
)

scipy_stats = pytest.importorskip("scipy.stats")


def solve(X, y, lam, loadings):
    """``lasso_solve`` of ``y`` on a fresh design over ``X``, which reads
    ``unit_columns(LassoDesign(X))``."""
    design = LassoDesign(X)
    return lasso_solve(design, design.product(y), lam, loadings)


def iterate(X, y, lam, config=LassoConfig()):
    """``iterated_lasso`` of ``y`` on a fresh design over ``X``."""
    return iterated_lasso(TargetBank.of(y, LassoDesign(X)), 0, lam, config)


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


def test_normal_quantile_has_the_bits_of_the_hand_coded_as241():
    rng = np.random.default_rng(0)
    ps = set(rng.uniform(0.0, 1.0, 300_000).tolist())
    # both tails, down to 1e-299 and 2^-989
    ps |= {10.0 ** -e for e in range(1, 300)} | {2.0 ** -e for e in range(1, 990)}
    ps |= {1.0 - 10.0 ** -e for e in range(1, 17)} | {1.0 - 2.0 ** -e for e in range(1, 54)}
    # every 1 - gamma / (2M) of the default penalties: up to 20 targets, the
    # extended first stage's k^2 at k <= 20, and up to 1000 regressors
    for n in (50, 100, 200, 500, 1000, 2000, 5000):
        for targets in {*range(1, 21), *(k * k for k in range(1, 21))}:
            for regressors in range(1, 1001):
                m = targets * regressors
                ps.add(1.0 - default_gamma(n, targets, regressors) / (2.0 * m))
    ps = sorted(ps - {0.0, 1.0})
    assert len(ps) > 300_000
    got = np.array([normal_quantile(p) for p in ps])
    want = np.array([_oracles.normal_quantile(p) for p in ps])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_normal_quantile_domain():
    for p in (0.0, 1.0, -0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            normal_quantile(p)


# ---------------------------------------------------------------- penalty

def test_penalty_level_formula_and_frozen_value():
    cfg = LassoConfig(gamma=0.1)
    lam = penalty_level(100, 1, 50, cfg)
    want = 2.0 * 1.1 * 10.0 * normal_quantile(1.0 - 0.1 / 100.0)
    assert lam == pytest.approx(want, rel=1e-15)
    assert lam == pytest.approx(67.98511073569189, abs=1e-10)
    fs = penalty_level(200, 5, 40, LassoConfig(gamma=0.2))
    assert fs == pytest.approx(102.37716568259604, abs=1e-10)


@pytest.mark.parametrize("gamma", [0.1, 1e-6, 1e-10, 1e-13, 1e-100])
def test_penalty_level_keeps_a_small_tail(gamma):
    # Phi^{-1}(1 - tail) from the tail itself: 1 - tail rounds away the
    # tail's low bits, and all of it below 2^-54
    n, targets, regressors = 500, 7, 1000
    lam = penalty_level(n, targets, regressors, LassoConfig(gamma=gamma))
    tail = gamma / (2.0 * targets * regressors)
    want = 2.0 * 1.1 * math.sqrt(n) * scipy_stats.norm.isf(tail)
    assert lam == pytest.approx(want, rel=1e-13, abs=0.0)


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
    with pytest.raises(ValueError):
        penalty_level(0, 1, 10)
    with pytest.raises(ValueError):
        penalty_level(100, 1, 0)


def test_default_gamma():
    assert default_gamma(100, 1, 50) == pytest.approx(0.1 / math.log(100))
    assert default_gamma(100, 4, 50) == pytest.approx(0.1 / math.log(200))
    assert default_gamma(10**6, 1, 10) == pytest.approx(0.1 / math.log(10**6))


def test_default_gamma_needs_two_moments_or_rows():
    # log(max(M, n)) is 0 at M = n = 1: refused by name, not divided by
    for call in (lambda: default_gamma(1, 1, 1), lambda: penalty_level(1, 1, 1),
                 lambda: resolve_gamma(LassoConfig(), 1, 1, 1)):
        with pytest.raises(ValueError, match=r"default gamma needs max\(M, n\) >= 2, got 1"):
            call()
    assert default_gamma(2, 1, 1) == pytest.approx(0.1 / math.log(2))
    # an explicit gamma needs no default: a finite level at n = 1
    assert math.isfinite(penalty_level(1, 1, 1, LassoConfig(gamma=0.05)))


def test_lasso_config_validation():
    for c in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="c must be positive and finite"):
            LassoConfig(c=c)
    with pytest.raises(ValueError, match="gamma"):
        LassoConfig(gamma=1.5)
    with pytest.raises(ValueError, match="n_loadings"):
        LassoConfig(n_loadings=0)
    # the path solver is exact up to rounding, so nothing tunes it
    assert [f.name for f in dataclasses.fields(LassoConfig)] == ["c", "gamma", "n_loadings"]


@pytest.mark.parametrize("name", ["n_loadings"])
def test_lasso_config_caps_are_whole_numbers(name):
    # a fraction never equals a count of rounds, so it would cap nothing
    for bad in (1.5, 2.5, 0, 0.0, -1, math.nan, math.inf, "3", None):
        with pytest.raises(ValueError, match=f"{name} must be a whole number >= 1, got "):
            LassoConfig(**{name: bad})
    value = getattr(LassoConfig(**{name: 3.0}), name)
    assert value == 3 and type(value) is int


@pytest.mark.parametrize("entry", [
    penalty_level, TargetBank.settled_empty, iterated_lasso, first_stage_select,
    reduced_form_select, post_double_select, choose_k_bic, comparison_estimators,
], ids=lambda f: f.__qualname__)
def test_every_lasso_entry_point_defaults_to_one_config(entry):
    default = inspect.signature(entry).parameters["config"].default
    assert type(default) is LassoConfig and default == LassoConfig()


# ---------------------------------------------------------------- loadings

def test_initial_loadings_worked_example():
    X = np.array([[1.0, 2.0], [-1.0, 0.0], [1.0, -2.0], [-1.0, 0.0]])
    t = np.array([1.0, 2.0, 3.0, 4.0])
    # psi_j = sqrt(mean(x_j^2 (t - tbar)^2)), tbar = 2.5, on x_j over its
    # root mean square, 1 and sqrt(2)
    np.testing.assert_allclose(initial_loadings(LassoDesign(X), t),
                               [math.sqrt(1.25), math.sqrt(2.5 / 2.0)], rtol=1e-12)


def test_refined_loadings_worked_example():
    X = np.array([[1.0], [2.0], [3.0]])
    r = np.array([3.0, 0.0, -1.0])
    # x over its root mean square, sqrt(14 / 3)
    want = math.sqrt((9.0 + 0.0 + 9.0) / 3.0 / (14.0 / 3.0))
    np.testing.assert_allclose(refined_loadings(LassoDesign(X), r), [want], rtol=1e-12)


def test_loadings_degenerate_raises():
    X = np.ones((5, 2))
    with pytest.raises(DegenerateLoadingsError):
        initial_loadings(LassoDesign(X), np.full(5, 3.0))  # constant target
    with pytest.raises(DegenerateLoadingsError):
        refined_loadings(LassoDesign(X), np.zeros(5))


# ---------------------------------------------------------------- solver

def test_all_zero_solution_above_threshold(rng):
    X, y = random_instance(rng, 40, 6)
    grad0 = np.abs(2.0 * LassoDesign(X).product(y))
    loadings = np.ones(6)
    lam = 2.0 * grad0.max()
    fit = solve(X, y, lam, loadings)
    assert fit.active_set.size == 0
    np.testing.assert_array_equal(fit.coefficients, np.zeros(6))
    assert fit.converged


def test_single_column_closed_form():
    X = np.ones((4, 1))
    y = np.full(4, 2.5)
    # X'X = 4, X'y = 10; soft threshold at lam*psi/2 = 2 -> (10 - 2)/4 = 2
    fit = solve(X, y, 4.0, np.ones(1))
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
    fit_neg = solve(X, -y, 4.0, np.ones(1))
    assert fit_neg.coefficients[0] == pytest.approx(-2.0, abs=1e-12)


def test_kkt_invariant_random_instances():
    rng = np.random.default_rng(11)
    for i in range(25):
        X, y = random_instance(rng, 50, 20)
        lam = penalty_level(50, 1, 20, LassoConfig(gamma=0.1))
        design = LassoDesign(X)
        loadings = initial_loadings(design, y)
        fit = solve(X, y, lam, loadings)
        assert fit.converged
        assert kkt_max_violation(unit_columns(design), y, fit) <= 1e-6


def test_objective_never_worse_than_endpoints(rng):
    for _ in range(10):
        X, y = random_instance(rng, 60, 8)
        X = unit_columns(LassoDesign(X))
        lam = 0.4 * np.abs(2 * X.T @ y).max()
        loadings = initial_loadings(LassoDesign(X), y)
        fit = solve(X, y, lam, loadings)
        obj = lasso_objective(X, y, fit.coefficients, lam, loadings)
        assert obj <= lasso_objective(X, y, np.zeros(8), lam, loadings) + 1e-9
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert obj <= lasso_objective(X, y, ols, lam, loadings) + 1e-9


def test_column_scaling_covariance(rng):
    # a design reads each column at unit root mean square, so a rescaled
    # column gives the same loadings and the same fit, up to rounding
    X, y = random_instance(rng, 50, 5)
    lam = 0.3 * np.abs(2 * X.T @ y).max()
    loadings = initial_loadings(LassoDesign(X), y)
    base = solve(X, y, lam, loadings)
    for c in (3.7, 1e-3, 1e3):
        X2 = X.copy()
        X2[:, 2] *= c
        load2 = initial_loadings(LassoDesign(X2), y)
        np.testing.assert_allclose(load2, loadings, rtol=1e-13)
        fit2 = solve(X2, y, lam, load2)
        np.testing.assert_array_equal(fit2.active_set, base.active_set)
        np.testing.assert_allclose(fit2.coefficients, base.coefficients, atol=1e-8)


def test_lambda_zero_reproduces_ols(rng):
    for _ in range(5):
        X, y = random_instance(rng, 80, 6)
        fit = solve(X, y, 0.0, np.ones(6))
        ols = np.linalg.lstsq(unit_columns(LassoDesign(X)), y, rcond=None)[0]
        np.testing.assert_allclose(fit.coefficients, ols, atol=1e-6)


def test_matches_sign_enumeration_oracle():
    rng = np.random.default_rng(7)
    for i in range(25):
        m = 2 + i % 3
        X, y = random_instance(rng, 30, m, n_nonzero=m)
        loadings = initial_loadings(LassoDesign(X), y)
        lam = (0.1 + 0.2 * (i % 5)) * np.abs(2 * X.T @ y).max()
        fit = solve(X, y, lam, loadings)
        want = lasso_sign_enumeration(unit_columns(LassoDesign(X)), y, lam, loadings)
        np.testing.assert_allclose(fit.coefficients, want, atol=1e-6)


def test_lasso_solve_validation(rng):
    X, y = random_instance(rng, 20, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        solve(X, y, -1.0, np.ones(3))
    with pytest.raises(ValueError, match=r"loadings has shape \(4,\), expected \(3,\)"):
        solve(X, y, 1.0, np.ones(4))
    # a column of loadings passes a check of its length alone
    with pytest.raises(ValueError, match=r"loadings has shape \(3, 1\), expected \(3,\)"):
        solve(X, y, 1.0, np.ones((3, 1)))
    with pytest.raises(ValueError, match="positive"):
        solve(X, y, 1.0, np.array([1.0, 0.0, 1.0]))
    # a NaN loading fails every comparison, so it must be refused, not
    # left to keep its column out; an infinite one would do the same
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            lasso_solve(LassoDesign(X), X.T @ X[:, 0], 1.0, np.array([bad, 1.0, 1.0]))


def test_nan_lam_is_refused_and_inf_selects_nothing(rng):
    # a NaN level fails every comparison, so it would admit nothing and pass
    # for a converged empty fit; at lam = inf the Lasso solution is empty
    X, y = random_instance(rng, 30, 4, n_nonzero=2)
    bank = TargetBank.of(y, LassoDesign(X))
    lam = penalty_level(30, 1, 4, LassoConfig(gamma=0.1))
    assert iterated_lasso(bank, 0, lam).active_set.size > 0
    for nan in (math.nan, np.float64("nan")):
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            solve(X, y, nan, np.ones(4))
        # twice: a refused call leaves the target's paths as they were
        for _ in range(2):
            with pytest.raises(ValueError, match="lam must be nonnegative"):
                iterated_lasso(bank, 0, nan)
    for fit in (solve(X, y, math.inf, np.ones(4)), iterated_lasso(bank, 0, math.inf)):
        assert fit.active_set.size == 0 and fit.converged and fit.iterations == 0
        np.testing.assert_array_equal(fit.coefficients, np.zeros(4))


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=40, deadline=None)
def test_kkt_property(seed, frac):
    rng = np.random.default_rng(seed)
    X, y = random_instance(rng, 30, 8)
    lam = frac * np.abs(2 * X.T @ y).max()
    design = LassoDesign(X)
    loadings = initial_loadings(design, y)
    fit = solve(X, y, lam, loadings)
    assert kkt_max_violation(unit_columns(design), y, fit) <= 1e-6


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
    one = iterate(X, y, lam, LassoConfig(gamma=0.1, n_loadings=1))
    direct = solve(X, y, lam, initial_loadings(LassoDesign(X), y))
    np.testing.assert_array_equal(one.coefficients, direct.coefficients)


def test_iterated_perfect_fit_flag(rng):
    n = 50
    X = np.linalg.qr(rng.standard_normal((n, 4)))[0]
    y = 5.0 * X[:, 0]
    lam = 0.1 * abs(2 * X[:, 0] @ y)
    fit = iterate(X, y, lam, LassoConfig(gamma=0.1))
    assert fit.perfect_fit
    assert 0 in fit.active_set
    assert_same_fit(fit, iterated_lasso_oracle(LassoDesign(X), y, lam, LassoConfig(gamma=0.1)))


def test_iterated_degenerate_refined_loadings_flag():
    rng = np.random.default_rng(2)
    X = np.zeros((8, 3))
    X[:4] = np.abs(rng.standard_normal((4, 3))) + 1.0
    y = np.zeros(8)
    y[6] = 1.0
    # selection stays empty, residual lives where every column is zero
    lam = 10.0 * np.abs(2 * X.T @ y).max()
    fit = iterate(X, y, lam, LassoConfig(gamma=0.1))
    assert fit.loadings_degenerate
    assert fit.active_set.size == 0
    assert_same_fit(fit, iterated_lasso_oracle(LassoDesign(X), y, lam, LassoConfig(gamma=0.1)))


def test_iterated_constant_target_raises():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 4))
    with pytest.raises(DegenerateLoadingsError):
        iterate(X, np.full(20, 2.0), 1.0)


def test_iterated_support_recovery():
    rng = np.random.default_rng(20260819)
    n, m = 200, 50
    X = rng.standard_normal((n, m))
    beta = np.zeros(m)
    beta[[3, 17, 40]] = [4.0, -3.0, 5.0]
    y = X @ beta + 0.5 * rng.standard_normal(n)
    lam = penalty_level(n, 1, m)
    fit = iterate(X, y, lam)
    assert {3, 17, 40} <= set(fit.active_set.tolist())
    coef = post_lasso(X, y, fit.active_set)
    assert np.max(np.abs(coef[[3, 17, 40]] - beta[[3, 17, 40]])) < 0.2


# ---------------------------------------------------------------- stopping rule

def assert_same_fit(got, want, steps=True):
    """Every field of two LassoFits equal, arrays bit for bit; their
    ``iterations`` only when ``steps``."""
    for f in dataclasses.fields(want):
        if f.name == "iterations" and not steps:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


def pipeline_problems():
    """First-stage and reduced-form problems of one high_dim n=500 sample."""
    cfg = DgpConfig("high_dim", 500)
    data = generate_sample(cfg, np.random.default_rng(2024))
    spec_p, spec_q = default_specs(cfg)
    d = build_design(spec_q, data.Z)
    _, P = g_columns(data.x, spec_p.degree)
    n, k = P.shape
    lam_fs = penalty_level(n, k, d.shape[1])
    lam_rf = penalty_level(n, 1, d.shape[1])
    problems = [(P[:, j], lam_fs) for j in (0, 1, k - 1)] + [(data.y, lam_rf)]
    return d, problems


def oracle_problems():
    """Random Lasso problems for the stopping-rule oracle, as (X, y, lam)."""
    rng = np.random.default_rng(41)
    for i in range(30):
        n, m = 60 + 10 * (i % 5), 5 + i
        X, y = random_instance(rng, n, m, n_nonzero=1 + i % 6, noise=0.2 + 0.2 * (i % 4))
        yield X, y, penalty_level(n, 1, m, LassoConfig(gamma=0.1)) * (0.4 + 0.1 * (i % 8))
    # a near-copy of column 0 and noise that grows with it: some rounds swap
    # a selected column for another and keep the size of the active set
    for seed in range(80):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((80, 12))
        X[:, 1] = X[:, 0] + 0.3 * rng.standard_normal(80)
        y = X[:, 0] + X[:, 2] + np.exp(X[:, 1]) * rng.standard_normal(80)
        yield X, y, 0.6 * penalty_level(80, 1, 12, LassoConfig(gamma=0.1))


def test_stopping_rule_matches_loadings_fixed_point_oracle(monkeypatch):
    solves = {"lib": 0, "oracle": 0}

    def counting(side):
        def solve(*args, **kwargs):
            solves[side] += 1
            return lasso_solve(*args, **kwargs)
        return solve

    monkeypatch.setattr(lasso_module, "lasso_solve", counting("lib"))
    monkeypatch.setattr(_oracles, "lasso_solve", counting("oracle"))
    for X, y, lam in oracle_problems():
        design = LassoDesign(X)
        shared = TargetBank.of(y, design)
        for n_loadings in (1, 2, 15):
            cfg = LassoConfig(gamma=0.1, n_loadings=n_loadings)
            solves.update(lib=0, oracle=0)
            want = iterated_lasso_oracle(LassoDesign(X), y, lam, cfg)
            # a round whose loadings an earlier round of the call had reads
            # its fit off that round's path, adding no steps
            assert_same_fit(iterate(X, y, lam, cfg), want, steps=False)
            # the rule stops in the round where the oracle's loadings repeat
            assert solves["lib"] == solves["oracle"]
            # a bank, and so its round records, shared across calls that
            # differ in lam gives the same fits, but for the steps its
            # solves add to the paths
            assert_same_fit(iterated_lasso(shared, 0, lam, cfg), want, steps=False)
            lam2 = 0.8 * lam
            assert_same_fit(iterated_lasso(shared, 0, lam2, cfg),
                            iterated_lasso_oracle(design, y, lam2, cfg), steps=False)


def test_stopping_rule_matches_oracle_on_pipeline_problems():
    d, problems = pipeline_problems()
    for target, lam in problems:
        for n_loadings in (1, 2, 15):
            cfg = LassoConfig(n_loadings=n_loadings)
            want = iterated_lasso_oracle(d, target, lam, cfg)
            got = iterated_lasso(TargetBank.of(target, d), 0, lam, cfg)
            assert_same_fit(got, want)


# ---------------------------------------------------------------- kernel oracle

# largest subgradient violation accepted at a solve
KKT_TOL = 1e-6


def assert_matches_full_sweep(X, y, lam, loadings, design=None, full=None):
    """The path, on the Gram row store of ``design`` (a fresh one over
    ``X`` if None), against the former full-sweep kernel at its own tight
    tolerance on the full Gram of the matrix the design reads, ``full =
    U'U`` with ``U = unit_columns(design)``."""
    design = LassoDesign(X) if design is None else design
    if full is None:
        U = unit_columns(design)
        full = U.T @ U
    xty = design.product(y)
    fit = lasso_solve(design, xty, lam, loadings)
    want, _, ok = cd_solve(full, xty, lam, loadings)
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
        assert_matches_full_sweep(X, y, lam, initial_loadings(LassoDesign(X), y))


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
    design = LassoDesign(X)
    loadings = initial_loadings(design, y)
    lam = 1.01 * np.max(np.abs(2 * design.product(y)) / loadings)
    fit = assert_matches_full_sweep(X, y, lam, loadings)
    assert fit.active_set.size == 0
    assert fit.iterations == 0


def test_kernel_matches_full_sweep_on_pipeline_problems():
    """First-stage and reduced-form solves of one high_dim n=500 sample."""
    d, problems = pipeline_problems()
    U = unit_columns(d)
    full = U.T @ U
    selected = 0
    for target, lam in problems:
        final = iterated_lasso(TargetBank.of(target, d), 0, lam)
        for loadings in (initial_loadings(d, target), final.loadings):
            fit = assert_matches_full_sweep(d.blocks[0], target, lam, loadings, d, full)
            assert kkt_max_violation(U, target, fit) <= KKT_TOL
            selected += fit.active_set.size
    assert selected > 0


def test_path_matches_the_active_set_kernel_from_one_column_to_150():
    """The path selects the set the former active-set kernel converges to,
    with its coefficients, from one active column near lam_max to about
    150 near OLS, taking a step for each column that entered or left."""
    rng = np.random.default_rng(21)
    sizes = []
    for n, m, frac in [(40, 6, 0.97), (60, 20, 0.6), (120, 50, 0.2),
                       (200, 100, 0.04), (300, 160, 0.004)]:
        X = rng.standard_normal((n, m))
        y = X @ rng.standard_normal(m) + rng.standard_normal(n)
        design = LassoDesign(X)
        xty = design.product(y)
        psi = rng.uniform(0.5, 2.0, m)
        lam = frac * 2.0 * np.max(np.abs(xty) / psi)
        fit = lasso_solve(design, xty, lam, psi)
        want, _, ok = _oracles._cd_solve(LassoDesign(X), xty, 0.5 * lam * psi)
        assert ok
        np.testing.assert_array_equal(fit.active_set, np.flatnonzero(want))
        np.testing.assert_allclose(fit.coefficients, want, rtol=0, atol=1e-9)
        assert fit.converged and fit.iterations >= fit.active_set.size
        sizes.append(fit.active_set.size)
    assert sizes[0] == 1 and sizes[-1] >= 130


# ---------------------------------------------------------------- Gram rows

def test_gram_rows_match_the_full_product(rng):
    X = rng.standard_normal((120, 50))
    X[:, 7] *= 1e3
    X[:, 8] = 0.0
    U = unit_columns(LassoDesign(X))
    full = U.T @ U
    # a dot product's rounding error scales with the norms of its factors
    scale = np.sqrt(np.outer(np.diagonal(full), np.diagonal(full)))
    store = LassoDesign(X)
    for idx in ([3], [9, 3, 40], [8, 7], list(range(50))):
        got = store.rows(idx)
        assert got.shape == (len(idx), 50)
        assert np.all(np.abs(got - full[idx]) <= 1e-13 * scale[idx])
    assert store.rows(np.array([], dtype=int)).shape == (0, 50)


def test_gram_rows_are_formed_once_and_kept(rng):
    X = rng.standard_normal((60, 30))
    store = LassoDesign(X)
    assert store.rows_formed == 0
    first = store.rows([4, 2])
    assert store.rows_formed == 2
    again = store.rows([2, 4, 2])
    assert store.rows_formed == 2
    np.testing.assert_array_equal(again, first[[1, 0, 1]])
    store.rows([2, 11, 11])
    assert store.rows_formed == 3
    with pytest.raises(AttributeError):
        store.rows_formed = 0
    # a row's bits depend only on X and its column, not on what came before
    np.testing.assert_array_equal(LassoDesign(X).rows([11, 4]), store.rows([11, 4]))


def test_gram_rows_diagonal_is_the_squared_design_sum(rng):
    X = rng.standard_normal((70, 25)) * np.geomspace(1e-3, 1e3, 25)
    X[:, 3] = 0.0
    X[:, 4] = rng.choice([1e-170, 2e-170], size=70)  # every square underflows
    design = LassoDesign(X)
    np.testing.assert_array_equal(design.squares[0], X * X)
    # each column is read over its root mean square; a zero column, and
    # one whose squares are all 0, over 1 with a Gram diagonal of 0
    total = (X * X).sum(axis=0)
    want = np.sqrt(total / 70)
    want[[3, 4]] = 1.0
    np.testing.assert_array_equal(design.scales, want)
    np.testing.assert_array_equal(design.diag, total / (want * want))
    np.testing.assert_allclose(np.delete(design.diag, [3, 4]), 70.0, rtol=1e-14)
    assert design.diag[3] == design.diag[4] == 0.0


def test_block_design_reads_its_blocks_as_one_design(rng):
    A = rng.standard_normal((90, 4))
    B = rng.standard_normal((90, 30))
    B[:, 5] = 0.0
    X = np.concatenate([A, B], axis=1)
    inner = LassoDesign(B)
    design, whole = LassoDesign(A, inner), LassoDesign(X)
    assert design.shape == whole.shape == (90, 34)
    assert design.blocks[0] is A
    assert design.blocks[1] is B and design.squares[1] is inner.squares[0]
    np.testing.assert_array_equal(np.concatenate(design.squares, axis=1), X * X)
    # the block design reads the inner design's scales, which are the whole's
    np.testing.assert_array_equal(design.scales, whole.scales)
    np.testing.assert_array_equal(design.diag, whole.diag)
    U = unit_columns(whole)
    idx = np.array([33, 0, 4, 3, 9, 4])
    for got in (design.columns(idx), whole.columns(idx)):
        np.testing.assert_array_equal(got, U[:, idx])
        assert got.strides == X[:, idx].strides
    assert design.columns([]).shape == (90, 0)
    # block products: each block's part is one product, so an entry may
    # move only within the rounding bound of a sum of n terms, and then
    # one division by the scales
    tol = 90 * np.finfo(float).eps
    T = rng.standard_normal((3, 90))
    for got, a, M in [(design.product(T), T, U), (design.product(T[0]), T[0], U),
                      (design.sq_product(T ** 2), T ** 2, U * U)]:
        assert got.shape == (a @ M).shape
        assert np.all(np.abs(got - a @ M) <= tol * (np.abs(a) @ np.abs(M)))
    # a B column's row takes its B part from the inner store, which keeps it
    got = design.rows([9, 2])
    np.testing.assert_allclose(got, U[:, [9, 2]].T @ U, rtol=1e-12, atol=1e-12 * 90)
    np.testing.assert_array_equal(got[0, 4:], inner.rows([5])[0])
    np.testing.assert_array_equal(got[1, :4],
                                  (A[:, 2] @ A) / (design.scales[2] * design.scales[:4]))
    assert design.rows_formed == 2 and inner.rows_formed == 1
    design.rows([9, 33])
    assert design.rows_formed == 3 and inner.rows_formed == 2
    with pytest.raises(ValueError, match="row counts"):
        LassoDesign(A, B[:80])
    with pytest.raises(ValueError, match="one-block"):
        LassoDesign(A, design)


def test_fit_is_the_same_with_or_without_a_store():
    rng = np.random.default_rng(19)
    n, m = 200, 80
    X = rng.standard_normal((n, m))
    y = X[:, [1, 7, 50]] @ np.array([1.5, -2.0, 1.0]) + rng.standard_normal(n)
    other = X[:, [3, 60]] @ np.array([2.0, 1.0]) + rng.standard_normal(n)
    lam = penalty_level(n, 1, m)
    store = LassoDesign(X)
    # another target's solves fill the store first
    iterated_lasso(TargetBank.of(other, store), 0, lam)
    formed = store.rows_formed
    assert formed > 0
    loadings = initial_loadings(store, y)
    assert_same_fit(lasso_solve(store, store.product(y), lam, loadings),
                    solve(X, y, lam, loadings))
    fit = iterated_lasso(TargetBank.of(y, store), 0, lam)
    assert fit.active_set.size > 0
    assert_same_fit(fit, iterate(X, y, lam))
    assert formed < store.rows_formed < m


def test_lasso_solve_rejects_a_misshapen_xty(rng):
    X, y = random_instance(rng, 30, 5)
    design = LassoDesign(X)
    # a length-1 xty would broadcast against the five columns
    for xty in (np.ones(1), np.ones(4), np.ones((5, 1)), (X.T @ y)[None]):
        with pytest.raises(ValueError, match="xty has shape"):
            lasso_solve(design, xty, 1.0, np.ones(5))


# ---------------------------------------------------------------- shared X*X

def test_loadings_matvec_matches_elementwise(rng):
    X, y = random_instance(rng, 300, 40)
    X[:, 5] *= 1e3
    e = y - X[:, :3] @ np.ones(3)
    dev2 = (y - y.mean()) ** 2
    ms = (X * X).mean(0)  # each column's mean square, the design's scale squared
    np.testing.assert_allclose(initial_loadings(LassoDesign(X), y) ** 2,
                               (X * X * dev2[:, None]).mean(0) / ms, rtol=1e-12)
    np.testing.assert_allclose(refined_loadings(LassoDesign(X), e) ** 2,
                               (X * X * (e * e)[:, None]).mean(0) / ms, rtol=1e-12)


def test_a_paired_bank_holds_its_rows_then_the_sums_then_the_differences():
    # pairs read rows 0..2 only, so rows 3 and 4 follow the last paired row;
    # they stay with the given rows, before every pair target
    rng = np.random.default_rng(12)
    n, m = 90, 25
    design = LassoDesign(rng.standard_normal((n, m)))
    rows = rng.standard_normal((5, n))
    ii, jj = np.array([0, 0, 1]), np.array([1, 2, 2])
    bank = TargetBank.of(rows, design, paired=3)
    np.testing.assert_array_equal(np.array(bank.pairs), [ii, jj])
    targets = np.vstack([rows, rows[ii] + rows[jj], rows[ii] - rows[jj]])
    np.testing.assert_array_equal(bank.rows, targets)
    xty = design.product(rows)
    np.testing.assert_array_equal(bank.xty, np.vstack([xty, xty[ii] + xty[jj],
                                                       xty[ii] - xty[jj]]))
    # each lam_max is its own row's, 2 max_l |x_l't| / psi_l, bit for bit
    for lam_max, psi in zip(bank.lam_max, bank.loadings):
        np.testing.assert_array_equal(lam_max, 2.0 * (np.abs(bank.xty) / psi).max(axis=1))
    # and agrees with the bank of the same targets, each evaluated directly
    direct = TargetBank.of(targets, design)
    for name in ("loadings", "lam_max"):
        np.testing.assert_allclose(getattr(bank, name), getattr(direct, name), rtol=1e-12,
                                   atol=0, err_msg=name)


def test_bank_refuses_targets_of_another_length_than_the_design():
    design = LassoDesign(np.ones((4, 2)))
    for rows in (np.ones(5), np.ones((3, 5)), np.ones(3)):
        with pytest.raises(ValueError, match=f"targets of length {rows.shape[-1]} "
                                             "on a design of 4 rows"):
            TargetBank.of(rows, design)


@pytest.mark.parametrize("paired", [-1, 2.5, True, 4])
def test_bank_refuses_a_paired_count_that_is_not_a_count_of_its_rows(paired):
    # a bank pairs its own first rows: a negative, fractional or boolean
    # count, or one past the given rows, names no set of them
    rows = np.ones((3, 4))
    with pytest.raises(ValueError, match="paired"):
        TargetBank.of(rows, LassoDesign(np.eye(4)), paired=paired)


def test_bank_of_a_vector_is_a_one_row_bank():
    rng = np.random.default_rng(8)
    n, m = 200, 60
    X = rng.standard_normal((n, m))
    y = X[:, [2, 9, 30]] @ np.array([2.0, -1.5, 1.0]) + rng.standard_normal(n)
    lam = penalty_level(n, 1, m)
    design = LassoDesign(X)
    vec, block = TargetBank.of(y, design), TargetBank.of(y[None], design)
    for bank in (vec, block):
        assert len(bank) == 1 and bank.n == n and bank.design is design
        np.testing.assert_array_equal(bank.rows, y[None])
        np.testing.assert_allclose(bank.xty[0], unit_columns(design).T @ y, rtol=1e-12)
        np.testing.assert_allclose(bank.loadings[0, 0], initial_loadings(design, y),
                                   rtol=1e-12)
    np.testing.assert_array_equal(vec.xty, block.xty)
    np.testing.assert_array_equal(vec.loadings, block.loadings)
    fit = iterated_lasso(vec, 0, lam)
    assert fit.active_set.size > 0
    assert_same_fit(fit, iterated_lasso(block, 0, lam))


# ---------------------------------------------------------------- empty-set screen

def screen_problem(seed):
    """A small design with five zero rows at the end, and its targets by kind.

    Column 4 is nonzero only on rows 0-4, where the ``zero_loading`` target
    has zero deviation from its mean (exactly: its values are integers that
    sum to zero), so that column's loadings are zero.
    """
    rng = np.random.default_rng(seed)
    n, m = 40, 8
    X = rng.standard_normal((n, m))
    X[5:, 4] = 0.0
    X[-5:] = 0.0
    signal = [X[:, [0, 2]] @ np.array([1.5, -1.0]) + s * rng.standard_normal(n)
              for s in (0.5, 3.0)]
    noise = list(rng.standard_normal((3, n)))
    # its mean sits on the zero rows, so the empty set's refined loadings are
    # far below the initial ones: the second round admits what the first did not
    shifted = np.zeros(n)
    shifted[:-5] = 0.5 * (X[:-5, 0] + rng.standard_normal(n - 5))
    shifted[-5:] = 40.0
    one_row = np.zeros(n)
    one_row[-1] = 1.0
    zero_loading = np.zeros(n)
    zero_loading[5:-1] = rng.permutation(np.repeat([-1.0, 1.0], 17))
    kinds = {
        "regular": signal + noise + [
            shifted,
            X[:, 3].copy(),  # sets perfect_fit once column 3 enters
            one_row,  # lives on a zero row: loadings_degenerate on the empty set
        ],
        "constant": [np.full(n, 2.0)],  # all-zero initial loadings
        "zero_loading": [zero_loading],
    }
    return X, kinds


def per_equation(bank, lam, cfg):
    """The route without the screen: one ``iterated_lasso`` call per equation.

    Returns each equation's fit, or the class of the exception it raised.
    """
    out = []
    for k in range(len(bank)):
        try:
            out.append(iterated_lasso(bank, k, lam, cfg))
        except FIT_ERRORS as exc:
            out.append(type(exc))
    return out


def test_screen_settles_only_equations_that_end_empty():
    seen = {"settled": 0, "left": 0, "perfect_fit": 0, "second_round_admits": 0}
    for seed in range(3):
        X, kinds = screen_problem(seed)
        n, m = X.shape
        banks = {
            "regular": kinds["regular"],
            "constant": kinds["regular"] + kinds["constant"],
            "zero_loading": kinds["zero_loading"] + kinds["regular"],
        }
        for name, rows in banks.items():
            for n_loadings in (1, 2, 15):
                # c from near 0 up to a level where every screen admits nothing
                for c in np.geomspace(1e-4, 30.0, 9):
                    cfg = LassoConfig(c=c, gamma=0.1, n_loadings=n_loadings)
                    lam = penalty_level(n, len(rows), m, cfg)
                    screened, plain = LassoDesign(X), LassoDesign(X)
                    bank = TargetBank.of(np.array(rows), screened)
                    want = per_equation(TargetBank.of(np.array(rows), plain), lam, cfg)
                    settled = bank.settled_empty(lam, cfg)
                    first = bank.settled_empty(lam, dataclasses.replace(cfg, n_loadings=1))
                    seen["second_round_admits"] += int((first & ~settled).sum())
                    for k, fit in enumerate(want):
                        if settled[k]:
                            assert isinstance(fit, LassoFit) and fit.active_set.size == 0
                            seen["settled"] += 1
                        elif isinstance(fit, LassoFit):
                            seen["left"] += 1
                            seen["perfect_fit"] += fit.perfect_fit
                    errors = [f for f in want if isinstance(f, type)]
                    if name == "regular":
                        assert not errors
                        got = first_stage_select(bank, cfg)
                        assert len(got) == len(want)
                        for g, w in zip(got, want):
                            np.testing.assert_array_equal(g, w.active_set)
                        # settled equations form no Gram rows, as their solves did not
                        assert screened.rows_formed == plain.rows_formed
                        if settled.all():
                            assert screened.rows_formed == 0
                        continue
                    expected = DegenerateLoadingsError if name == "constant" else ValueError
                    assert errors[0] is expected
                    with pytest.raises(SelectionError) as err:
                        first_stage_select(bank, cfg)
                    assert type(err.value.__cause__) is errors[0]
    # every branch of the screen was taken
    assert all(seen.values()), seen


def test_a_subset_screens_as_its_rows_of_the_whole_bank():
    X, kinds = screen_problem(2)
    n, m = X.shape
    rows = np.array(kinds["regular"] + kinds["constant"] + kinds["zero_loading"])
    bank = TargetBank.of(rows, LassoDesign(X))
    # every target, some twice, out of order; and no target
    permuted = np.random.default_rng(0).permutation(np.r_[np.arange(len(rows)), 0, 3, 5])
    lams = [penalty_level(n, len(rows), m, LassoConfig(c=c, gamma=0.1))
            for c in np.geomspace(1e-2, 30.0, 7)]
    for n_loadings in (1, 15):
        cfg = LassoConfig(n_loadings=n_loadings)
        for lam in lams:
            whole = bank.settled_empty(lam, cfg)
            assert whole.shape == (len(rows),)
            for cols in (permuted, permuted.tolist(), []):
                np.testing.assert_array_equal(bank.subset(cols).settled_empty(lam, cfg),
                                              whole[np.asarray(cols, dtype=int)])
    # the bank's own arrays are left as they were
    np.testing.assert_array_equal(bank.xty, LassoDesign(X).product(rows))


def test_screen_agrees_with_the_solver_at_its_threshold():
    # +-1 entries make every loading exactly 1 and every x_j't an integer, so
    # at lam = 2 max |x_j't| the top column sits exactly on the threshold
    rng = np.random.default_rng(5)
    n, m = 8, 3
    X = rng.choice([-1.0, 1.0], size=(n, m))
    t = rng.permutation(np.repeat([-1.0, 1.0], n // 2))
    bank = TargetBank.of(np.array([t, -t]), LassoDesign(X))
    np.testing.assert_array_equal(bank.loadings[0], 1.0)
    np.testing.assert_array_equal(bank.loadings[1], 1.0)
    top = np.abs(bank.xty).max()
    assert top > 0
    for n_loadings in (1, 15):
        cfg = LassoConfig(n_loadings=n_loadings)
        # on the threshold and above it the screen settles, as the solver
        # takes no step there; one float below, it leaves the equation to the
        # solver, which admits a column
        assert bank.settled_empty(np.nextafter(2 * top, np.inf), cfg).tolist() == [True, True]
        assert bank.settled_empty(2 * top, cfg).tolist() == [True, True]
        assert bank.settled_empty(np.nextafter(2 * top, 0.0), cfg).tolist() == [False, False]
        for k in range(2):
            fit = iterated_lasso(bank, k, 2 * top, cfg)
            assert fit.active_set.size == 0 and fit.iterations == 0
            first = iterated_lasso(bank, k, np.nextafter(2 * top, 0.0), LassoConfig(n_loadings=1))
            assert first.active_set.size > 0


def solver_settles(bank, lam, cfg):
    """The screen by the solver: do the first solve of each equation, and the
    second unless its empty-set record is a flag, admit nothing?"""

    def admits_none(xty, psi):
        # an equation with a loading that is not positive and finite is never
        # settled; a path that admits nothing takes no step, and one that
        # cannot end (an infinite X't) admits something
        if not ((psi > 0.0) & np.isfinite(psi)).all():
            return False
        try:
            return lasso_solve(bank.design, xty, lam, psi).iterations == 0
        except ConvergenceError:
            return False

    out = []
    for j in bank.cols:
        done = admits_none(bank.xty[j], bank.loadings[0, j])
        if cfg.n_loadings > 1 and not isinstance(bank.rounds[j][b""][0], str):
            done = done and admits_none(bank.xty[j], bank.loadings[1, j])
        out.append(done)
    return np.array(out, dtype=bool)


def near_each_level(lam_max):
    """Penalty levels at every finite lam_max and one float to each side."""
    finite = np.unique(lam_max[np.isfinite(lam_max)])
    return [*finite, *np.nextafter(finite, 0.0), *np.nextafter(finite, np.inf)]


def with_arrays(bank, xty, *rounds):
    """``bank`` with other cross products and loading rounds, their records
    and their lam_max."""
    loadings = np.stack(rounds)
    return dataclasses.replace(
        bank, xty=xty, loadings=loadings,
        lam_max=lasso_module._lam_max(bank.design, xty, loadings),
        rounds=[{None: (psi0, []), b"": (psi1, [])} for psi0, psi1 in zip(*loadings)])


def test_lam_max_is_the_first_level_of_each_rounds_path():
    X, kinds = screen_problem(0)
    rows = np.array(kinds["regular"] + kinds["constant"] + kinds["zero_loading"])
    design = LassoDesign(X)
    bank = TargetBank.of(rows, design)
    for r, key in enumerate((None, b"")):
        for j, psi in enumerate(bank.loadings[r]):
            record = bank.rounds[j][key][0]
            if isinstance(record, str):
                # the call ends after round 0
                assert r == 1 and bank.lam_max[r, j] == -np.inf
            elif not ((psi > 0.0) & np.isfinite(psi)).all():
                # the call raises
                assert np.isnan(bank.lam_max[r, j])
            else:
                path = []
                lasso_solve(design, bank.xty[j], np.inf, psi, path)
                assert bank.lam_max[r, j] == path[0][0]
    # the one-row target has X't = 0, so a lam_max of 0, and zero refined
    # loadings, a flag; the constant target has zero initial loadings and
    # the zero-loading target zero loadings on column 4 in both rounds
    one_row, constant, zero_loading = len(kinds["regular"]) - 1, len(rows) - 2, len(rows) - 1
    assert bank.lam_max[0, one_row] == 0.0 and bank.lam_max[1, one_row] == -np.inf
    assert np.flatnonzero(np.isnan(bank.lam_max[0])).tolist() == [constant, zero_loading]
    assert np.flatnonzero(np.isnan(bank.lam_max[1])).tolist() == [zero_loading]
    assert bank.subset([3, 0]).lam_max is bank.lam_max


def check_screen_is_the_solver(name, bank, seen):
    """At every finite lam_max of ``bank``, one float to each side, and at
    the ends of the range, for 1, 2 and 15 loading rounds: the screen
    settles an equation exactly when the solver's first rounds take no
    step. ``seen`` counts the settled and the unsettled equations by bank."""
    lams = near_each_level(bank.lam_max) + [0.0, 5e-324, 1.0, np.finfo(float).max, np.inf]
    for n_loadings in (1, 2, 15):
        cfg = LassoConfig(n_loadings=n_loadings)
        for lam in lams:
            got = bank.settled_empty(lam, cfg)
            np.testing.assert_array_equal(got, solver_settles(bank, lam, cfg),
                                          err_msg=f"{name} lam={lam!r} {cfg}")
            seen[name, "settled"] += int(got.sum())
            seen[name, "left"] += int((~got).sum())


def test_screen_settles_exactly_what_the_solver_settles():
    seen = collections.Counter()
    for seed in range(3):
        X, kinds = screen_problem(seed)
        for name, rows in {
            "regular": kinds["regular"],
            "constant": kinds["regular"] + kinds["constant"],
            "zero_loading": kinds["zero_loading"] + kinds["regular"],
        }.items():
            check_screen_is_the_solver(name, TargetBank.of(np.array(rows), LassoDesign(X)), seen)
    # a column whose squares sum to under the smallest float times n reads
    # as a zero column with a zero Gram diagonal, which no path enters,
    # though a target large on its rows gives it positive loadings and the
    # largest ratio |x_l't| / psi_l of one row
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 5))
    X[:, 2] = 0.0
    X[:3, 2] = 5e-162
    rows = 10.0 * rng.standard_normal((4, 40))
    rows[:, :3] = 1e3 * rng.standard_normal((4, 3))
    bank = TargetBank.of(rows, LassoDesign(X))
    assert bank.design.diag[2] == 0.0 and (bank.loadings[:, :, 2] > 0.0).all()
    check_screen_is_the_solver("zero_diagonal", bank, seen)
    assert len(seen) == 8 and all(seen.values()), seen


def test_level_screen_is_sound_and_complete_at_the_ends_of_the_float_range():
    # the screen is exact, so sound and complete, on cross products and
    # loadings set by hand at the ends of the float range
    rng = np.random.default_rng(3)
    n, m = 20, 4
    X = rng.standard_normal((n, m))
    tiny = np.finfo(float).tiny
    # (|x't|, psi) per row: loadings near and in the subnormal range, a zero
    # loading, subnormal cross products (one with two significant bits), a
    # subnormal ratio, zero cross products, ratios that overflow and an
    # infinite cross product
    cases = [
        ([1e-300, 3e-301, 0.0, 2e-300], [tiny, 2 * tiny, 0.5 * tiny, tiny]),
        ([1e-300, 1e-300, 5e-301, 1e-300], [1e-310, 1e-310, 3e-311, 5e-324]),
        ([1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 1.0, 1.0]),
        ([1e-310, 3e-312, 5e-324, 0.0], [1.0, 1.0, 1.0, 1.0]),
        ([1e-310, 1e-312, 2e-310, 0.0], [1e-20, 1e-20, 1e-21, 1e-20]),
        ([1.5e-323, 0.0, 0.0, 0.0], [1e-20, 1.0, 1.0, 1.0]),
        ([1e-300, 0.0, 0.0, 0.0], [1e20, 1.0, 1.0, 1.0]),
        ([0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]),
        ([1e10, 1.0, 2.0, 3.0], [1e-300, 1.0, 1.0, 1.0]),
        ([1e300, 1.0, 2.0, 3.0], [1e-10, 1.0, 1.0, 1.0]),
        ([np.inf, 1.0, 2.0, 3.0], [4.0, 1.0, 1.0, 1.0]),
        ([3.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0]),
    ]
    xty = np.array([c[0] for c in cases])
    psi = np.array([c[1] for c in cases])
    # round 1 reads the same loadings scaled, so its lam_max differs
    bank = with_arrays(TargetBank.of(rng.standard_normal((len(cases), n)), LassoDesign(X)),
                       xty, psi, 0.5 * psi)
    # a zero loading gives NaN, an overflowing ratio inf, zero cross products 0
    assert np.isnan(bank.lam_max[:, 2]).all() and np.isinf(bank.lam_max[:, 8]).all()
    assert (bank.lam_max[:, 7] == 0.0).all()
    seen = collections.Counter()
    check_screen_is_the_solver("float_range", bank, seen)
    assert len(seen) == 2 and all(seen.values()), seen


def test_route_matches_one_solve_per_equation_near_each_level(monkeypatch):
    X, kinds = screen_problem(1)
    n, m = X.shape
    banks = {
        "regular": kinds["regular"],
        "constant": kinds["regular"] + kinds["constant"],
        "zero_loading": kinds["zero_loading"] + kinds["regular"],
    }
    seen = {"settled": 0, "left_empty": 0, "left": 0, "flagged": 0, "failed": 0}
    for name, rows in banks.items():
        rows = np.array(rows)
        lams = near_each_level(TargetBank.of(rows, LassoDesign(X)).lam_max)
        for n_loadings in (1, 15):
            cfg = LassoConfig(gamma=0.1, n_loadings=n_loadings)
            for lam in lams:
                screened, plain = LassoDesign(X), LassoDesign(X)
                bank = TargetBank.of(rows, screened)
                want = per_equation(TargetBank.of(rows, plain), lam, cfg)
                settled = bank.settled_empty(lam, cfg)
                np.testing.assert_array_equal(settled, solver_settles(bank, lam, cfg))
                for k, fit in enumerate(want):
                    if isinstance(fit, type):
                        seen["failed"] += 1
                    elif settled[k]:
                        assert fit.active_set.size == 0
                        seen["settled"] += 1
                    else:
                        # an equation left to its call may still end empty,
                        # after its path took steps
                        seen["left_empty" if fit.active_set.size == 0 else "left"] += 1
                        seen["flagged"] += fit.perfect_fit or fit.loadings_degenerate
                errors = [f for f in want if isinstance(f, type)]
                monkeypatch.setattr(selection_module, "penalty_level", lambda *a, **k: lam)
                if not errors:
                    got = first_stage_select(bank, cfg)
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        np.testing.assert_array_equal(g, w.active_set)
                else:
                    with pytest.raises(SelectionError) as err:
                        first_stage_select(bank, cfg)
                    assert type(err.value.__cause__) is errors[0]
                monkeypatch.undo()
    assert all(seen.values()), seen


def test_prefilled_empty_set_memo_matches_refine():
    X, kinds = screen_problem(1)
    rows = np.array(kinds["regular"] + kinds["constant"] + kinds["zero_loading"])
    design = LassoDesign(X)
    empty = np.array([], dtype=int)
    bank = TargetBank.of(rows, design)
    refs = [lasso_module._refine(design, t, empty) for t in rows]
    flags = []
    for j, ref in enumerate(refs):
        records = bank.rounds[j]
        assert list(records) == [None, b""]
        assert all(path == [] for _, path in records.values())
        np.testing.assert_array_equal(records[None][0], bank.loadings[0, j])
        if isinstance(ref, str):
            assert records[b""][0] == ref
            flags.append(ref)
        else:
            np.testing.assert_allclose(records[b""][0], ref, rtol=1e-12)
            np.testing.assert_array_equal(records[b""][0], bank.loadings[1, j])
    # the empty set's residual is the target, whose sd is finite, so it is
    # never a perfect fit
    assert flags == ["loadings_degenerate"]


# ---------------------------------------------------------------- path failures

def test_step_bound_raised_by_the_path_and_named_by_each_stage(monkeypatch):
    # AR(1) columns at rho = 0.9: on the way to OLS (lam = 0) both paths
    # drop a column and take it back, so they need more steps than the 20
    # columns; with one step per column allowed, each raises
    rng = np.random.default_rng(0)
    n, m = 100, 20
    X = _oracles.toeplitz_column_loop(n, m, 0.9, rng)
    P = X[:, :2] + 0.1 * rng.standard_normal((n, 2))
    y = X[:, 0] - X[:, 1] + rng.standard_normal(n)
    design = LassoDesign(X)
    steps = [solve(X, t, 0.0, initial_loadings(design, t)).iterations for t in (P[:, 0], y)]
    assert min(steps) > min(n, m), steps
    monkeypatch.setattr(lasso_module, "_STEPS_PER_COLUMN", 1)
    monkeypatch.setattr(selection_module, "penalty_level", lambda *a, **k: 0.0)
    with pytest.raises(ConvergenceError, match="step bound of 20 steps"):
        solve(X, y, 0.0, initial_loadings(design, y))
    with pytest.raises(ConvergenceError, match="step bound of 20 steps"):
        iterate(X, y, 0.0)
    with pytest.raises(SelectionError, match="first-stage equation 0.*step bound"):
        first_stage_select(bank_of(P, design))
    with pytest.raises(SelectionError, match="reduced-form equation.*step bound"):
        reduced_form_select(bank_of(y, design))
    with pytest.raises(SelectionError):
        post_double_select(bank_of(P, design), bank_of(y, design))


def hadamard_columns():
    """Eight orthogonal columns of +-1 entries, 8 rows: every Gram entry,
    scale and cross product below is exact."""
    H = np.array([[1.0]])
    for _ in range(3):
        H = np.block([[H, H], [H, -H]])
    return H


def test_a_tie_enters_the_lowest_column():
    # columns 1 and 3 are the same column, so they cross every level
    # together; the path enters the lower one, after which the other sits
    # on its bound and never enters
    H = hadamard_columns()
    X = H[:, [0, 1, 2, 1]]
    y = H[:, 0] + 3.0 * H[:, 1]
    design = LassoDesign(X)
    np.testing.assert_array_equal(design.product(y), [8.0, 24.0, 0.0, 24.0])
    for lam in (47.0, 20.0, 1.0):
        fit = lasso_solve(design, design.product(y), lam, np.ones(4))
        np.testing.assert_array_equal(fit.active_set, [1] if lam > 16.0 else [0, 1])
        assert fit.iterations == fit.active_set.size
        # t_1 = (24 - lam / 2) / 8
        assert fit.coefficients[1] == (24.0 - lam / 2.0) / 8.0
    assert lasso_solve(design, design.product(y), 48.0, np.ones(4)).iterations == 0


def test_a_singular_set_raises():
    # two copies of one column told apart by their cross products (inputs
    # no sample gives them): the path enters the first, then the second
    # with the other sign, and the Gram block of the two is singular
    H = hadamard_columns()
    design = LassoDesign(H[:, [0, 1, 1]])
    xty = np.array([0.0, 24.0, 8.0])
    # the second copy enters where 24 - 8 t_1 - 8 = -lam / 2: at lam = 16
    fit = lasso_solve(design, xty, 17.0, np.ones(3))
    np.testing.assert_array_equal(fit.active_set, [1])
    with pytest.raises(ConvergenceError, match="singular or non-finite system on 2 columns"):
        lasso_solve(design, xty, 15.0, np.ones(3))


def solve_spy(monkeypatch):
    """Record each ``lasso_solve`` call that ``iterated_lasso`` makes, as
    (the steps it added to its path, the Gram rows it formed), whether it
    returns or raises; the caller clears the list."""
    calls = []

    def spy(design, xty, lam, loadings, path=None):
        formed, visited = design.rows_formed, len(path)
        try:
            return lasso_solve(design, xty, lam, loadings, path)
        finally:
            calls.append((len(path) - visited, design.rows_formed - formed))

    monkeypatch.setattr(lasso_module, "lasso_solve", spy)
    return calls


def outcome(bank, k, lam, cfg):
    """``iterated_lasso(bank, k, lam, cfg)``, or the class and message of
    its exception."""
    try:
        return iterated_lasso(bank, k, lam, cfg)
    except FIT_ERRORS as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    """Two calls on one equation with the same fit, bit for bit but for its
    ``iterations``, or the same exception class and message."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, LassoFit)
    np.testing.assert_array_equal(got.active_set, want.active_set)
    # bit for bit, so the signs too
    for name in ("coefficients", "loadings"):
        np.testing.assert_array_equal(getattr(got, name).view(np.int64),
                                      getattr(want, name).view(np.int64), err_msg=name)
    for flag in ("lam", "converged", "perfect_fit", "loadings_degenerate"):
        assert getattr(got, flag) == getattr(want, flag), flag


def check_any_order(rows, X, lams, cfg, rng, calls, seen):
    """Call every equation of the bank of ``rows`` on ``X`` at every level
    of ``lams``, in a shuffled order, on one bank whose paths each call
    reads or extends, and check each against a call on a fresh bank; a
    solve forms Gram rows only when it adds steps to its path. ``seen``
    counts the calls that add no step, those that do, and the exceptions
    by class name."""
    bank = TargetBank.of(rows, LassoDesign(X))
    wants = [[outcome(TargetBank.of(rows, LassoDesign(X)), k, lam, cfg)
              for k in range(len(rows))] for lam in lams]
    order = [(i, k) for i in range(len(lams)) for k in range(len(rows))]
    rng.shuffle(order)
    for i, k in order:
        calls.clear()
        formed = bank.design.rows_formed
        got = outcome(bank, k, lams[i], cfg)
        assert_same_outcome(got, wants[i][k])
        assert all(steps or not rows for steps, rows in calls), calls
        assert bank.design.rows_formed - formed == sum(rows for _, rows in calls)
        added = any(steps for steps, _ in calls)
        if isinstance(got, tuple):
            seen[got[0].__name__] += 1
        else:
            seen["extended" if added else "read"] += 1


def test_every_round_is_a_fresh_solve_in_any_call_order(monkeypatch):
    # every equation of the screen_problem banks, at penalty levels near one
    # and further off, at the threshold where each round's path takes its
    # first step and one float below it, and at inf, called in a shuffled
    # order on one bank: each call reads its rounds off the paths earlier
    # calls took or extends them, and returns the fit of a call on a fresh
    # bank, or raises its exception
    calls = solve_spy(monkeypatch)
    rng = np.random.default_rng(0)
    seen = collections.Counter()
    for seed in range(3):
        X, kinds = screen_problem(seed)
        n, m = X.shape
        rows = np.array(kinds["regular"] + kinds["constant"] + kinds["zero_loading"])
        lam_max = TargetBank.of(rows, LassoDesign(X)).lam_max
        thresholds = np.unique(lam_max[np.isfinite(lam_max)])
        for n_loadings in (1, 2, 15):
            for c in np.geomspace(0.05, 3.0, 3):
                cfg = LassoConfig(c=c, gamma=0.1, n_loadings=n_loadings)
                lam = penalty_level(n, len(rows), m, cfg)
                lams = [lam, np.nextafter(lam, 0.0), np.nextafter(lam, np.inf),
                        lam * (1.0 - 1e-12), lam * (1.0 + 1e-12), 0.97 * lam, 1.03 * lam,
                        0.5 * lam, *thresholds, *np.nextafter(thresholds, 0.0), np.inf]
                check_any_order(rows, X, lams, cfg, rng, calls, seen)
    assert set(seen) == {"read", "extended", "DegenerateLoadingsError", "ValueError"}, seen


def test_a_path_that_raises_raises_again_where_it_must_go_further(monkeypatch):
    # AR(1) columns at rho = 0.9 with one step per column allowed: the paths
    # to low levels pass the step bound, those to higher ones do not; a call
    # that must go further than a path that raised raises the same error,
    # and one that stops before it reads its fit off the path
    calls = solve_spy(monkeypatch)
    monkeypatch.setattr(lasso_module, "_STEPS_PER_COLUMN", 1)
    rng = np.random.default_rng(0)
    n, m = 100, 20
    X = _oracles.toeplitz_column_loop(n, m, 0.9, rng)
    rows = np.array([X[:, 0] + 0.1 * rng.standard_normal(n),
                     X[:, 0] - X[:, 1] + rng.standard_normal(n)])
    lam = penalty_level(n, len(rows), m, LassoConfig(gamma=0.1))
    lams = [0.0, 1e-3 * lam, 0.01 * lam, 0.1 * lam, 0.5 * lam, lam]
    seen = collections.Counter()
    for n_loadings in (1, 15):
        check_any_order(rows, X, lams, LassoConfig(gamma=0.1, n_loadings=n_loadings),
                        rng, calls, seen)
    assert set(seen) == {"read", "extended", "ConvergenceError"}, seen


def test_a_singular_set_raises_again_on_a_recorded_path():
    # the repeated column of test_a_singular_set_raises: a path that met the
    # singular set keeps the sets before it, so a solve that stops before
    # it reads its fit off the path, and one that must go further raises
    # the same error as a fresh solve
    def outcome_of_solve(design, lam, path=None):
        try:
            return lasso_solve(design, xty, lam, np.ones(3), path)
        except ConvergenceError as exc:
            return type(exc), str(exc)

    X = hadamard_columns()[:, [0, 1, 1]]
    xty = np.array([0.0, 24.0, 8.0])
    lams = [15.0, 17.0, 0.0, 48.0, 16.5, 15.0, np.inf, 20.0]
    order = np.random.default_rng(1).permutation(len(lams)).tolist()
    for first in (order, order[::-1]):
        design, path = LassoDesign(X), []
        for i in first:
            assert_same_outcome(outcome_of_solve(design, lams[i], path),
                                outcome_of_solve(LassoDesign(X), lams[i]))
        assert len(path) == 3 and path[-1][3] is None


def test_every_solve_of_a_shifted_outcome_fit_is_exact_within_the_step_bound(monkeypatch):
    # replication 0 of the low_dim n = 500 simulation at seed 0 (the sample
    # ``pds-series simulate --seed 0 --dump-sample`` writes) with y + 100, on
    # the Hermite tensor workspace, at the fixed degree n^(1/3) and over the
    # BIC grid with the extended first stage: every solve of both meets its
    # KKT conditions, and no path takes more steps than the bound
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(0,)))
    data = generate_sample(DgpConfig("low_dim", 500), rng)
    data.y = data.y + 100.0
    degree = selection_module.default_degree(data.n)
    spec_q = DictionarySpec("hermite_tensor", degree=degree, input_dim=data.Z.shape[1])
    solves, target = [], []

    def equation(bank, k, lam, config=LassoConfig()):
        target[:] = [bank.rows[bank.cols[k]]]
        return iterated_lasso(bank, k, lam, config)

    def spy(design, xty, lam, loadings, path=None):
        fit = lasso_solve(design, xty, lam, loadings, path)
        solves.append((design, target[0], fit, len(path) - 1))
        return fit

    monkeypatch.setattr(selection_module, "iterated_lasso", equation)
    monkeypatch.setattr(lasso_module, "lasso_solve", spy)
    for grid, extended_fs in (([degree], False), (selection_module.default_k_grid(data.n), True)):
        design = build_design(spec_q, data.Z)
        choose_k_bic(data, design, grid, extended_fs=extended_fs)
        U = unit_columns(design)
        bound = lasso_module._STEPS_PER_COLUMN * min(design.shape)
        for design_k, y, fit, steps in solves:
            assert design_k is design and fit.converged
            assert fit.iterations <= steps <= bound
            assert kkt_max_violation(U, y, fit) <= 1e-9 * fit.lam * fit.loadings.max()
        assert any(fit.active_set.size for _, _, fit, _ in solves)
        solves.clear()
