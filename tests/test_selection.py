"""Selection stages, the final OLS, and the comparison estimators."""

import numpy as np
import pytest

from _oracles import workspace_of
from pdsseries import dictionary, selection
from pdsseries.data import Dataset
from pdsseries.dictionary import DictionarySpec, build_design
from pdsseries.lasso import (
    LassoConfig,
    default_gamma,
    iterated_lasso,
    kkt_max_violation,
    penalty_level,
)
from pdsseries.montecarlo import DgpConfig, default_specs, generate_sample
from pdsseries.selection import (
    ESTIMATOR_LABELS,
    ESTIMATORS,
    SelectionError,
    choose_k_bic,
    comparison_estimators,
    default_degree,
    default_k_grid,
    first_stage_select,
    integer_root,
    pds_fit,
    post_double_select,
    reduced_form_select,
    resolve_gamma,
)


def make_low_dim_like(n=240, seed=1, sigma=1.0):
    """Small additively separable sample with a 4-column z block."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, 4))
    h = np.tanh(Z[:, 0] + Z[:, 1])
    x = h + rng.standard_normal(n)
    y = x - 0.1 * x**3 + h + sigma * rng.standard_normal(n)
    return Dataset(y=y, x=x, Z=Z, h_true=h)


def make_specs(data, degree=3, q_degree=3):
    spec_p = DictionarySpec("hermite_univariate", degree=degree)
    spec_q = DictionarySpec("hermite_tensor", degree=q_degree,
                            input_dim=data.Z.shape[1])
    return spec_p, spec_q


# ---------------------------------------------------------------- helpers

def test_integer_root_exact():
    assert integer_root(0, 3) == 0
    assert integer_root(7, 3) == 1
    assert integer_root(8, 3) == 2
    assert integer_root(63, 3) == 3
    assert integer_root(64, 3) == 4
    assert integer_root(10**18, 3) == 10**6
    assert integer_root((10**6 + 1) ** 3 - 1, 3) == 10**6
    assert integer_root(10**8, 4) == 100
    with pytest.raises(ValueError):
        integer_root(-1, 3)
    with pytest.raises(ValueError):
        integer_root(5, 0)


def test_default_degree_and_grid():
    assert default_degree(500) == 7
    assert default_degree(1000) == 10
    assert default_k_grid(500) == range(3, 16)
    assert default_k_grid(1000) == range(5, 21)
    # the lower endpoint never drops below 1
    assert default_k_grid(9).start == 1


def test_resolve_gamma():
    cfg = LassoConfig(gamma=0.07)
    assert resolve_gamma(cfg, 100, 3, 50).gamma == 0.07
    out = resolve_gamma(LassoConfig(), 100, 3, 50)
    assert out.gamma == pytest.approx(default_gamma(100, 3, 50))


# ---------------------------------------------------------------- stages

def test_union_is_union_of_stage_sets():
    data = make_low_dim_like()
    spec_p, spec_q = make_specs(data)
    d = build_design(spec_p, spec_q, data.x, data.Z)
    sel = post_double_select(d.P, d, data.y)
    pieces = [s for s in sel.fs_sets if s.size]
    if sel.rf_set.size:
        pieces.append(sel.rf_set)
    want = np.unique(np.concatenate(pieces)) if pieces else np.array([], int)
    np.testing.assert_array_equal(sel.union_set, want)
    assert len(sel.fs_sets) == d.n_p


def test_double_selection_contains_single_and_fits_tighter():
    data = make_low_dim_like(seed=4)
    spec_p, spec_q = make_specs(data)
    d = build_design(spec_p, spec_q, data.x, data.Z)
    cfg = resolve_gamma(LassoConfig(), data.n, d.n_p, d.Q.shape[1])
    sel = post_double_select(d.P, d, data.y, cfg)
    rf_set = reduced_form_select(d, data.y, cfg)
    assert set(rf_set.tolist()) <= set(sel.union_set.tolist())
    fit_pd = pds_fit(d.p_raw, d.q_raw(sel.union_set), data.y, sel)
    fit_ps = pds_fit(d.p_raw, d.q_raw(rf_set), data.y, rf_set)
    rss_pd = fit_pd.residuals @ fit_pd.residuals
    rss_ps = fit_ps.residuals @ fit_ps.residuals
    assert rss_pd <= rss_ps + 1e-9


def test_noiseless_linear_model_recovered_exactly():
    rng = np.random.default_rng(9)
    n = 300
    Z = rng.standard_normal((n, 6))
    x = rng.standard_normal(n)
    y = 3.0 + 2.0 * x + 1.5 * Z[:, 0] - 2.5 * Z[:, 3]
    data = Dataset(y=y, x=x, Z=Z)
    spec_p = DictionarySpec("hermite_univariate", degree=2)
    spec_q = DictionarySpec("raw_coordinates", input_dim=6)
    d = build_design(spec_p, spec_q, data.x, data.Z)
    sel = post_double_select(d.P, d, data.y)
    assert {0, 3} <= set(sel.union_set.tolist())
    fit = pds_fit(d.p_raw, d.q_raw(sel.union_set), data.y, sel, spec_p=spec_p)
    assert fit.beta_hat[0] == pytest.approx(2.0, abs=1e-8)
    assert fit.beta_hat[1] == pytest.approx(0.0, abs=1e-8)
    assert fit.eta_hat[0] == pytest.approx(3.0, abs=1e-8)
    assert np.max(np.abs(fit.residuals)) < 1e-8
    # predict_g follows the raw-dictionary convention (no intercept)
    np.testing.assert_allclose(fit.predict_g(np.array([0.5])),
                               [2.0 * 0.5], atol=1e-8)


def test_selection_error_names_equation():
    rng = np.random.default_rng(5)
    n = 50
    Q = rng.standard_normal((n, 3))
    Q[:, 1] = 0.0  # degenerate column reaches the solver untouched
    P = rng.standard_normal((n, 2))
    design = workspace_of(Q)
    with pytest.raises(SelectionError, match="first-stage equation 0"):
        first_stage_select(P, design)
    with pytest.raises(SelectionError, match="reduced-form equation"):
        reduced_form_select(design, rng.standard_normal(n))


# ---------------------------------------------------------------- final OLS

def test_pds_fit_accepts_selection_or_indices():
    data = make_low_dim_like(seed=6)
    spec_p, spec_q = make_specs(data)
    d = build_design(spec_p, spec_q, data.x, data.Z)
    sel = post_double_select(d.P, d, data.y)
    Q_sel = d.q_raw(sel.union_set)
    via_sel = pds_fit(d.p_raw, Q_sel, data.y, sel)
    via_idx = pds_fit(d.p_raw, Q_sel, data.y, sel.union_set)
    np.testing.assert_array_equal(via_sel.beta_hat, via_idx.beta_hat)
    np.testing.assert_array_equal(via_sel.selected, via_idx.selected)
    assert via_sel.n == data.n
    assert via_sel.Q_sel.shape == (data.n, sel.union_set.size)
    # the whole raw block is not a selection of its columns
    full = d.q_raw(np.arange(d.Q.shape[1]))
    with pytest.raises(ValueError, match="one raw column per selected index"):
        pds_fit(d.p_raw, full, data.y, sel)


def test_pds_fit_flags_rank_deficiency(rng):
    n = 40
    P = rng.standard_normal((n, 2))
    Q = np.concatenate([P[:, :1], P[:, :1]], axis=1)  # duplicated column
    y = rng.standard_normal(n)
    fit = pds_fit(P, Q, y, np.array([0, 1]))
    assert fit.rank_deficient
    assert np.all(np.isfinite(fit.beta_hat))
    clean = pds_fit(P, np.empty((n, 0)), y, np.array([], dtype=int))
    assert not clean.rank_deficient


def test_predict_g_requires_spec(rng):
    n = 30
    fit = pds_fit(rng.standard_normal((n, 2)), np.empty((n, 0)),
                  rng.standard_normal(n), np.array([], dtype=int))
    with pytest.raises(ValueError, match="dictionary"):
        fit.predict_g(np.zeros(3))


# ---------------------------------------------------------------- BIC grid

def test_choose_k_bic_rule():
    data = make_low_dim_like(n=300, seed=12)
    d = build_design(*make_specs(data), data.x, data.Z)
    res = choose_k_bic(data, d, [2, 3, 4, 5])
    assert res.errors == {}
    assert set(res.bics) == {2, 3, 4, 5}
    want_k_bic = min(res.bics, key=lambda k: (res.bics[k], k))
    assert res.k_bic == want_k_bic
    assert res.k_hat == min(res.k_bic + 1, 5)
    assert res.fits[res.k_hat].k_chosen == res.k_hat
    assert res.fits[res.k_hat].beta_hat.size == res.k_hat


def test_choose_k_bic_clamps_to_grid_max():
    data = make_low_dim_like(n=150, seed=13)
    d = build_design(*make_specs(data), data.x, data.Z)
    res = choose_k_bic(data, d, [3])
    assert res.k_bic == 3 and res.k_hat == 3
    with pytest.raises(ValueError, match="empty"):
        choose_k_bic(data, d, [])


# ---------------------------------------------------------------- estimators

def test_estimator_catalog():
    assert len(ESTIMATORS) == 9
    assert set(ESTIMATOR_LABELS) == set(ESTIMATORS)


def test_comparison_estimators_low_dim_catalog():
    data = make_low_dim_like(n=260, seed=21)
    spec_p, spec_q = make_specs(data)
    fits, failures = comparison_estimators(
        data, spec_p, spec_q, estimators=ESTIMATORS,
        rng=np.random.default_rng(0), k_grid=[2, 3, 4])
    assert failures == {}
    assert set(fits) == set(ESTIMATORS)
    for name, fit in fits.items():
        assert fit.name == name
        assert np.all(np.isfinite(fit.beta_hat))
    # tensor conditioning: series_1 uses additive univariate blocks
    assert fits["series_1"].Q_sel.shape[1] == 4 * spec_q.degree
    assert fits["series_2"].Q_sel.shape[1] == spec_q.n_terms
    assert fits["post_double_set"].k_chosen is not None
    assert fits["post_double"].k_chosen is None
    # the extended first stage can only widen the union
    assert set(fits["post_double"].selected.tolist()) <= \
        set(fits["post_double_ext"].selected.tolist()) | \
        set(fits["post_double"].selected.tolist())


def test_post_single_1_matches_reduced_form_refit():
    data = make_low_dim_like(seed=30)
    spec_p, spec_q = make_specs(data)
    d = build_design(spec_p, spec_q, data.x, data.Z)
    cfg = resolve_gamma(LassoConfig(), data.n, 1, d.Q.shape[1])
    rf_set = reduced_form_select(d, data.y, cfg)
    want = pds_fit(d.p_raw, d.q_raw(rf_set), data.y, rf_set)
    fits, failures = comparison_estimators(data, spec_p, spec_q,
                                           estimators=("post_single_1",))
    assert failures == {}
    np.testing.assert_allclose(fits["post_single_1"].beta_hat, want.beta_hat,
                               rtol=1e-10)
    np.testing.assert_array_equal(fits["post_single_1"].selected, rf_set)


def test_post_single_2_keeps_full_g_dictionary():
    data = make_low_dim_like(seed=31)
    spec_p, spec_q = make_specs(data)
    fits, failures = comparison_estimators(data, spec_p, spec_q,
                                           estimators=("post_single_2",))
    assert failures == {}
    fit = fits["post_single_2"]
    assert fit.beta_hat.size == spec_p.degree
    assert fit.P.shape[1] == spec_p.degree
    assert np.all(fit.selected < spec_q.n_terms)


def test_post_single_2_is_one_joint_lasso_on_both_blocks():
    # Post-Single II penalises every column of the standardised [P, Q] at
    # the single-equation level with M = K + L; rebuild that problem here
    # with a Gram computed from the whole matrix, not from blocks
    cfg = DgpConfig("high_dim", 200, sigma_eps=2.0)
    data = generate_sample(cfg, np.random.default_rng(60))
    spec_p, spec_q = default_specs(cfg)
    d = build_design(spec_p, spec_q, data.x, data.Z)
    X = np.concatenate([d.P, d.Q], axis=1)
    lam = penalty_level(data.n, 1, d.n_p + d.Q.shape[1])
    fit = iterated_lasso(X, data.y, lam)
    want = fit.active_set[fit.active_set >= d.n_p] - d.n_p
    assert want.size > 0
    fits, failures = comparison_estimators(data, spec_p, spec_q,
                                           estimators=("post_single_2",))
    assert failures == {}
    np.testing.assert_array_equal(fits["post_single_2"].selected, want)
    rel_kkt = kkt_max_violation(X, data.y, fit) / (lam * fit.loadings.max())
    assert rel_kkt <= 1e-6


def test_oracle_matches_direct_regression():
    data = make_low_dim_like(seed=32)
    spec_p, spec_q = make_specs(data)
    fits, failures = comparison_estimators(data, spec_p, spec_q,
                                           estimators=("oracle",))
    assert failures == {}
    P = build_design(spec_p, spec_q, data.x, data.Z).p_raw
    X = np.concatenate([np.ones((data.n, 1)), P], axis=1)
    coef = np.linalg.lstsq(X, data.y - data.h_true, rcond=None)[0]
    np.testing.assert_allclose(fits["oracle"].beta_hat, coef[1:], rtol=1e-10)
    assert fits["oracle"].Q_sel.shape == (data.n, 0)


def test_failures_are_isolated():
    data = make_low_dim_like(seed=33)
    data = Dataset(y=data.y, x=data.x, Z=data.Z)  # no h_true
    spec_p, spec_q = make_specs(data)
    fits, failures = comparison_estimators(
        data, spec_p, spec_q, estimators=("post_double", "oracle", "series_2"))
    assert "post_double" in fits
    assert "oracle" in failures and "true h" in failures["oracle"]
    assert "series_2" in fits  # tensor spec never touches the rng
    with pytest.raises(ValueError, match="unknown estimator names"):
        comparison_estimators(data, spec_p, spec_q, estimators=("bogus",))


def test_raw_coordinate_series_benchmarks():
    rng = np.random.default_rng(44)
    n, dz = 100, 200
    Z = rng.standard_normal((n, dz))
    h = Z[:, 0]
    x = h + rng.standard_normal(n)
    y = np.tanh(x) + h + rng.standard_normal(n)
    data = Dataset(y=y, x=x, Z=Z, h_true=h)
    spec_p = DictionarySpec("hermite_univariate", degree=3)
    spec_q = DictionarySpec("raw_coordinates", input_dim=dz)
    fits, failures = comparison_estimators(
        data, spec_p, spec_q, estimators=("series_1", "series_2"),
        rng=np.random.default_rng(7))
    assert failures == {}
    n_keep = (4 * n) // 5
    np.testing.assert_array_equal(fits["series_1"].Q_sel, Z[:, :n_keep])
    assert fits["series_2"].Q_sel.shape == (n, n_keep)
    # series_2 without an rng is a recorded failure, not a crash
    _, failures2 = comparison_estimators(data, spec_p, spec_q,
                                         estimators=("series_2",))
    assert "needs an RNG" in failures2["series_2"]


def test_comparison_estimators_deterministic():
    data = make_low_dim_like(seed=50)
    spec_p, spec_q = make_specs(data)
    out1, _ = comparison_estimators(data, spec_p, spec_q,
                                    estimators=("post_double", "post_single_2"))
    out2, _ = comparison_estimators(data, spec_p, spec_q,
                                    estimators=("post_double", "post_single_2"))
    for name in out1:
        np.testing.assert_array_equal(out1[name].beta_hat, out2[name].beta_hat)
        np.testing.assert_array_equal(out1[name].selected, out2[name].selected)


# ---------------------------------------------------------------- workspace

def test_one_workspace_serves_every_estimator(monkeypatch):
    data = make_low_dim_like(n=260, seed=21)
    spec_p, spec_q = make_specs(data)
    evaluated = []
    real = dictionary.evaluate_dictionary

    def counting(spec, values):
        evaluated.append(spec)
        return real(spec, values)

    monkeypatch.setattr(dictionary, "evaluate_dictionary", counting)
    monkeypatch.setattr(selection, "evaluate_dictionary", counting)
    fits, failures = comparison_estimators(
        data, spec_p, spec_q, estimators=ESTIMATORS,
        rng=np.random.default_rng(0), k_grid=[2, 3, 4])
    assert failures == {}
    assert evaluated.count(spec_q) == 1
    monkeypatch.undo()

    d = build_design(spec_p, spec_q, data.x, data.Z)
    res = choose_k_bic(data, d, [2, 3, 4])
    want = res.fits[res.k_hat]
    got = fits["post_double_set"]
    assert got.k_chosen == want.k_chosen
    np.testing.assert_array_equal(got.selected, want.selected)
    np.testing.assert_array_equal(got.beta_hat, want.beta_hat)
    np.testing.assert_array_equal(got.eta_hat, want.eta_hat)
    # series_2 on a tensor dictionary takes every raw column of the workspace
    idx = np.arange(d.Q.shape[1])
    np.testing.assert_array_equal(fits["series_2"].Q_sel, d.q_raw(idx))
    for idx in (idx, got.selected, np.array([5, 0, 5]), np.array([], dtype=int)):
        np.testing.assert_array_equal(d.q_raw(idx), (d.Q * d.q_scales)[:, idx])


def test_programming_errors_propagate(monkeypatch):
    data = make_low_dim_like(seed=34)
    spec_p, spec_q = make_specs(data)

    # a sweep cap is a fit failure, counted per estimator
    capped = LassoConfig(cd_max_iter=1)
    fits, failures = comparison_estimators(
        data, spec_p, spec_q, capped,
        estimators=("post_double", "post_single_2", "oracle"))
    assert failures["post_double"].startswith("SelectionError")
    assert failures["post_single_2"].startswith("ConvergenceError")
    assert set(fits) == {"oracle"}

    def broken(*args, **kwargs):
        raise TypeError("bug in a stage")

    monkeypatch.setattr(selection, "iterated_lasso", broken)
    with pytest.raises(TypeError, match="bug in a stage"):
        comparison_estimators(data, spec_p, spec_q, estimators=("post_double",))
    with pytest.raises(TypeError, match="bug in a stage"):
        comparison_estimators(data, spec_p, spec_q, estimators=("post_double_set",),
                              k_grid=[2, 3])
