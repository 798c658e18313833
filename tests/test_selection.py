"""Selection stages, the final OLS, and the comparison estimators."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    bank_of,
    build_design_sd,
    choose_k_bic_per_degree,
    g_columns,
    kkt_max_violation,
    leading_cols,
    residualize_p,
    unit_columns,
)
from pdsseries import dictionary, lasso, selection
from pdsseries.data import Dataset
from pdsseries.dictionary import (
    DegenerateColumnError,
    DictionarySpec,
    build_design,
    build_extended_fs,
    hermite_design,
)
from pdsseries.inference import average_derivative, functional_estimate
from pdsseries.lasso import (
    LassoConfig,
    LassoDesign,
    TargetBank,
    default_gamma,
    iterated_lasso,
    penalty_level,
)
from pdsseries.montecarlo import DgpConfig, default_specs, g_true, generate_sample
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


def assert_same_fit(got, want):
    """Two final fits agree bit for bit."""
    for field in ("beta_hat", "eta_hat", "residuals", "P_resid", "selected"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert got.rank_deficient == want.rank_deficient


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
    d = build_design(spec_q, data.Z)
    _, P = g_columns(data.x, spec_p.degree)
    sel = post_double_select(bank_of(P, d), bank_of(data.y, d))
    pieces = [s for s in sel.fs_sets if s.size]
    if sel.rf_set.size:
        pieces.append(sel.rf_set)
    want = np.unique(np.concatenate(pieces)) if pieces else np.array([], int)
    np.testing.assert_array_equal(sel.union_set, want)
    assert len(sel.fs_sets) == spec_p.degree


def test_double_selection_contains_single_and_fits_tighter():
    data = make_low_dim_like(seed=4)
    spec_p, spec_q = make_specs(data)
    d = build_design(spec_q, data.Z)
    P_raw, P = g_columns(data.x, spec_p.degree)
    cfg = resolve_gamma(LassoConfig(), data.n, P.shape[1], d.shape[1])
    sel = post_double_select(bank_of(P, d), bank_of(data.y, d), cfg)
    rf_set = reduced_form_select(bank_of(data.y, d), cfg)
    assert set(rf_set.tolist()) <= set(sel.union_set.tolist())
    fit_pd = pds_fit(P_raw, d.blocks[0], data.y, sel.union_set)
    fit_ps = pds_fit(P_raw, d.blocks[0], data.y, rf_set)
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
    d = build_design(spec_q, data.Z)
    P_raw, P = g_columns(data.x, spec_p.degree)
    sel = post_double_select(bank_of(P, d), bank_of(data.y, d))
    assert {0, 3} <= set(sel.union_set.tolist())
    fit = pds_fit(P_raw, d.blocks[0], data.y, sel.union_set, spec_p=spec_p)
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
    design = LassoDesign(Q)
    with pytest.raises(SelectionError, match="first-stage equation 0"):
        first_stage_select(bank_of(P, design))
    with pytest.raises(SelectionError, match="reduced-form equation"):
        reduced_form_select(bank_of(rng.standard_normal(n), design))


@pytest.mark.parametrize("zero_entry", [False, True])
def test_overflowing_target_is_refused_by_its_bank(zero_entry):
    # a target whose squares overflow would get infinite initial loadings,
    # or NaN ones where a design entry is zero: its bank, with pairs or
    # without, refuses it by its place in the bank, with no RuntimeWarning
    # (the suite turns one into an error), before any equation runs
    rng = np.random.default_rng(7)
    n = 60
    Q = rng.standard_normal((n, 4))
    if zero_entry:
        Q[3, 2] = 0.0
    design = LassoDesign(Q)
    P = rng.standard_normal((n, 3))
    P[:, 1] = 1e160 * rng.standard_normal(n)
    for paired in (0, 3):
        with pytest.raises(ValueError, match="^target 1 is out of floating-point range"):
            TargetBank.of(P.T, design, paired=paired)
    with pytest.raises(ValueError, match="^target 0 is out of floating-point range"):
        bank_of(P[:, 1], design)
    # squares that stay finite, but loadings that overflow on a column of
    # huge entries, are refused too
    huge = Q.copy()
    huge[:, 0] *= 1e150
    with pytest.raises(ValueError, match="^target 0 is out of floating-point range"):
        bank_of(1e10 * P[:, 0], LassoDesign(huge))
    # a target scaled by 1e150, whose squares and loadings stay finite, is banked
    assert np.isfinite(bank_of(1e150 * P[:, [0, 2]], design).loadings).all()


# ---------------------------------------------------------------- final OLS

def test_pds_fit_takes_the_selected_indices():
    data = make_low_dim_like(seed=6)
    spec_p, spec_q = make_specs(data)
    d = build_design(spec_q, data.Z)
    P_raw, P = g_columns(data.x, spec_p.degree)
    sel = post_double_select(bank_of(P, d), bank_of(data.y, d))
    fit = pds_fit(P_raw, d.blocks[0], data.y, sel.union_set)
    np.testing.assert_array_equal(fit.selected, sel.union_set)
    assert fit.n == data.n
    assert fit.eta_hat.size == 1 + sel.union_set.size
    assert fit.P_resid.shape == P_raw.shape
    # controls of another row count than P's are refused by name
    for controls in (d.blocks[0][:-1], d.blocks[0][:, 0]):
        with pytest.raises(ValueError, match=r"^controls has shape .*one row per row of P"):
            pds_fit(P_raw, controls, data.y, sel.union_set)
    # an outcome of another length than P's rows is refused by name
    for y in (data.y[:-1], np.append(data.y, 0.0), data.y[:, None]):
        with pytest.raises(ValueError, match=r"^y has shape .*one outcome per row of P"):
            pds_fit(P_raw, d.blocks[0], y, sel.union_set)


@pytest.mark.parametrize("sel", [[-1, 2], [0, 5], [[0, 1]], [True, False, True, False, False],
                                 [1.5], [0.0, 2.0]],
                         ids=["negative", "p", "2-d", "mask", "fraction", "float"])
def test_pds_fit_refuses_a_selection_that_is_not_column_indices(rng, sel):
    # an index wraps or a mask selects silently under numpy's own indexing
    P, controls, y = rng.standard_normal((30, 2)), rng.standard_normal((30, 5)), \
        rng.standard_normal(30)
    with pytest.raises(ValueError, match=r"^sel "):
        pds_fit(P, controls, y, np.array(sel))
    # an empty selection, as a list or an array, is the fit without controls
    for empty in ([], np.empty(0, dtype=int)):
        assert pds_fit(P, controls, y, empty).eta_hat.size == 1


def test_pds_fit_reads_values_not_layouts(rng):
    # the fit lays out its own regressors, so C, F and strided inputs, and a
    # gathered copy of the selected columns, give the same bits
    n, s = 80, np.array([4, 0, 7])
    P, X, y = rng.standard_normal((n, 3)), rng.standard_normal((n, 9)), rng.standard_normal(n)
    want = pds_fit(P, X, y, s)
    P_wide, X_wide = np.repeat(P, 2, axis=1), np.repeat(X, 2, axis=1)
    P_rows, X_rows = np.repeat(P, 2, axis=0), np.repeat(X, 2, axis=0)
    for P_in, X_in, y_in in ((np.asfortranarray(P), np.asfortranarray(X), y),
                             (P_wide[:, ::2], X_wide[:, ::2], np.repeat(y, 2)[::2]),
                             (P_rows[::2], X_rows[::2], y)):
        got = pds_fit(P_in, X_in, y_in, s)
        for field in ("beta_hat", "eta_hat", "residuals", "P_resid", "p_rms"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field),
                                          err_msg=field)
    gathered = pds_fit(P, X[:, s], y, np.arange(s.size))
    for field in ("beta_hat", "eta_hat", "residuals", "P_resid", "p_rms"):
        np.testing.assert_array_equal(getattr(gathered, field), getattr(want, field),
                                      err_msg=field)


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
    d = build_design(make_specs(data)[1], data.Z)
    res = choose_k_bic(data, d, [2, 3, 4, 5])
    assert res.errors == {}
    assert set(res.bics) == {2, 3, 4, 5}
    want_k_bic = min(res.bics, key=lambda k: (res.bics[k], k))
    assert res.k_bic == want_k_bic
    assert res.k_hat == min(res.k_bic + 1, 5)
    assert res.fits[res.k_hat].spec_p.degree == res.k_hat
    assert res.fits[res.k_hat].beta_hat.size == res.k_hat


def test_choose_k_bic_clamps_to_grid_max():
    data = make_low_dim_like(n=150, seed=13)
    d = build_design(make_specs(data)[1], data.Z)
    res = choose_k_bic(data, d, [3])
    assert res.k_bic == 3 and res.k_hat == 3
    with pytest.raises(ValueError, match="empty"):
        choose_k_bic(data, d, [])


@pytest.mark.parametrize("values, grid, failing, message", [
    # He_2 = x^2 - 1 is constant: every degree that has it fails
    ((-1.0, 1.0), [1, 2, 3], {False: [2, 3], True: [2, 3]},
     lambda k: "P column 1 has zero variance on this sample"),
    # standardized He_3 = -He_1, so their sum, the target after He_1..He_k
    # and p_1 + p_2, is constant and fails the extended degrees from 3 up
    ((-1.0, 0.0, 1.0), [1, 2, 3, 4, 5], {False: [], True: [3, 4, 5]},
     lambda k: f"first-stage equation {k + 1} failed: all initial loadings are zero"),
    # He_2 = -0.91 in every row, though its mean does not round-trip (its
    # std(axis=0) is 2.3e-15)
    ((-0.3, 0.3), [1, 2, 3], {False: [2, 3], True: [2, 3]},
     lambda k: "P column 1 has zero variance on this sample"),
    # He_1 = x is not constant, but its centred squares underflow, so its
    # std(axis=0) is 0: every degree has it
    ((1e-170, 2e-170), [1, 2, 3], {False: [1, 2, 3], True: [1, 2, 3]},
     lambda k: "P column 0 has zero variance on this sample"),
])
def test_choose_k_bic_degenerate_term_fails_only_its_degrees(values, grid, failing,
                                                             message):
    rng = np.random.default_rng(5)
    n = 120
    x = rng.choice(values, size=n)
    Z = rng.standard_normal((n, 30))
    data = Dataset(y=x + Z[:, 0] + rng.standard_normal(n), x=x, Z=Z)
    d = build_design(DictionarySpec("raw_coordinates", input_dim=30), Z)
    for extended_fs in (False, True):
        ok = [k for k in grid if k not in failing[extended_fs]]
        if not ok:
            # a failure every degree shares is raised once
            with pytest.raises(DegenerateColumnError) as err:
                choose_k_bic(data, d, grid, extended_fs=extended_fs)
            assert str(err.value) == message(grid[0])
            continue
        res = choose_k_bic(data, d, grid, extended_fs=extended_fs)
        assert sorted(res.fits) == sorted(res.bics) == ok
        assert res.errors == {k: message(k) for k in failing[extended_fs]}


def test_an_overflowing_term_fails_only_its_degrees():
    # He_170 of this sample's x overflows: the degrees below it fit as they
    # do alone, and those above fail with its message, as a constant term's
    cfg = DgpConfig("low_dim", 500)
    data = generate_sample(cfg, np.random.default_rng(0))
    spec_p, spec_q = default_specs(cfg)
    d = build_design(spec_q, data.Z)
    message = "Hermite term He_170 is out of floating-point range on this sample"
    for grid, extended_fs in (([3, 169, 400], False), ([3, 400], True)):
        res = choose_k_bic(data, d, grid, extended_fs=extended_fs)
        assert sorted(res.fits) == grid[:-1] and res.errors == {400: message}
        alone = choose_k_bic(data, d, [3], extended_fs=extended_fs)
        np.testing.assert_array_equal(res.fits[3].selected, alone.fits[3].selected)
        with pytest.raises(ValueError) as err:
            choose_k_bic(data, d, [170, 400], extended_fs=extended_fs)
        assert str(err.value) == message
    # the bank stops at the largest degree that can fit, not at He_169: the
    # 14196 pairs of 169 rows would take about half a gigabyte here
    bank, P_raw, refusal = selection._grid_bank(data, d, [3, 400], extended_fs=True)
    assert P_raw.shape[1] == 3 and len(bank.rows) == 3 + 1 + 2 * 3
    assert str(refusal) == message
    fits, failures = comparison_estimators(data, spec_p, spec_q,
                                           estimators=("post_double_set",), k_grid=[3, 400])
    assert failures == {} and fits["post_double_set"].spec_p.degree == 3


@pytest.mark.parametrize("design_name", ["low_dim", "high_dim"])
@pytest.mark.parametrize("extended_fs", [False, True])
def test_grid_bank_matches_per_degree_selection(monkeypatch, design_name, extended_fs):
    cfg = DgpConfig(design_name, 200)
    data = generate_sample(cfg, np.random.default_rng(7))
    d = build_design(default_specs(cfg)[1], data.Z)
    grid = default_k_grid(data.n)
    calls = []
    real = selection.post_double_select

    def spy(fs_bank, rf_bank, config=None):
        sel = real(fs_bank, rf_bank, config)
        calls.append((fs_bank, rf_bank, sel))
        return sel

    monkeypatch.setattr(selection, "post_double_select", spy)
    res = choose_k_bic(data, d, grid, extended_fs=extended_fs)
    monkeypatch.undo()
    assert res.errors == {} and len(calls) == len(grid)
    for k, (fs_bank, y_bank, sel) in zip(grid, calls):
        P_raw, P = g_columns(data.x, k)
        P_fs = build_extended_fs(P) if extended_fs else P
        np.testing.assert_array_equal(fs_bank.rows[list(fs_bank.cols)], P_fs.T)
        np.testing.assert_array_equal(y_bank.rows[list(y_bank.cols)], data.y[None])
        want = post_double_select(bank_of(P_fs, d), bank_of(data.y, d))
        assert len(sel.fs_sets) == len(want.fs_sets) == P_fs.shape[1]
        for got_set, want_set in zip(sel.fs_sets, want.fs_sets):
            np.testing.assert_array_equal(got_set, want_set)
        np.testing.assert_array_equal(sel.rf_set, want.rf_set)
        np.testing.assert_array_equal(sel.union_set, want.union_set)
        # the final OLS projects once per control set, at the largest degree
        # that selects it: the shared routine on that degree's columns gives
        # this degree's fit bit for bit, and the one-degree fit its BIC
        width = max(j for j in grid
                    if np.array_equal(res.fits[j].selected, want.union_set))
        shared, = selection._final_fits(hermite_design(data.x, width), d.blocks[0], data.y,
                                        want.union_set, {k: None})
        assert_same_fit(res.fits[k], shared)
        ref = pds_fit(P_raw, d.blocks[0], data.y, want.union_set)
        assert res.bics[k] == pytest.approx(selection._bic(ref), rel=1e-12, abs=0)
    # both stages run on one design: banks on two designs are refused
    other = build_design(default_specs(cfg)[1], data.Z)
    with pytest.raises(ValueError, match="on different designs"):
        post_double_select(fs_bank, bank_of(data.y, other))


@pytest.mark.parametrize("design_name", ["low_dim", "high_dim"])
@pytest.mark.parametrize("extended_fs", [False, True])
def test_grid_projecting_once_per_control_set_matches_one_projection_per_degree(
        monkeypatch, design_name, extended_fs):
    # against the former grid, one pds_fit per degree: the same choice, sets
    # and errors, and BIC, theta and se at the chosen degree to 1e-12
    cfg = DgpConfig(design_name, 500)
    spec_q = default_specs(cfg)[1]
    grid = default_k_grid(cfg.n)
    real = selection.post_double_select
    for seed in range(10):
        data = generate_sample(cfg, np.random.default_rng(seed))
        runs = []
        for route in (choose_k_bic, choose_k_bic_per_degree):
            sels = []

            def spy(*args, **kwargs):
                sels.append(real(*args, **kwargs))
                return sels[-1]

            monkeypatch.setattr(selection, "post_double_select", spy)
            runs.append((route(data, build_design(spec_q, data.Z), grid,
                               extended_fs=extended_fs), sels))
            monkeypatch.undo()
        (res, sels), (want, want_sels) = runs
        assert (res.k_hat, res.k_bic) == (want.k_hat, want.k_bic)
        assert list(res.errors.items()) == list(want.errors.items())
        assert list(res.fits) == list(res.bics) == list(want.fits)
        assert len(sels) == len(want_sels)
        for got, ref in zip(sels, want_sels):
            for a, b in zip([*got.fs_sets, got.rf_set, got.union_set],
                            [*ref.fs_sets, ref.rf_set, ref.union_set], strict=True):
                np.testing.assert_array_equal(a, b)
        for k, fit in res.fits.items():
            np.testing.assert_array_equal(fit.selected, want.fits[k].selected)
            assert fit.rank_deficient == want.fits[k].rank_deficient
            assert fit.spec_p == want.fits[k].spec_p
            assert res.bics[k] == pytest.approx(want.bics[k], rel=1e-12, abs=0)
        got, ref = (functional_estimate(r.fits[r.k_hat],
                                        average_derivative(r.fits[r.k_hat].spec_p, data.x))
                    for r in (res, want))
        assert got.theta_hat == pytest.approx(ref.theta_hat, rel=1e-12, abs=0)
        assert got.se == pytest.approx(ref.se, rel=1e-12, abs=0)


def test_grid_fits_run_in_ascending_degree_when_the_controls_change_mid_grid():
    # K = 3 and K = 7..15 select one control set and K = 4..6 another, so
    # the projections run out of degree order; the result is in degree order
    cfg = DgpConfig("low_dim", 500)
    spec_q = default_specs(cfg)[1]
    data = generate_sample(cfg, np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1,))))
    grid = default_k_grid(cfg.n)
    res = choose_k_bic(data, build_design(spec_q, data.Z), grid, extended_fs=True)
    unions = [res.fits[k].selected.tolist() for k in grid]
    assert unions[0] == unions[-1] != unions[1]
    assert list(res.fits) == list(res.bics) == list(grid) and res.errors == {}
    # the x in {-1, 0, 1} grid fails K >= 3; its errors run in degree order too
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((120, 30))
    x = rng.choice((-1.0, 0.0, 1.0), size=120)
    small = Dataset(y=x + Z[:, 0] + rng.standard_normal(120), x=x, Z=Z)
    d = build_design(DictionarySpec("raw_coordinates", input_dim=30), Z)
    res = choose_k_bic(small, d, [1, 2, 3, 4, 5], extended_fs=True)
    assert list(res.fits) == list(res.bics) == [1, 2] and list(res.errors) == [3, 4, 5]


def test_a_group_whose_controls_lose_rank_flags_every_degree(rng):
    # a duplicated control column: W = [1, Q_sel] loses rank, and every
    # degree of the group is flagged; each is the one-degree fit projected
    # at the same width, bit for bit, and agrees with the narrower one-degree
    # fit and with the fit on the controls without the duplicate
    n = 200
    x = rng.standard_normal(n)
    P = hermite_design(x, 6)
    Q = rng.standard_normal((n, 3))
    y = P[:, :2] @ [1.0, -0.5] + Q @ [0.5, 1.0, -1.0] + rng.standard_normal(n)
    Q_dup = np.column_stack([Q, Q[:, 1]])
    degrees = [2, 4, 6]
    group = selection._final_fits(P, Q_dup, y, np.arange(4), dict.fromkeys(degrees))
    for k, fit in zip(degrees, group, strict=True):
        assert fit.rank_deficient
        alone, = selection._final_fits(P, Q_dup, y, np.arange(4), {k: None})
        assert_same_fit(fit, alone)
        narrow = pds_fit(P[:, :k], Q_dup, y, np.arange(4))
        full = pds_fit(P[:, :k], Q, y, np.arange(3))
        assert narrow.rank_deficient and not full.rank_deficient
        for ref in (narrow, full):
            np.testing.assert_allclose(fit.beta_hat, ref.beta_hat, rtol=1e-9)
            np.testing.assert_allclose(fit.residuals, ref.residuals, rtol=0,
                                       atol=1e-9 * np.abs(y).max())


@pytest.mark.parametrize("design_name", ["low_dim", "high_dim"])
@pytest.mark.parametrize("n", [200, 500])
def test_derived_pair_targets_match_the_direct_bank(design_name, n):
    # the extended bank derives each pair target's X't and loadings from
    # those of the base rows; a bank of the same rows, each evaluated
    # directly, agrees to rounding (X't entries that cancel to near zero are
    # held to the scale of the row's largest)
    cfg = DgpConfig(design_name, n)
    data = generate_sample(cfg, np.random.default_rng(11))
    d = build_design(default_specs(cfg)[1], data.Z)
    k = default_k_grid(n)[-1]
    bank, P_raw, refusal = selection._grid_bank(data, d, [k], extended_fs=True)
    assert refusal is None and P_raw.shape[1] == k
    _, P = g_columns(data.x, k)
    direct = TargetBank.of(np.vstack([P.T, data.y, build_extended_fs(P)[:, k:].T]),
                           d)
    np.testing.assert_array_equal(bank.rows, direct.rows)
    err = np.abs(bank.xty - direct.xty) / np.abs(direct.xty).max(axis=1, keepdims=True)
    assert err.max() < 1e-12
    for name in ("loadings", "lam_max"):
        np.testing.assert_allclose(getattr(bank, name), getattr(direct, name), rtol=1e-12,
                                   atol=0, err_msg=name)

    def flags(b):
        return [r[b""][0] if isinstance(r[b""][0], str) else None for r in b.rounds]

    assert flags(bank) == flags(direct)
    # without pairs, the bank is the one of direct products, bit for bit
    plain = TargetBank.of(direct.rows, d, paired=0)
    for name in ("rows", "xty", "loadings", "lam_max"):
        np.testing.assert_array_equal(getattr(plain, name), getattr(direct, name), err_msg=name)
    np.testing.assert_array_equal(direct.xty, d.product(direct.rows))
    np.testing.assert_array_equal(direct.loadings[0], lasso.initial_loadings(d, direct.rows))
    np.testing.assert_array_equal(direct.loadings[1], lasso.refined_loadings(d, direct.rows))


def test_leading_holds_a_degrees_rows_and_their_pairs_at_the_bank_offsets(rng):
    # every degree of the default grid at n = 500, with pairs as the grid
    # banks them and with none
    grid = default_k_grid(500)
    k_max = grid[-1]
    rows = rng.standard_normal((k_max + 1, 60))  # the g rows, then y
    design = LassoDesign(rng.standard_normal((60, 8)))
    for paired in (k_max, 0):
        bank = TargetBank.of(rows, design, paired=paired)
        for k in grid:
            view = bank.leading(k)
            assert view.cols == leading_cols(bank, k)
            assert view.rounds is bank.rounds
            want = rows[:k] if not paired else build_extended_fs(rows[:k].T).T
            np.testing.assert_array_equal(view.rows[list(view.cols)], want)
        # the outcome row is a given row too; a row past them is refused
        assert bank.leading(k_max + 1).cols[:k_max + 1] == tuple(range(k_max + 1))
        for k in (k_max + 2, -1):
            with pytest.raises(ValueError, match=f"leading takes 0 to {k_max + 1} given rows"):
                bank.leading(k)


def test_a_constant_pair_target_gets_the_loadings_of_its_own_row():
    # x in {-1, 0, 1}: standardized He_3 = -He_1, so p_1 + p_3 is exactly
    # zero; its derived loadings cancel to rounding noise, and the bank
    # computes them from the row instead: exactly zero, as a direct bank has
    rng = np.random.default_rng(5)
    n = 120
    Z = rng.standard_normal((n, 30))
    x = rng.choice((-1.0, 0.0, 1.0), size=n)
    data = Dataset(y=x + Z[:, 0] + rng.standard_normal(n), x=x, Z=Z)
    d = build_design(DictionarySpec("raw_coordinates", input_dim=30), Z)
    bank, P_raw, _ = selection._grid_bank(data, d, [5], extended_fs=True)
    k_ok = P_raw.shape[1]
    _, P = g_columns(x, k_ok)
    direct = TargetBank.of(np.vstack([P.T, data.y, build_extended_fs(P)[:, k_ok:].T]),
                           d)
    zero = np.flatnonzero(~bank.rows.any(axis=1))
    assert k_ok + 2 in zero  # p_1 + p_3, the second pair target, after y
    for r in (0, 1):
        np.testing.assert_array_equal(bank.loadings[r, zero], 0.0)
        np.testing.assert_array_equal(bank.loadings[r, zero], direct.loadings[r, zero])
    assert [bank.rounds[j][b""][0] for j in zero] == [direct.rounds[j][b""][0] for j in zero]


@pytest.mark.parametrize("design_name", ["low_dim", "high_dim"])
def test_fixed_degree_post_double_is_the_one_degree_grid(monkeypatch, design_name):
    # post_double and post_double_ext run through choose_k_bic at [K]: their
    # sets are those of post_double_select on the standardized He_1..He_K (or
    # its extended dictionary), and the final OLS reads the exact He_k(x)
    cfg = DgpConfig(design_name, 200)
    spec_p, spec_q = default_specs(cfg)
    for seed in range(10):
        data = generate_sample(cfg, np.random.default_rng(seed))
        d = build_design(spec_q, data.Z)
        P_raw, P = g_columns(data.x, spec_p.degree)
        for name in ("post_double", "post_double_ext"):
            seen = []
            real = selection.post_double_select

            def spy(*args, **kwargs):
                seen.append(real(*args, **kwargs))
                return seen[-1]

            monkeypatch.setattr(selection, "post_double_select", spy)
            fits, failures = comparison_estimators(data, spec_p, spec_q, estimators=[name])
            monkeypatch.undo()
            assert failures == {} and len(seen) == 1
            got = seen[0]
            P_fs = build_extended_fs(P) if name == "post_double_ext" else P
            want = post_double_select(bank_of(P_fs, d), bank_of(data.y, d))
            assert len(got.fs_sets) == len(want.fs_sets) == P_fs.shape[1]
            for got_set, want_set in zip(got.fs_sets, want.fs_sets):
                np.testing.assert_array_equal(got_set, want_set)
            np.testing.assert_array_equal(got.rf_set, want.rf_set)
            fit = fits[name]
            np.testing.assert_array_equal(fit.selected, want.union_set)
            ref = pds_fit(P_raw, d.blocks[0], data.y, want.union_set)
            np.testing.assert_allclose(fit.beta_hat, ref.beta_hat, rtol=1e-12)
            assert fit.spec_p == spec_p


def one_call_per_equation(bank, lam, config):
    """Each equation of ``bank`` by one ``iterated_lasso`` call on a fresh
    copy: the bank's arrays, a new store of Gram rows, and its records as
    built, with no paths. Returns each active set, or the class of the
    exception the call raised."""
    fresh = dataclasses.replace(bank, design=LassoDesign(*bank.design.blocks),
                                rounds=[{key: (r[key][0], []) for key in (None, b"")}
                                        for r in bank.rounds])
    out = []
    for k in range(len(fresh)):
        try:
            out.append(iterated_lasso(fresh, k, lam, config).active_set)
        except selection.FIT_ERRORS as exc:
            out.append(type(exc))
    return out


# the grid's penalty levels, one float to each side, and 1e-12 relative to each side
LAM_SHIFTS = (
    lambda lam: lam,
    lambda lam: float(np.nextafter(lam, 0.0)),
    lambda lam: float(np.nextafter(lam, np.inf)),
    lambda lam: lam * (1.0 - 1e-12),
    lambda lam: lam * (1.0 + 1e-12),
)


def check_every_route(monkeypatch, shift, seen):
    """Run ``_active_sets`` at ``shift(lam)`` and check it against one fresh
    ``iterated_lasso`` call per equation: its sets, or the exception of its
    first failed equation. ``seen`` counts the calls that replay every
    round, reading it off a path that an earlier call took, and so add no
    step and form no Gram row, and the calls that add steps."""
    real_route, real_call, real_solve = (
        selection._active_sets, selection.iterated_lasso, lasso.lasso_solve)
    steps = []

    def solve(design, xty, lam, loadings, path=None):
        visited = len(path)
        try:
            return real_solve(design, xty, lam, loadings, path)
        finally:
            steps.append(len(path) - visited)

    def call(bank, k, lam, config=None):
        formed = bank.design.rows_formed
        steps.clear()
        fit = real_call(bank, k, lam, config)
        if any(steps):
            seen["solved"] += 1
        else:
            # a replayed call forms no Gram row, and is never a failed one
            assert bank.design.rows_formed == formed
            seen["replayed"] += 1
        return fit

    def route(bank, lam, config, label):
        lam = shift(lam)
        want = one_call_per_equation(bank, lam, config)
        try:
            got = real_route(bank, lam, config, label)
        except SelectionError as exc:
            failed = [w for w in want if isinstance(w, type)]
            assert failed and type(exc.__cause__) is failed[0]
            seen["failed"] += 1
            raise
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert not isinstance(w, type)
            np.testing.assert_array_equal(g, w)
        return got

    monkeypatch.setattr(selection, "_active_sets", route)
    monkeypatch.setattr(selection, "iterated_lasso", call)
    monkeypatch.setattr(lasso, "lasso_solve", solve)


@pytest.mark.parametrize("design_name", ["low_dim", "high_dim"])
@pytest.mark.parametrize("extended_fs", [False, True])
def test_replayed_grid_gives_one_solve_per_equation(monkeypatch, design_name, extended_fs):
    # a degree of the BIC grid reads the rounds of an equation off the
    # paths its earlier calls took, or extends them: every degree's sets
    # are those of one fresh iterated_lasso call per equation.
    # 2 samples x 5 penalty shifts here, 40 fits over the four cases.
    cfg = DgpConfig(design_name, 200)
    grid = default_k_grid(200)
    seen = {"replayed": 0, "solved": 0, "failed": 0}
    for shift in LAM_SHIFTS:
        check_every_route(monkeypatch, shift, seen)
        for seed in range(2):
            data = generate_sample(cfg, np.random.default_rng(seed))
            d = build_design(default_specs(cfg)[1], data.Z)
            choose_k_bic(data, d, grid, extended_fs=extended_fs)
        monkeypatch.undo()
    # most repeated equations replay every round
    assert seen["replayed"] > seen["solved"] > 0 and seen["failed"] == 0, seen


def test_replayed_grid_fails_an_equation_as_one_solve_would(monkeypatch):
    # x in {-1, 0, 1}: the extended target p_1 + p_3 is constant, so from
    # K = 3 on its first-stage equation fails; the paths of the degrees
    # before it are replayed in the failing ones, and every failure is that
    # of a fresh call, at every penalty shift
    rng = np.random.default_rng(5)
    n = 120
    Z = rng.standard_normal((n, 30))
    x = rng.choice((-1.0, 0.0, 1.0), size=n)
    data = Dataset(y=x + Z[:, 0] + rng.standard_normal(n), x=x, Z=Z)
    d = build_design(DictionarySpec("raw_coordinates", input_dim=30), Z)
    seen = {"replayed": 0, "solved": 0, "failed": 0}
    for shift in LAM_SHIFTS:
        check_every_route(monkeypatch, shift, seen)
        res = choose_k_bic(data, d, [1, 2, 3, 4, 5], extended_fs=True)
        monkeypatch.undo()
        assert sorted(res.errors) == [3, 4, 5] and sorted(res.fits) == [1, 2]
    assert seen["failed"] == 3 * len(LAM_SHIFTS) and seen["replayed"] > 0, seen


def test_a_fit_whose_every_degree_fails_names_each_reason():
    # x in {-1, 0, 1}: standardized He_3 = -He_1, so the extended target
    # p_1 + p_3 is constant; x in {-1, 1}: He_2 is constant
    rng = np.random.default_rng(5)
    n = 120
    Z = rng.standard_normal((n, 30))
    spec_q = DictionarySpec("raw_coordinates", input_dim=30)
    x = rng.choice((-1.0, 0.0, 1.0), size=n)
    data = Dataset(y=x + Z[:, 0] + rng.standard_normal(n), x=x, Z=Z)
    fits, failures = comparison_estimators(
        data, DictionarySpec("hermite_univariate", degree=3), spec_q,
        estimators=("post_double", "post_double_ext"))
    assert set(fits) == {"post_double"}
    reason = "first-stage equation {} failed: all initial loadings are zero"
    assert failures == {"post_double_ext": "SelectionError: K=3: " + reason.format(4)}
    d = build_design(spec_q, Z)
    with pytest.raises(SelectionError) as err:
        choose_k_bic(data, d, [5, 3, 4], extended_fs=True)
    assert str(err.value) == "; ".join(f"K={k}: {reason.format(k + 1)}" for k in (3, 4, 5))
    # a constant term that every degree has fails them all for one reason,
    # raised once
    x = rng.choice((-1.0, 1.0), size=n)
    data = Dataset(y=x + Z[:, 0] + rng.standard_normal(n), x=x, Z=Z)
    with pytest.raises(DegenerateColumnError) as err:
        choose_k_bic(data, d, [3, 2])
    assert str(err.value) == "P column 1 has zero variance on this sample"


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
    for fit in fits.values():
        assert np.all(np.isfinite(fit.beta_hat))
    # tensor conditioning: series_1 uses additive univariate blocks
    assert fits["series_1"].eta_hat.size == 1 + 4 * spec_q.degree
    assert fits["series_2"].eta_hat.size == 1 + spec_q.n_terms
    assert fits["post_double_set"].spec_p.degree in (2, 3, 4)
    assert fits["post_double"].spec_p == spec_p
    # the extended first stage can only widen the union
    assert set(fits["post_double"].selected.tolist()) <= \
        set(fits["post_double_ext"].selected.tolist()) | \
        set(fits["post_double"].selected.tolist())


def test_post_single_1_matches_reduced_form_refit():
    data = make_low_dim_like(seed=30)
    spec_p, spec_q = make_specs(data)
    d = build_design(spec_q, data.Z)
    cfg = resolve_gamma(LassoConfig(), data.n, 1, d.shape[1])
    rf_set = reduced_form_select(bank_of(data.y, d), cfg)
    want = pds_fit(g_columns(data.x, spec_p.degree)[0], d.blocks[0], data.y, rf_set)
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
    assert fit.P_resid.shape == (data.n, spec_p.degree)
    assert np.all(fit.selected < spec_q.n_terms)


def test_post_single_2_block_design_matches_the_concatenated_one():
    # Post-Single II's design reads P and the workspace's Q as two blocks.
    # Its fit is the one on the concatenated [P, Q]: the same active set,
    # sweeps and flags, with coefficients and loadings equal up to the last
    # bits that a product taken block by block may move
    eps = np.finfo(float).eps
    for design, n, seed in [("high_dim", 200, 5), ("high_dim", 500, 2),
                            ("high_dim", 500, 6), ("low_dim", 500, 0),
                            ("low_dim", 500, 7)]:
        cfg = DgpConfig(design, n, sigma_eps=2.0)
        data = generate_sample(cfg, np.random.default_rng(seed))
        spec_p, spec_q = default_specs(cfg)
        d = build_design(spec_q, data.Z)
        _, P = g_columns(data.x, spec_p.degree)
        n_p = P.shape[1]
        lam = penalty_level(n, 1, n_p + d.shape[1])
        whole = LassoDesign(np.concatenate([P, d.blocks[0]], axis=1))
        want = iterated_lasso(TargetBank.of(data.y, whole), 0, lam)
        blocks = LassoDesign(P, d)
        got = iterated_lasso(TargetBank.of(data.y, blocks), 0, lam)
        assert want.active_set.size > 0
        np.testing.assert_array_equal(got.active_set, want.active_set)
        assert (got.iterations, got.converged, got.perfect_fit, got.loadings_degenerate) \
            == (want.iterations, want.converged, want.perfect_fit, want.loadings_degenerate)
        np.testing.assert_allclose(got.coefficients, want.coefficients, rtol=1e-10)
        np.testing.assert_allclose(got.loadings, want.loadings, rtol=n * eps)
        # the Q columns' rows went into the workspace's store, for later solves
        in_q = got.active_set[got.active_set >= n_p] - n_p
        assert d.rows_formed >= in_q.size
        assert blocks.rows_formed == whole.rows_formed


def test_post_single_2_is_one_joint_lasso_on_both_blocks():
    # Post-Single II penalises every column of [P, Q], read at unit root
    # mean square, at the single-equation level with M = K + L; rebuild
    # that problem here with a Gram computed from the whole matrix, not
    # from blocks
    cfg = DgpConfig("high_dim", 200, sigma_eps=2.0)
    data = generate_sample(cfg, np.random.default_rng(60))
    spec_p, spec_q = default_specs(cfg)
    d = build_design(spec_q, data.Z)
    _, P = g_columns(data.x, spec_p.degree)
    X = np.concatenate([P, d.blocks[0]], axis=1)
    lam = penalty_level(data.n, 1, X.shape[1])
    whole = LassoDesign(X)
    fit = iterated_lasso(TargetBank.of(data.y, whole), 0, lam)
    want = fit.active_set[fit.active_set >= P.shape[1]] - P.shape[1]
    assert want.size > 0
    fits, failures = comparison_estimators(data, spec_p, spec_q,
                                           estimators=("post_single_2",))
    assert failures == {}
    np.testing.assert_array_equal(fits["post_single_2"].selected, want)
    rel_kkt = kkt_max_violation(unit_columns(whole), data.y, fit) / (lam * fit.loadings.max())
    assert rel_kkt <= 1e-6


def test_oracle_matches_direct_regression():
    data = make_low_dim_like(seed=32)
    spec_p, spec_q = make_specs(data)
    fits, failures = comparison_estimators(data, spec_p, spec_q,
                                           estimators=("oracle",))
    assert failures == {}
    P, _ = g_columns(data.x, spec_p.degree)
    X = np.concatenate([np.ones((data.n, 1)), P], axis=1)
    coef = np.linalg.lstsq(X, data.y - data.h_true, rcond=None)[0]
    np.testing.assert_allclose(fits["oracle"].beta_hat, coef[1:], rtol=1e-10)
    # no controls: one intercept, and the g dictionary is only demeaned
    assert fits["oracle"].eta_hat.size == 1
    np.testing.assert_allclose(fits["oracle"].P_resid, P - P.mean(axis=0),
                               atol=1e-10 * np.abs(P).max())


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


def test_comparison_estimators_refuses_repeated_names_and_a_non_hermite_g():
    data = make_low_dim_like(seed=33)
    spec_p, spec_q = make_specs(data)
    with pytest.raises(ValueError, match=r"repeated estimator names: \['oracle'\]"):
        comparison_estimators(data, spec_p, spec_q, estimators=("oracle", "series_1", "oracle"))
    # one refusal for every estimator, before any is fitted
    for kind in ("raw_coordinates", "hermite_tensor"):
        with pytest.raises(ValueError, match=f"must be hermite_univariate, got '{kind}'"):
            comparison_estimators(data, DictionarySpec(kind, degree=3), spec_q)


@pytest.mark.parametrize("spec_q, message", [
    (DictionarySpec("raw_coordinates", input_dim=199),
     r"expected an \(n, 199\) matrix, got shape \(100, 200\)"),
    (DictionarySpec("hermite_tensor", degree=7, input_dim=200),
     "a Hermite tensor of degree K=7 on d=200 inputs has L="),
])
def test_comparison_estimators_refuses_a_conditioning_spec_that_does_not_fit_z(
        monkeypatch, spec_q, message):
    # a refusal that depends on the call alone would fail every sample: it
    # is raised once, before the workspace, not recorded per estimator
    data = generate_sample(DgpConfig("high_dim", 100), np.random.default_rng(0))
    assert data.Z.shape == (100, 200)
    spec_p = DictionarySpec("hermite_univariate", degree=3)
    with pytest.raises(ValueError, match=message):
        build_design(spec_q, data.Z)
    monkeypatch.setattr(selection, "build_design", None)
    with pytest.raises(ValueError, match=message):
        comparison_estimators(data, spec_p, spec_q, estimators=("post_double", "oracle"))


@pytest.mark.parametrize("grid,bad", [([2.7, 3], "2.7"), ([0, 3], "0"), ([3, -1], "-1"),
                                      ([float("nan")], "nan"), ([2, float("inf")], "inf"),
                                      (["3"], "'3'")])
def test_choose_k_bic_refuses_a_degree_that_is_not_a_whole_number_from_one(
        monkeypatch, grid, bad):
    data = make_low_dim_like(seed=5)
    d = build_design(make_specs(data)[1], data.Z)
    monkeypatch.setattr(selection, "_grid_bank", None)  # refused before the bank
    with pytest.raises(ValueError, match=f"k_grid degree must be a whole number >= 1, got {bad}"):
        choose_k_bic(data, d, grid)
    with pytest.raises(ValueError, match=f"k_grid degree must be a whole number >= 1, got {bad}"):
        comparison_estimators(data, *make_specs(data), estimators=("oracle",), k_grid=grid)


def test_choose_k_bic_refuses_a_design_of_more_than_one_block(monkeypatch):
    # the final OLS reads the design's first block as the raw Q, so a
    # two-block design such as Post-Single II's is refused before the bank
    data = make_low_dim_like(seed=5)
    P = g_columns(data.x, 3)[1]
    joint = LassoDesign(P, build_design(make_specs(data)[1], data.Z))
    monkeypatch.setattr(selection, "_grid_bank", None)
    with pytest.raises(ValueError, match="one-block workspace of build_design"):
        choose_k_bic(data, joint, [3])


def test_choose_k_bic_reads_whole_float_degrees_as_integers():
    data = make_low_dim_like(seed=5)
    d = build_design(make_specs(data)[1], data.Z)
    as_float, as_int = choose_k_bic(data, d, [3.0, 2.0]), choose_k_bic(data, d, [2, 3])
    assert list(as_float.fits) == [2, 3] and as_float.bics == as_int.bics


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
    want = pds_fit(g_columns(x, 3)[0], Z, y, np.arange(n_keep))
    assert_same_fit(fits["series_1"], want)
    assert fits["series_2"].eta_hat.size == 1 + n_keep
    # series_2 without an rng is a recorded failure, not a crash
    _, failures2 = comparison_estimators(data, spec_p, spec_q,
                                         estimators=("series_2",))
    assert "needs an RNG" in failures2["series_2"]


@pytest.mark.parametrize("design, n, seed", [("low_dim", 500, 0), ("high_dim", 200, 0)])
def test_every_estimator_keeps_its_residualized_g_dictionary(monkeypatch, design, n, seed):
    # each final fit's P_resid is the separate residualization of its own
    # g dictionary on [1, its controls], as the variance step once made it
    cfg = DgpConfig(design, n, sigma_eps=2.0)
    rng = np.random.default_rng(seed)
    data = generate_sample(cfg, rng)
    inputs = {}
    real = selection._final_fits

    def recording(P, controls, y, sel, degrees):
        fits = real(P, controls, y, sel, degrees)
        for k, fit in zip(degrees, fits):
            inputs[id(fit)] = (P[:, :k], controls[:, sel])
        return fits

    monkeypatch.setattr(selection, "_final_fits", recording)
    fits, failures = comparison_estimators(data, *default_specs(cfg), rng=rng)
    assert failures == {} and set(fits) == set(ESTIMATORS)
    for name, fit in fits.items():
        P, Q_sel = inputs[id(fit)]
        want = residualize_p(P, Q_sel)
        np.testing.assert_allclose(fit.P_resid, want, rtol=0,
                                   atol=1e-9 * np.abs(P).max(), err_msg=name)
        assert fit.eta_hat.size == 1 + Q_sel.shape[1]


@pytest.mark.parametrize("design_name", ["low_dim", "high_dim"])
def test_every_other_estimator_reads_the_exact_g_dictionary(monkeypatch, design_name):
    # the five estimators outside the Post-Double route evaluate He_1..He_K
    # of x themselves, and each final OLS reads those raw columns (what
    # Post-Single II selects on is checked by the route test below)
    cfg = DgpConfig(design_name, 200)
    spec_p, spec_q = default_specs(cfg)
    names = ("post_single_1", "post_single_2", "series_1", "series_2", "oracle")
    real = selection.pds_fit
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = generate_sample(cfg, rng)
        inputs = {}

        def recording(P, controls, y, sel, **kwargs):
            fit = real(P, controls, y, sel, **kwargs)
            inputs[id(fit)] = (controls[:, sel], y, np.arange(len(sel)))
            return fit

        monkeypatch.setattr(selection, "pds_fit", recording)
        fits, failures = comparison_estimators(data, spec_p, spec_q, estimators=names,
                                               rng=rng)
        monkeypatch.undo()
        assert failures == {} and set(fits) == set(names)
        P_raw = hermite_design(data.x, spec_p.degree)
        for name in names:
            ref = pds_fit(P_raw, *inputs[id(fits[name])])
            np.testing.assert_allclose(fits[name].beta_hat, ref.beta_hat, rtol=1e-12,
                                       err_msg=name)


@pytest.mark.parametrize("design_name", ["low_dim", "high_dim"])
def test_every_lasso_equation_goes_through_active_sets(monkeypatch, design_name):
    # one route into the solver: each estimator's iterated_lasso calls are
    # made inside _active_sets, and the single-selection sets are those of
    # one direct iterated_lasso call at the single-equation penalty level
    cfg = DgpConfig(design_name, 200)
    spec_p, spec_q = default_specs(cfg)
    depth, calls = [0], []

    def route(*args, **kwargs):
        depth[0] += 1
        try:
            return real_route(*args, **kwargs)
        finally:
            depth[0] -= 1

    def solve(*args, **kwargs):
        calls.append(depth[0])
        return real_solve(*args, **kwargs)

    real_route, real_solve = selection._active_sets, selection.iterated_lasso
    for seed in range(10):
        data = generate_sample(cfg, np.random.default_rng(seed))
        monkeypatch.setattr(selection, "_active_sets", route)
        monkeypatch.setattr(selection, "iterated_lasso", solve)
        monkeypatch.setattr(lasso, "iterated_lasso", solve)
        fits = {}
        for name in ESTIMATORS:
            calls.clear()
            got, failures = comparison_estimators(data, spec_p, spec_q, estimators=[name],
                                                  rng=np.random.default_rng(seed))
            assert failures == {}
            fits.update(got)
            selects = not name.startswith(("series", "oracle"))
            assert (len(calls) > 0) == selects, name
            assert all(calls), name
        monkeypatch.undo()
        d = build_design(spec_q, data.Z)
        _, P = g_columns(data.x, spec_p.degree)
        for name, design in (("post_single_1", d), ("post_single_2", LassoDesign(P, d))):
            lam = penalty_level(data.n, 1, design.shape[1], LassoConfig())
            active = iterated_lasso(TargetBank.of(data.y, design), 0, lam,
                                    LassoConfig()).active_set
            n_p = design.shape[1] - d.shape[1]  # the g columns ahead of Q
            np.testing.assert_array_equal(fits[name].selected,
                                          active[active >= n_p] - n_p, err_msg=name)


@pytest.mark.parametrize("values, column", [((1.5,), 0), ((-1.0, 1.0), 1)])
def test_a_constant_g_column_fails_every_estimator_with_one_reason(values, column):
    # a constant x makes He_1 constant, and x = +-1 makes He_2 = x^2 - 1
    # constant: every estimator, on either route, refuses it by that column
    rng = np.random.default_rng(3)
    n = 120
    Z = rng.standard_normal((n, 30))
    x = rng.choice(values, size=n)
    data = Dataset(y=x + Z[:, 0] + rng.standard_normal(n), x=x, Z=Z, h_true=Z[:, 0])
    fits, failures = comparison_estimators(
        data, DictionarySpec("hermite_univariate", degree=3),
        DictionarySpec("raw_coordinates", input_dim=30), rng=rng)
    assert fits == {}
    reason = f"DegenerateColumnError: P column {column} has zero variance on this sample"
    assert failures == {name: reason for name in ESTIMATORS}


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

def counting_evaluations(monkeypatch) -> list:
    """The spec of every ``evaluate_dictionary`` call from now on, in
    ``dictionary`` and ``selection`` alike."""
    evaluated = []
    real = dictionary.evaluate_dictionary

    def counting(spec, values):
        evaluated.append(spec)
        return real(spec, values)

    monkeypatch.setattr(dictionary, "evaluate_dictionary", counting)
    monkeypatch.setattr(selection, "evaluate_dictionary", counting)
    return evaluated


def test_one_workspace_serves_every_estimator(monkeypatch):
    data = make_low_dim_like(n=260, seed=21)
    spec_p, spec_q = make_specs(data)
    evaluated = counting_evaluations(monkeypatch)
    fits, failures = comparison_estimators(
        data, spec_p, spec_q, estimators=ESTIMATORS,
        rng=np.random.default_rng(0), k_grid=[2, 3, 4])
    assert failures == {}
    assert evaluated.count(spec_q) == 1
    monkeypatch.undo()

    d = build_design(spec_q, data.Z)
    res = choose_k_bic(data, d, [2, 3, 4])
    want = res.fits[res.k_hat]
    got = fits["post_double_set"]
    assert got.spec_p == want.spec_p
    np.testing.assert_array_equal(got.selected, want.selected)
    np.testing.assert_array_equal(got.beta_hat, want.beta_hat)
    np.testing.assert_array_equal(got.eta_hat, want.eta_hat)
    # series_2 on a tensor dictionary takes every raw column of the workspace
    idx = np.arange(d.shape[1])
    P_raw, _ = g_columns(data.x, spec_p.degree)
    assert_same_fit(fits["series_2"], pds_fit(P_raw, d.blocks[0], data.y, idx))


@pytest.mark.parametrize("kind", ["hermite_tensor", "raw_coordinates"])
def test_series_2_hands_the_final_fit_its_controls_uncopied(monkeypatch, kind):
    # the final OLS gathers the selected columns itself: Series II hands it
    # the workspace's Q on a tensor, and Z with the drawn columns on raw
    # coordinates, so its fit's selected names columns of that matrix
    data = make_low_dim_like(n=260, seed=21)
    spec_p = DictionarySpec("hermite_univariate", degree=3)
    spec_q = (make_specs(data)[1] if kind == "hermite_tensor"
              else DictionarySpec("raw_coordinates", input_dim=data.Z.shape[1]))
    designs, handed = [], []
    real_build, real_fits = selection.build_design, selection._final_fits

    def building(spec, Z):
        designs.append(real_build(spec, Z))
        return designs[-1]

    def fitting(P, controls, y, sel, specs):
        handed.append((controls, sel))
        return real_fits(P, controls, y, sel, specs)

    monkeypatch.setattr(selection, "build_design", building)
    monkeypatch.setattr(selection, "_final_fits", fitting)
    fits, failures = comparison_estimators(data, spec_p, spec_q, estimators=["series_2"],
                                           rng=np.random.default_rng(3))
    assert failures == {} and len(designs) == len(handed) == 1
    (controls, sel), = handed
    if kind == "hermite_tensor":
        assert controls is designs[0].blocks[0]
        want = np.arange(controls.shape[1])
    else:
        assert controls is data.Z
        n_keep = min((4 * data.n) // 5, data.Z.shape[1])
        want = np.sort(np.random.default_rng(3).choice(data.Z.shape[1], n_keep, replace=False))
    np.testing.assert_array_equal(sel, want)
    np.testing.assert_array_equal(fits["series_2"].selected, want)


def test_a_raw_coordinates_workspace_is_one_dictionary_evaluation(monkeypatch):
    # build_design reaches raw coordinates through evaluate_dictionary too,
    # once per sample, and the workspace's block is Z itself
    data = make_low_dim_like(n=260, seed=21)
    spec_p = DictionarySpec("hermite_univariate", degree=3)
    spec_q = DictionarySpec("raw_coordinates", input_dim=data.Z.shape[1])
    evaluated = counting_evaluations(monkeypatch)
    assert build_design(spec_q, data.Z).blocks[0] is data.Z
    assert evaluated == [spec_q]
    evaluated.clear()
    fits, failures = comparison_estimators(
        data, spec_p, spec_q, estimators=ESTIMATORS,
        rng=np.random.default_rng(0), k_grid=[2, 3, 4])
    assert failures == {} and set(fits) == set(ESTIMATORS)
    assert evaluated.count(spec_q) == 1


def gram_rows_of_a_run(monkeypatch, data, spec_p, spec_q, estimators):
    """Run ``comparison_estimators``; return every ``LassoDesign`` it built,
    the workspace, and the traced peak of the memory it allocated."""
    stores, designs = [], []
    real_init, real_build = LassoDesign.__init__, selection.build_design

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        stores.append(self)

    def recording_build(*args):
        designs.append(real_build(*args))
        return designs[-1]

    monkeypatch.setattr(LassoDesign, "__init__", recording_init)
    monkeypatch.setattr(selection, "build_design", recording_build)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fits, failures = comparison_estimators(data, spec_p, spec_q,
                                               estimators=estimators)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert failures == {} and set(fits) == set(estimators)
    return stores, designs[0], peak


def estimates(data, spec_p, spec_q, seed):
    """Every estimator's fit on ``data``, and its average-derivative
    estimate, by estimator name."""
    fits, failures = comparison_estimators(data, spec_p, spec_q, estimators=ESTIMATORS,
                                           rng=np.random.default_rng(seed))
    assert failures == {}
    return {name: (fit, functional_estimate(fit, average_derivative(fit.spec_p, data.x)))
            for name, fit in fits.items()}


def test_every_estimator_is_the_same_on_rescaled_controls():
    # each column of Z times a positive factor from 1e-3 to 1e3: a design
    # reads each column at unit root mean square, so every selection is the
    # same, and the final OLS on [1, raw controls] spans the same space
    cfg = DgpConfig("high_dim", 200)
    spec_p, spec_q = default_specs(cfg)
    for seed in range(5):
        data = generate_sample(cfg, np.random.default_rng(seed))
        factors = np.random.default_rng(100 + seed).permutation(
            np.geomspace(1e-3, 1e3, data.Z.shape[1]))
        scaled = Dataset(y=data.y, x=data.x, Z=data.Z * factors, h_true=data.h_true)
        want, got = (estimates(d, spec_p, spec_q, seed) for d in (data, scaled))
        assert set(got) == set(want) == set(ESTIMATORS)
        for name, (fit, res) in got.items():
            fit0, res0 = want[name]
            np.testing.assert_array_equal(fit.selected, fit0.selected, err_msg=name)
            np.testing.assert_allclose([res.theta_hat, res.se], [res0.theta_hat, res0.se],
                                       rtol=1e-9, atol=0, err_msg=name)


@pytest.mark.parametrize("design_name", ["low_dim", "high_dim"])
def test_the_raw_workspace_selects_as_the_sd_standardized_one(monkeypatch, design_name):
    # the former workspace divided Q by its sd and read it as given; reading
    # Q in raw units at unit root mean square selects the same sets
    cfg = DgpConfig(design_name, 200)
    spec_p, spec_q = default_specs(cfg)
    for seed in range(10):
        data = generate_sample(cfg, np.random.default_rng(seed))
        want = estimates(data, spec_p, spec_q, seed)
        with monkeypatch.context() as m:
            m.setattr(selection, "build_design", build_design_sd)
            ref = estimates(data, spec_p, spec_q, seed)
        for name, (fit, _) in want.items():
            np.testing.assert_array_equal(fit.selected, ref[name][0].selected,
                                          err_msg=f"seed {seed} {name}")


def test_gram_rows_are_formed_only_for_entering_columns(monkeypatch):
    """The Gram of the ~1000-column conditioning dictionary is never formed
    whole: only rows of columns that enter a solve, and no L x L array."""
    # pure-noise controls, as in acceptance 8: no column ever enters
    rng = np.random.default_rng(8)
    n = 1000
    x = rng.standard_normal(n)
    Z = rng.standard_normal((n, 4))
    noise = Dataset(y=g_true(x) + rng.standard_normal(n), x=x, Z=Z, h_true=np.zeros(n))
    spec_p = DictionarySpec("hermite_univariate", degree=10)
    spec_q = DictionarySpec("hermite_tensor", degree=10, input_dim=4)
    # the high_dim design at n = 500, as in acceptance 6
    cfg = DgpConfig("high_dim", 500, sigma_eps=2.0)
    high = generate_sample(cfg, np.random.default_rng(1))
    runs = [(noise, spec_p, spec_q, ("post_double",), 1),
            (high, *default_specs(cfg), ("post_double", "post_single_2"), 2)]
    for data, spec_p, spec_q, estimators, n_stores in runs:
        stores, d, peak = gram_rows_of_a_run(monkeypatch, data, spec_p, spec_q,
                                             estimators)
        L = d.shape[1]
        assert L >= 1000 and len(stores) == n_stores and stores[0] is d
        for store in stores:
            if data is noise:
                assert store.rows_formed == 0
            else:
                assert 0 < store.rows_formed < 0.02 * store.shape[1]
        assert len(d.blocks) == 1
        # the traced peak exceeds the arrays the run must hold at once, Q
        # and Q*Q, by less than half an L x L Gram: Post-Single II's design
        # reads the workspace's blocks and copies neither
        held = 2 * d.blocks[0].nbytes
        assert peak - held < 0.5 * 8 * L * L
        monkeypatch.undo()


def test_programming_errors_propagate(monkeypatch):
    data = make_low_dim_like(seed=34)
    spec_p, spec_q = make_specs(data)

    # a path past its step bound is a fit failure, counted per estimator,
    # and reported as the failed equation on every route into the solver
    monkeypatch.setattr(lasso, "_STEPS_PER_COLUMN", 0)
    fits, failures = comparison_estimators(
        data, spec_p, spec_q, estimators=("post_double", "post_single_2", "oracle"))
    assert failures["post_double"].startswith("SelectionError")
    assert failures["post_single_2"].startswith(
        "SelectionError: reduced-form equation failed: the Lasso path passed its step bound")
    assert set(fits) == {"oracle"}
    monkeypatch.undo()

    def broken(*args, **kwargs):
        raise TypeError("bug in a stage")

    monkeypatch.setattr(selection, "iterated_lasso", broken)
    with pytest.raises(TypeError, match="bug in a stage"):
        comparison_estimators(data, spec_p, spec_q, estimators=("post_double",))
    with pytest.raises(TypeError, match="bug in a stage"):
        comparison_estimators(data, spec_p, spec_q, estimators=("post_double_set",),
                              k_grid=[2, 3])
