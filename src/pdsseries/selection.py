"""Post-double selection and the comparison estimators.

The estimator of interest regresses each approximating term for g on the
conditioning dictionary (first stage) and the outcome on the conditioning
dictionary (reduced form), both by iterated-loadings Lasso; the final step
is OLS of y on an intercept, the full g dictionary, and the union of the
selected conditioning terms. It runs at a fixed degree K or with K chosen
by BIC over a grid, and both are one route: ``choose_k_bic``, with the
one-degree grid ``[K]`` for a fixed degree. The benchmarking alternatives
(single-selection variants, plain series fits, an infeasible oracle) share
the final-OLS plumbing so downstream inference treats every fit uniformly.

Every selection step is one Lasso equation, and every equation reaches the
solver by one route: a stage function (``first_stage_select``,
``reduced_form_select``, or both through ``post_double_select``) takes a
``lasso.TargetBank`` of its targets, which holds their design, and
``_active_sets`` fits each equation of the bank, raising a failure as a
``SelectionError`` that names the equation. A bank evaluates each target's
``X't`` and initial loadings once and memoizes its refined loadings by
active set; ``choose_k_bic`` builds one bank at the grid's largest degree
and indexes every degree into it, with the extended first stage's pair
targets derived from the base rows.

The sample's ``DesignMatrices`` workspace from ``build_design`` has one
``LassoDesign`` over the conditioning dictionary ``Q``, holding ``Q*Q`` and
the Gram rows formed so far, shared by every equation, estimator and
degree. The g dictionary is not in it: each fit evaluates He_1..He_K of
``x`` at its own degree, and every final OLS reads those raw columns.
Post-Single I is the reduced form on the workspace's design; Post-Single
II is the reduced form on a ``LassoDesign`` of two blocks, its
standardized g dictionary ``P`` and the workspace's design, which reuses
``Q*Q`` and the stored rows of ``Q'Q``, so only their ``P`` parts are new.

Most first-stage equations select nothing. A bank of two or more
equations is first asked which surely end with an empty active set
(``TargetBank.settled_empty``: one comparison per loading round). An
equation left that a grid solved at an earlier degree replays that call's
rounds under a KKT certificate (``TargetBank.replay``), and
``iterated_lasso`` runs for the rest, including any the screen or the
certificate cannot vouch for. The sets, and the exceptions of equations
that fail, are those of one ``iterated_lasso`` call per equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .dictionary import (
    DegenerateColumnError,
    DesignMatrices,
    DictionarySpec,
    build_design,
    evaluate_dictionary,
    hermite_design,
    standardize_columns,
)
from .lasso import (
    ConvergenceError,
    LassoConfig,
    LassoDesign,
    TargetBank,
    default_gamma,
    iterated_lasso,
    penalty_level,
)

__all__ = [
    "ESTIMATORS",
    "ESTIMATOR_LABELS",
    "SelectionResult",
    "PdsFit",
    "KGridResult",
    "SelectionError",
    "FIT_ERRORS",
    "integer_root",
    "default_degree",
    "default_k_grid",
    "resolve_gamma",
    "first_stage_select",
    "reduced_form_select",
    "post_double_select",
    "pds_fit",
    "choose_k_bic",
    "comparison_estimators",
]

ESTIMATORS = (
    "post_double",
    "post_double_set",
    "post_double_ext",
    "post_double_set_ext",
    "post_single_1",
    "post_single_2",
    "series_1",
    "series_2",
    "oracle",
)

ESTIMATOR_LABELS = {
    "post_double": "Post-Double",
    "post_double_set": "Post-Double Set",
    "post_double_ext": "Post-Double Ext",
    "post_double_set_ext": "Post-Double Set+Ext",
    "post_single_1": "Post-Single I",
    "post_single_2": "Post-Single II",
    "series_1": "Series I",
    "series_2": "Series II",
    "oracle": "Oracle",
}

# share of z columns used by the plain series benchmarks when the
# conditioning dictionary is the raw coordinates
SERIES_FRACTION_NUM = 4
SERIES_FRACTION_DEN = 5


class SelectionError(RuntimeError):
    """A selection step failed; the message names the offending equation."""


# What a fit can legitimately raise on one sample: bad or degenerate data
# (ValueError, with DegenerateColumnError and DegenerateLoadingsError), a
# singular system (LinAlgError, with SingularOmegaError), a solve that hit
# cd_max_iter, and a failed selection step. Anything else is a programming
# error and propagates instead of being counted as an estimator failure.
FIT_ERRORS = (ValueError, np.linalg.LinAlgError, ConvergenceError, SelectionError)

# the active set of every settled equation: shared, so read-only
_EMPTY_SET = np.empty(0, dtype=np.intp)
_EMPTY_SET.flags.writeable = False


@dataclass
class SelectionResult:
    """Selected conditioning terms from both stages.

    ``fs_sets`` has one index array per first-stage target and ``rf_set``
    is the reduced form's; ``union_set`` is their sorted union, the
    conditioning terms of the final OLS.
    """

    fs_sets: list
    rf_set: np.ndarray
    union_set: np.ndarray


@dataclass
class PdsFit:
    """Final OLS fit shared by every estimator.

    ``beta_hat`` sits in raw dictionary units, so the g estimate at a sample
    point is ``p(x) @ beta_hat`` up to the intercept in ``eta_hat[0]``;
    ``eta_hat[1:]`` are the coefficients of the selected controls.
    ``P_resid`` is the raw g dictionary residualized on ``[1, selected
    controls]``, the projection the fit itself made, kept for the variance
    step; ``p_rms`` is the root mean square of each raw g column, the unit
    in which that step tests Omega for singularity. ``selected`` indexes
    the estimator's own control matrix (the conditioning dictionary for
    selection-based fits).
    """

    beta_hat: np.ndarray
    eta_hat: np.ndarray
    selected: np.ndarray
    residuals: np.ndarray
    P_resid: np.ndarray
    p_rms: np.ndarray
    spec_p: DictionarySpec | None = None
    rank_deficient: bool = False
    name: str = "post_double"

    @property
    def n(self) -> int:
        return self.residuals.size

    def predict_g(self, x) -> np.ndarray:
        """Evaluate the estimated g at new points (without the intercept)."""
        if self.spec_p is None:
            raise ValueError("fit carries no dictionary description for g")
        return evaluate_dictionary(self.spec_p, x) @ self.beta_hat


@dataclass
class KGridResult:
    """Per-degree fits and the BIC-based choice."""

    k_hat: int
    k_bic: int
    fits: dict
    bics: dict
    errors: dict


def integer_root(m: int, r: int) -> int:
    """Exact floor(m ** (1/r)) for nonnegative integer m."""
    if m < 0 or r < 1:
        raise ValueError("m must be >= 0 and r >= 1")
    k = int(round(m ** (1.0 / r))) if m else 0
    while k > 0 and k**r > m:
        k -= 1
    while (k + 1) ** r <= m:
        k += 1
    return k


def default_degree(n: int) -> int:
    """Baseline dictionary size K = floor(n^(1/3))."""
    return integer_root(n, 3)


def default_k_grid(n: int) -> range:
    """Degree grid floor(n^(1/3)/2) .. floor(2 n^(1/3)), exact in integers."""
    lo = max(1, integer_root(n // 8, 3))
    hi = integer_root(8 * n, 3)
    return range(lo, hi + 1)


def resolve_gamma(config: LassoConfig, n: int, n_fs_targets: int,
                  n_regressors: int) -> LassoConfig:
    """Materialize the default penalty slack for one joint selection run.

    Both stages share gamma = 0.1 / log(max(K L, n)) with K the number of
    first-stage target equations actually run.
    """
    if config.gamma is not None:
        return config
    return replace(config, gamma=default_gamma(n, n_fs_targets, n_regressors))


def first_stage_select(bank: TargetBank, config: LassoConfig | None = None) -> list:
    """Lasso of each target of ``bank``, the standardized g-dictionary
    columns, on the bank's design; one active set per target.

    Every equation shares the design, whose Gram rows are each formed on
    the first entry of their column into any equation.
    """
    cfg = config if config is not None else LassoConfig()
    lam = penalty_level(bank.n, len(bank), bank.design.shape[1], cfg)
    return _active_sets(bank, lam, cfg, "first-stage equation {}")


def reduced_form_select(bank: TargetBank, config: LassoConfig | None = None) -> np.ndarray:
    """Lasso of the outcome, the one target of ``bank``, on the bank's
    design; its active set."""
    cfg = config if config is not None else LassoConfig()
    if len(bank) != 1:
        raise ValueError("the reduced form has one target")
    lam = penalty_level(bank.n, 1, bank.design.shape[1], cfg)
    return _active_sets(bank, lam, cfg, "reduced-form equation")[0]


def _active_sets(bank: TargetBank, lam: float, cfg: LassoConfig, label: str) -> list:
    """Active set of each equation of ``bank`` at ``lam``.

    In a bank of two or more equations, an equation that
    ``bank.settled_empty`` settles gets the empty set with no solve (one
    read-only empty array, shared by every settled equation). An equation
    left whose target has a recorded call gets the set of
    ``bank.replay`` when its certificate holds. Every other equation runs
    ``iterated_lasso``, and a failure is raised as a ``SelectionError``
    naming the equation by ``label.format(k)``.
    """
    # A one-equation bank (a reduced form) is never screened: screening it
    # would save ~20 us per reduced form, and the traced benchmark's repeat
    # check on mc_noise_controls, where every other equation is settled,
    # needs at least one iterated_lasso call to count. Its first degree
    # solves it; later degrees of a grid may replay that solve.
    left = np.flatnonzero(~bank.settled_empty(lam, cfg)).tolist() if len(bank) > 1 else [0]
    sets = [_EMPTY_SET] * len(bank)
    for k in left:
        active = bank.replay(k, lam, cfg)
        if active is None:
            try:
                active = iterated_lasso(bank, k, lam, cfg).active_set
            except FIT_ERRORS as exc:
                raise SelectionError(f"{label.format(k)} failed: {exc}") from exc
        sets[k] = active
    return sets


def post_double_select(fs_bank: TargetBank, rf_bank: TargetBank,
                       config: LassoConfig | None = None) -> SelectionResult:
    """Run both selection stages, on banks over one design, and form the
    union of selected terms."""
    if fs_bank.design is not rf_bank.design:
        raise ValueError("the first-stage and reduced-form banks are on different designs")
    cfg = resolve_gamma(
        config if config is not None else LassoConfig(),
        rf_bank.n,
        len(fs_bank),
        rf_bank.design.shape[1],
    )
    fs_sets = first_stage_select(fs_bank, cfg)
    rf_set = reduced_form_select(rf_bank, cfg)
    pieces = [s for s in fs_sets if s.size] + ([rf_set] if rf_set.size else [])
    if pieces:
        union = np.unique(np.concatenate(pieces)).astype(int)
    else:
        union = np.array([], dtype=int)
    return SelectionResult(fs_sets=fs_sets, rf_set=rf_set, union_set=union)


def pds_fit(P: np.ndarray, Q_sel: np.ndarray, y: np.ndarray, sel,
            spec_p: DictionarySpec | None = None, name: str = "post_double") -> PdsFit:
    """Final OLS of y on [1, P, Q_sel] in raw column units, by one projection.

    ``Q_sel`` holds only the selected control columns, in raw units (from a
    workspace, ``design.q_raw(idx)``). ``sel`` names them: a SelectionResult
    (its ``union_set``) or a plain index array into the estimator's control
    matrix, one index per column of ``Q_sel``.

    One least squares of ``[P | y]`` on ``W = [1, Q_sel]`` residualizes the
    g dictionary and the outcome on the controls; by Frisch-Waugh-Lovell,
    ``beta_hat`` is then the least squares of the residualized y on the
    residualized P, and ``eta_hat`` the controls' coefficients recovered
    from both. The fit is flagged ``rank_deficient`` when ``W`` or the
    residualized P loses rank; ``beta_hat`` is then the minimum-norm
    solution of the residualized regression.
    """
    P = np.asarray(P, dtype=float)
    Q_sel = np.asarray(Q_sel, dtype=float)
    y = np.asarray(y, dtype=float)
    idx = np.asarray(getattr(sel, "union_set", sel), dtype=int)
    n, k = P.shape
    if Q_sel.shape != (n, idx.size):
        raise ValueError(
            f"Q_sel has shape {Q_sel.shape}, expected ({n}, {idx.size}): "
            "one raw column per selected index"
        )
    W = np.concatenate([np.ones((n, 1)), Q_sel], axis=1)
    Py = np.concatenate([P, y[:, None]], axis=1)
    coef_w, _, rank_w, _ = np.linalg.lstsq(W, Py, rcond=None)
    Py_resid = Py - W @ coef_w
    P_resid, y_resid = Py_resid[:, :k], Py_resid[:, k]
    beta, _, rank_p, _ = np.linalg.lstsq(P_resid, y_resid, rcond=None)
    return PdsFit(
        beta_hat=beta,
        eta_hat=coef_w[:, k] - coef_w[:, :k] @ beta,
        selected=idx,
        residuals=y_resid - P_resid @ beta,
        P_resid=P_resid,
        p_rms=np.sqrt(np.mean(P * P, axis=0)),
        spec_p=spec_p,
        rank_deficient=bool(rank_w < W.shape[1] or rank_p < k),
        name=name,
    )


def _bic(fit: PdsFit) -> float:
    n = fit.n
    rss = float(fit.residuals @ fit.residuals)
    ncols = fit.beta_hat.size + fit.eta_hat.size
    return n * math.log(max(rss, 1e-300) / n) + ncols * math.log(n)


def _grid_bank(data: Dataset, design: DesignMatrices, k_max: int,
               extended_fs: bool):
    """One bank of every target of a degree grid, built at its largest degree.

    The rows are the standardized He_1..He_k_ok of ``data.x``, where k_ok
    stops before the first constant column; with ``extended_fs``, their
    pairwise sums and then differences in ``build_extended_fs`` order,
    whose ``Q't`` and loadings the bank derives from those of the base
    rows; and ``data.y`` last. A standardized column, and a sum or
    difference of two, is the same at every degree that has it, so every
    degree's targets are rows of this bank. Returns the bank, the raw
    He_1..He_k_max, k_ok and the second index of each bank pair.
    """
    P_raw = hermite_design(data.x, k_max)
    scales = P_raw.std(axis=0)
    bad = np.flatnonzero(scales == 0.0)
    k_ok = int(bad[0]) if bad.size else k_max
    ii, jj = np.triu_indices(k_ok, 1) if extended_fs else (np.empty(0, int),) * 2
    rows = np.empty((k_ok + 1, data.n))
    np.divide(P_raw[:, :k_ok].T, scales[:k_ok, None], out=rows[:k_ok])
    rows[-1] = data.y
    return TargetBank.of(rows, design.lasso_design, pairs=(ii, jj)), P_raw, k_ok, jj


def choose_k_bic(data: Dataset, design: DesignMatrices, k_grid,
                 config: LassoConfig | None = None,
                 extended_fs: bool = False) -> KGridResult:
    """Refit over a grid of g-dictionary degrees and pick by BIC.

    The conditioning dictionary, the workspace's ``LassoDesign`` over ``Q``
    with its Gram rows (formed on first entry and kept), stays fixed across
    the grid, and every Lasso target of the grid is evaluated once, in one
    ``TargetBank`` at the largest degree: each degree runs its equations on
    its rows of that bank, at its own penalty level, and an equation that
    an earlier degree solved is first replayed from that solve's rounds
    (``TargetBank.replay``). The chosen degree is
    the BIC minimizer plus one, clamped to the grid maximum; a degree whose
    fit fails, for instance on a constant term of its g dictionary, is
    skipped and recorded. When every degree fails, the ``SelectionError``
    names each degree's reason; when a constant term fails them all,
    its ``DegenerateColumnError`` is raised once instead. A one-degree grid
    is the fit at a fixed degree: every Post-Double estimator, and
    ``pds-series fit``, runs here.
    """
    cfg = config if config is not None else LassoConfig()
    k_grid = sorted(set(int(k) for k in k_grid))
    if not k_grid:
        raise ValueError("k_grid is empty")
    specs = {k: DictionarySpec("hermite_univariate", degree=k) for k in k_grid}
    bank, P_raw, k_ok, pair_j = _grid_bank(data, design, k_grid[-1], extended_fs)
    degenerate = f"P column {k_ok} has zero variance on this sample"
    if k_ok < k_grid[0]:
        raise DegenerateColumnError(degenerate)
    y_bank = bank.subset([len(bank.rows) - 1])
    fits: dict[int, PdsFit] = {}
    bics: dict[int, float] = {}
    errors: dict[int, str] = {}
    for k in k_grid:
        pairs = np.flatnonzero(pair_j < k)
        fs_rows = [*range(k), *(k_ok + pairs), *(k_ok + pair_j.size + pairs)]
        try:
            if k > k_ok:
                raise DegenerateColumnError(degenerate)
            sel = post_double_select(bank.subset(fs_rows), y_bank, cfg)
            fit = pds_fit(P_raw[:, :k], design.q_raw(sel.union_set), data.y,
                          sel, spec_p=specs[k])
        except FIT_ERRORS as exc:
            errors[k] = str(exc)
            continue
        fits[k] = fit
        bics[k] = _bic(fit)
    if not bics:
        raise SelectionError("; ".join(f"K={k}: {errors[k]}" for k in k_grid))
    # ties break toward the smaller degree
    k_bic = min(bics, key=lambda k: (bics[k], k))
    k_hat = min(k_bic + 1, max(k_grid))
    if k_hat not in fits:
        k_hat = k_bic
    return KGridResult(k_hat=k_hat, k_bic=k_bic, fits=fits, bics=bics, errors=errors)


def comparison_estimators(data: Dataset, spec_p: DictionarySpec,
                          spec_q: DictionarySpec,
                          config: LassoConfig | None = None, estimators=None,
                          rng=None, k_grid=None):
    """Fit the requested estimators on one sample.

    The sample's workspace over the conditioning dictionary ``spec_q`` is
    built once and handed to every estimator; each evaluates its g
    dictionary, ``spec_p`` or a degree of the BIC grid, from ``data.x``.
    Returns (fits, failures): a dict of PdsFit by estimator name, and a dict
    of error messages for estimators that failed on this sample with one of
    ``FIT_ERRORS``; any other exception propagates. When the workspace
    itself cannot be built, every requested estimator fails with that
    reason. ``rng`` is consumed only by the randomized series benchmark.
    """
    cfg = config if config is not None else LassoConfig()
    names = list(estimators) if estimators is not None else list(ESTIMATORS)
    unknown = [s for s in names if s not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimator names: {unknown}")
    if k_grid is None:
        k_grid = default_k_grid(data.n)

    fits: dict[str, PdsFit] = {}
    failures: dict[str, str] = {}
    try:
        design = build_design(spec_q, data.Z)
    except FIT_ERRORS as exc:
        return fits, {name: f"{type(exc).__name__}: {exc}" for name in names}
    for name in names:
        try:
            fits[name] = _fit_one(name, data, design, spec_p, cfg, rng, k_grid)
        except FIT_ERRORS as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
    return fits, failures


def _series_controls(data: Dataset, design: DesignMatrices, which: str, rng):
    """Control block for the plain series benchmarks."""
    n = data.n
    spec_q = design.spec_q
    if spec_q.kind == "hermite_tensor":
        if which == "series_1":
            # additive univariate expansions, one block per coordinate
            blocks = [hermite_design(data.Z[:, j], spec_q.degree)
                      for j in range(data.Z.shape[1])]
            return np.concatenate(blocks, axis=1)
        return design.q_raw(np.arange(design.Q.shape[1]))
    n_keep = min((SERIES_FRACTION_NUM * n) // SERIES_FRACTION_DEN, data.Z.shape[1])
    if which == "series_1":
        return data.Z[:, :n_keep]
    if rng is None:
        raise ValueError("randomized series benchmark needs an RNG")
    cols = np.sort(rng.choice(data.Z.shape[1], size=n_keep, replace=False))
    return data.Z[:, cols]


def _fit_one(name, data: Dataset, design: DesignMatrices, spec_p: DictionarySpec,
             cfg, rng, k_grid) -> PdsFit:
    if name.startswith("post_double"):
        # a fixed degree is the one-degree grid
        grid = k_grid if name.startswith("post_double_set") else [spec_p.degree]
        res = choose_k_bic(data, design, grid, cfg, extended_fs=name.endswith("_ext"))
        fit = res.fits[res.k_hat]
        fit.name = name
        return fit

    P_raw = evaluate_dictionary(spec_p, data.x)
    # standardizing refuses a constant column, as the Post-Double route does
    P, _ = standardize_columns(P_raw, what="P column")
    if name == "post_single_1":
        rf_set = reduced_form_select(TargetBank.of(data.y, design.lasso_design), cfg)
        return pds_fit(P_raw, design.q_raw(rf_set), data.y, rf_set,
                       spec_p=spec_p, name=name)

    if name == "post_single_2":
        # one Lasso of y on [P, Q]: the blocks P and the workspace's design,
        # whose Q*Q and stored rows of Q'Q it reuses
        joint = LassoDesign(P, design.lasso_design)
        active = reduced_form_select(TargetBank.of(data.y, joint), cfg)
        n_p = P.shape[1]
        in_q = active[active >= n_p] - n_p
        return pds_fit(P_raw, design.q_raw(in_q), data.y, in_q,
                       spec_p=spec_p, name=name)

    if name in ("series_1", "series_2"):
        controls = _series_controls(data, design, name, rng)
        sel = np.arange(controls.shape[1])
        return pds_fit(P_raw, controls, data.y, sel, spec_p=spec_p, name=name)

    if name == "oracle":
        if data.h_true is None:
            raise ValueError("oracle estimator requires the true h values")
        y_adj = data.y - data.h_true
        empty = np.array([], dtype=int)
        return pds_fit(P_raw, np.empty((data.n, 0)), y_adj, empty,
                       spec_p=spec_p, name=name)

    raise ValueError(f"unknown estimator {name!r}")
