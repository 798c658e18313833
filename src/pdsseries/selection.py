"""Post-double selection and the comparison estimators.

The estimator of interest regresses each approximating term for g on the
conditioning dictionary (first stage) and the outcome on the conditioning
dictionary (reduced form), both by iterated-loadings Lasso; the final step
is OLS of y on an intercept, the full g dictionary, and the union of the
selected conditioning terms. The benchmarking alternatives (single-selection
variants, plain series fits, an infeasible oracle) share the final-OLS
plumbing so downstream inference treats every fit uniformly.

Every one of these Lassos runs on the same conditioning dictionary, so the
selection functions take the sample's ``DesignMatrices`` workspace from
``build_design`` in place of ``Q``: the standardized ``Q`` with its ``Q'Q``
and ``Q*Q``, formed once per sample and shared by every equation, every
estimator and every degree of the BIC grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .dictionary import (
    DesignMatrices,
    DictionarySpec,
    build_design,
    build_extended_fs,
    evaluate_dictionary,
    hermite_design,
    standardize_columns,
)
from .lasso import (
    ConvergenceError,
    LassoConfig,
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
    point is ``p(x) @ beta_hat`` up to the intercept in ``eta_hat[0]``.
    ``P`` and ``Q_sel`` are the raw regressor blocks actually used, kept for
    the variance step. ``selected`` indexes the estimator's own control
    matrix (the conditioning dictionary for selection-based fits).
    """

    beta_hat: np.ndarray
    eta_hat: np.ndarray
    selected: np.ndarray
    residuals: np.ndarray
    P: np.ndarray
    Q_sel: np.ndarray
    spec_p: DictionarySpec | None = None
    rank_deficient: bool = False
    name: str = "post_double"
    k_chosen: int | None = None

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


def first_stage_select(P_fs: np.ndarray, design: DesignMatrices,
                       config: LassoConfig | None = None) -> list:
    """Lasso of each g-dictionary column on the conditioning dictionary.

    ``P_fs`` is expected column-standardized; every equation shares the
    workspace's ``Q``, ``Q'Q`` and ``Q*Q``. Returns one active set per
    column of ``P_fs``.
    """
    cfg = config if config is not None else LassoConfig()
    P_fs = np.asarray(P_fs, dtype=float)
    n, k_fs = P_fs.shape
    lam = penalty_level(n, k_fs, design.Q.shape[1], cfg, stage="first_stage")
    sets = []
    for k in range(k_fs):
        try:
            fit = iterated_lasso(design.Q, P_fs[:, k], lam, cfg,
                                 gram=design.gram, sq=design.sq)
        except FIT_ERRORS as exc:
            raise SelectionError(f"first-stage equation {k} failed: {exc}") from exc
        sets.append(fit.active_set)
    return sets


def reduced_form_select(design: DesignMatrices, y: np.ndarray,
                        config: LassoConfig | None = None) -> np.ndarray:
    """Lasso of the outcome on the conditioning dictionary; its active set."""
    cfg = config if config is not None else LassoConfig()
    y = np.asarray(y, dtype=float)
    lam = penalty_level(y.shape[0], 1, design.Q.shape[1], cfg, stage="reduced_form")
    try:
        fit = iterated_lasso(design.Q, y, lam, cfg, gram=design.gram, sq=design.sq)
    except FIT_ERRORS as exc:
        raise SelectionError(f"reduced-form equation failed: {exc}") from exc
    return fit.active_set


def post_double_select(P_fs: np.ndarray, design: DesignMatrices, y: np.ndarray,
                       config: LassoConfig | None = None) -> SelectionResult:
    """Run both selection stages and form the union of selected terms."""
    cfg = resolve_gamma(
        config if config is not None else LassoConfig(),
        np.asarray(y).shape[0],
        np.asarray(P_fs).shape[1],
        design.Q.shape[1],
    )
    fs_sets = first_stage_select(P_fs, design, cfg)
    rf_set = reduced_form_select(design, y, cfg)
    pieces = [s for s in fs_sets if s.size] + ([rf_set] if rf_set.size else [])
    if pieces:
        union = np.unique(np.concatenate(pieces)).astype(int)
    else:
        union = np.array([], dtype=int)
    return SelectionResult(fs_sets=fs_sets, rf_set=rf_set, union_set=union)


def pds_fit(P: np.ndarray, Q_sel: np.ndarray, y: np.ndarray, sel,
            spec_p: DictionarySpec | None = None, name: str = "post_double",
            k_chosen: int | None = None) -> PdsFit:
    """Final OLS of y on [1, P, Q_sel] in raw column units.

    ``Q_sel`` holds only the selected control columns, in raw units (from a
    workspace, ``design.q_raw(idx)``). ``sel`` names them: a SelectionResult
    (its ``union_set``) or a plain index array into the estimator's control
    matrix, one index per column of ``Q_sel``. Rank deficiency is handled by
    the minimum-norm solution and flagged.
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
    X = np.concatenate([np.ones((n, 1)), P, Q_sel], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    return PdsFit(
        beta_hat=coef[1 : 1 + k],
        eta_hat=np.concatenate([coef[:1], coef[1 + k :]]),
        selected=idx,
        residuals=resid,
        P=P,
        Q_sel=Q_sel,
        spec_p=spec_p,
        rank_deficient=bool(rank < X.shape[1]),
        name=name,
        k_chosen=k_chosen,
    )


def _bic(fit: PdsFit) -> float:
    n = fit.n
    rss = float(fit.residuals @ fit.residuals)
    ncols = 1 + fit.P.shape[1] + fit.Q_sel.shape[1]
    return n * math.log(max(rss, 1e-300) / n) + ncols * math.log(n)


def choose_k_bic(data: Dataset, design: DesignMatrices, k_grid,
                 config: LassoConfig | None = None,
                 extended_fs: bool = False) -> KGridResult:
    """Refit over a grid of g-dictionary degrees and pick by BIC.

    The conditioning dictionary, the workspace's ``Q`` with its ``Q'Q`` and
    ``Q*Q``, stays fixed across the grid; only the g dictionary is rebuilt
    per degree. The chosen degree is the BIC minimizer plus one, clamped to
    the grid maximum; a degree whose fit fails is skipped and recorded.
    """
    cfg = config if config is not None else LassoConfig()
    k_grid = sorted(set(int(k) for k in k_grid))
    if not k_grid:
        raise ValueError("k_grid is empty")
    fits: dict[int, PdsFit] = {}
    bics: dict[int, float] = {}
    errors: dict[int, str] = {}
    for k in k_grid:
        spec_p = DictionarySpec("hermite_univariate", degree=k)
        try:
            P_raw = hermite_design(data.x, k)
            P, _ = standardize_columns(P_raw, what="P column")
            P_fs = build_extended_fs(P) if extended_fs else P
            sel = post_double_select(P_fs, design, data.y, cfg)
            fit = pds_fit(P_raw, design.q_raw(sel.union_set), data.y, sel,
                          spec_p=spec_p, k_chosen=k)
        except FIT_ERRORS as exc:
            errors[k] = str(exc)
            continue
        fits[k] = fit
        bics[k] = _bic(fit)
    if not bics:
        raise SelectionError("every degree in the grid failed")
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

    The sample's workspace is built once and handed to every estimator.
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
        design = build_design(spec_p, spec_q, data.x, data.Z)
    except FIT_ERRORS as exc:
        return fits, {name: f"{type(exc).__name__}: {exc}" for name in names}
    for name in names:
        try:
            fits[name] = _fit_one(name, data, design, cfg, rng, k_grid)
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


def _fit_one(name, data: Dataset, design: DesignMatrices, cfg, rng, k_grid) -> PdsFit:
    spec_p = design.spec_p
    if name in ("post_double", "post_double_ext"):
        P_fs = build_extended_fs(design.P) if name == "post_double_ext" else design.P
        sel = post_double_select(P_fs, design, data.y, cfg)
        return pds_fit(design.p_raw, design.q_raw(sel.union_set), data.y, sel,
                       spec_p=spec_p, name=name)

    if name in ("post_double_set", "post_double_set_ext"):
        res = choose_k_bic(data, design, k_grid, cfg,
                           extended_fs=name.endswith("_ext"))
        fit = res.fits[res.k_hat]
        fit.name = name
        return fit

    if name == "post_single_1":
        rf_set = reduced_form_select(design, data.y, cfg)
        return pds_fit(design.p_raw, design.q_raw(rf_set), data.y, rf_set,
                       spec_p=spec_p, name=name)

    if name == "post_single_2":
        P, Q = design.P, design.Q
        X = np.concatenate([P, Q], axis=1)
        # assemble the joint Gram and squared design from blocks so the
        # workspace's Q'Q and Q*Q are reused
        g_pq = P.T @ Q
        gram = np.block([[P.T @ P, g_pq], [g_pq.T, design.gram]])
        sq = np.concatenate([P * P, design.sq], axis=1)
        lam = penalty_level(data.n, 1, X.shape[1], cfg, stage="reduced_form")
        fit = iterated_lasso(X, data.y, lam, cfg, gram=gram, sq=sq)
        in_q = fit.active_set[fit.active_set >= design.n_p] - design.n_p
        return pds_fit(design.p_raw, design.q_raw(in_q), data.y, in_q,
                       spec_p=spec_p, name=name)

    if name in ("series_1", "series_2"):
        controls = _series_controls(data, design, name, rng)
        sel = np.arange(controls.shape[1])
        return pds_fit(design.p_raw, controls, data.y, sel, spec_p=spec_p, name=name)

    if name == "oracle":
        if data.h_true is None:
            raise ValueError("oracle estimator requires the true h values")
        y_adj = data.y - data.h_true
        empty = np.array([], dtype=int)
        return pds_fit(design.p_raw, np.empty((data.n, 0)), y_adj, empty,
                       spec_p=spec_p, name=name)

    raise ValueError(f"unknown estimator {name!r}")
