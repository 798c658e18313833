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
``build_design`` in place of ``Q``. Its one ``LassoDesign`` over ``Q``
holds ``Q*Q`` and the Gram rows formed so far, and is shared by every
equation, every estimator and every degree of the BIC grid. Each stage
fits its targets from a ``lasso.TargetBank`` on that design, which
evaluates each target's ``Q't`` and initial loadings once and memoizes its
refined loadings by active set; the BIC grid builds one bank at its largest
degree and indexes every degree into it. Post-Single II, the one Lasso on
another design, builds its own ``LassoDesign`` over ``[P, Q]``.

Most first-stage equations select nothing. Before solving, each stage asks
its bank which equations end with an empty active set at its penalty level
(``TargetBank.settled_empty``: two elementwise comparisons over the bank's
``Q'T``, with the empty set's refined loadings pre-filled in each memo) and
runs ``iterated_lasso`` only for the rest. The sets, and the exceptions of
equations that fail, are those of one ``iterated_lasso`` call per equation.
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
    build_extended_fs,
    evaluate_dictionary,
    hermite_design,
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


def _as_bank(targets, design: DesignMatrices) -> TargetBank:
    """A TargetBank on the workspace's design as it is; else a bank of the
    columns of an (n, k) matrix, or of one vector."""
    if isinstance(targets, TargetBank):
        if targets.design is not design.lasso_design:
            raise ValueError("the target bank belongs to another workspace")
        return targets
    return TargetBank.of(np.asarray(targets, dtype=float).T, design.lasso_design)


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


def first_stage_select(P_fs, design: DesignMatrices,
                       config: LassoConfig | None = None) -> list:
    """Lasso of each g-dictionary column on the conditioning dictionary.

    ``P_fs`` is an (n, k) matrix, expected column-standardized, or a
    ``TargetBank`` of its columns; every equation shares the workspace's
    ``LassoDesign``, whose Gram rows are each formed on the first entry of
    their column into any equation. Returns one active set per target.
    """
    cfg = config if config is not None else LassoConfig()
    bank = _as_bank(P_fs, design)
    lam = penalty_level(bank.n, len(bank), design.Q.shape[1], cfg)
    return _active_sets(bank, lam, cfg, "first-stage equation {}")


def reduced_form_select(design: DesignMatrices, y,
                        config: LassoConfig | None = None) -> np.ndarray:
    """Lasso of the outcome on the conditioning dictionary; its active set.

    ``y`` is the outcome vector or a one-target ``TargetBank`` of it.
    """
    cfg = config if config is not None else LassoConfig()
    bank = _as_bank(y, design)
    if len(bank) != 1:
        raise ValueError("the reduced form has one target")
    lam = penalty_level(bank.n, 1, design.Q.shape[1], cfg)
    return _active_sets(bank, lam, cfg, "reduced-form equation")[0]


def _active_sets(bank: TargetBank, lam: float, cfg: LassoConfig, label: str) -> list:
    """Active set of each equation of ``bank`` at ``lam``.

    In a bank of two or more equations, an equation that
    ``bank.settled_empty`` settles gets the empty set with no solve. Every
    other equation runs ``iterated_lasso``, and a failure is raised as a
    ``SelectionError`` naming the equation by ``label.format(k)``.
    """
    # A one-equation bank (the reduced form) runs its solve: screening it
    # would save ~20 us per reduced form, and the traced benchmark's repeat check on
    # mc_noise_controls, where every other equation is settled, needs at
    # least one iterated_lasso call to count.
    settled = bank.settled_empty(lam, cfg).tolist() if len(bank) > 1 else [False]
    sets = []
    for k, done in enumerate(settled):
        if done:
            sets.append(np.empty(0, dtype=np.intp))
            continue
        try:
            fit = iterated_lasso(bank, k, lam, cfg)
        except FIT_ERRORS as exc:
            raise SelectionError(f"{label.format(k)} failed: {exc}") from exc
        sets.append(fit.active_set)
    return sets


def post_double_select(P_fs, design: DesignMatrices, y,
                       config: LassoConfig | None = None) -> SelectionResult:
    """Run both selection stages and form the union of selected terms.

    ``P_fs`` and ``y`` are arrays or ``TargetBank``s, as in the two stages.
    """
    fs_bank = _as_bank(P_fs, design)
    rf_bank = _as_bank(y, design)
    cfg = resolve_gamma(
        config if config is not None else LassoConfig(),
        rf_bank.n,
        len(fs_bank),
        design.Q.shape[1],
    )
    fs_sets = first_stage_select(fs_bank, design, cfg)
    rf_set = reduced_form_select(design, rf_bank, cfg)
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


def _grid_bank(data: Dataset, design: DesignMatrices, k_max: int,
               extended_fs: bool):
    """One bank of every target of a degree grid, built at its largest degree.

    The rows are the standardized He_1..He_k_ok of ``data.x``, where k_ok
    stops before the first constant column; with ``extended_fs``, their
    pairwise sums and then differences in ``build_extended_fs`` order; and
    ``data.y`` last. A standardized column, and a sum or difference of two,
    is the same at every degree that has it, so every degree's targets are
    rows of this bank. Returns the bank, the raw He_1..He_k_max, k_ok and
    the second index of each bank pair.
    """
    P_raw = hermite_design(data.x, k_max)
    scales = P_raw.std(axis=0)
    bad = np.flatnonzero(scales == 0.0)
    k_ok = int(bad[0]) if bad.size else k_max
    ii, jj = np.triu_indices(k_ok, 1) if extended_fs else (np.empty(0, int),) * 2
    rows = np.empty((k_ok + 2 * ii.size + 1, data.n))
    base = rows[:k_ok]
    np.divide(P_raw[:, :k_ok].T, scales[:k_ok, None], out=base)
    np.add(base[ii], base[jj], out=rows[k_ok : k_ok + ii.size])
    np.subtract(base[ii], base[jj], out=rows[k_ok + ii.size : -1])
    rows[-1] = data.y
    return TargetBank.of(rows, design.lasso_design), P_raw, k_ok, jj


def choose_k_bic(data: Dataset, design: DesignMatrices, k_grid,
                 config: LassoConfig | None = None,
                 extended_fs: bool = False) -> KGridResult:
    """Refit over a grid of g-dictionary degrees and pick by BIC.

    The conditioning dictionary, the workspace's ``LassoDesign`` over ``Q``
    with its Gram rows (formed on first entry and kept), stays fixed across
    the grid, and every Lasso target of the grid is evaluated once, in one
    ``TargetBank`` at the largest degree: each degree runs its equations on
    its rows of that bank, at its own penalty level. The chosen degree is
    the BIC minimizer plus one, clamped to the grid maximum; a degree whose
    fit fails, for instance on a constant term of its g dictionary, is
    skipped and recorded.
    """
    cfg = config if config is not None else LassoConfig()
    k_grid = sorted(set(int(k) for k in k_grid))
    if not k_grid:
        raise ValueError("k_grid is empty")
    specs = {k: DictionarySpec("hermite_univariate", degree=k) for k in k_grid}
    bank, P_raw, k_ok, pair_j = _grid_bank(data, design, k_grid[-1], extended_fs)
    y_bank = bank.subset([len(bank.rows) - 1])
    fits: dict[int, PdsFit] = {}
    bics: dict[int, float] = {}
    errors: dict[int, str] = {}
    for k in k_grid:
        pairs = np.flatnonzero(pair_j < k)
        fs_rows = [*range(k), *(k_ok + pairs), *(k_ok + pair_j.size + pairs)]
        try:
            if k > k_ok:
                raise DegenerateColumnError(
                    f"P column {k_ok} has zero variance on this sample")
            sel = post_double_select(bank.subset(fs_rows), design, y_bank, cfg)
            fit = pds_fit(P_raw[:, :k].copy(), design.q_raw(sel.union_set), data.y,
                          sel, spec_p=specs[k], k_chosen=k)
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
        # one Lasso of y on the joint [P, Q], its own design
        joint = LassoDesign(np.concatenate([design.P, design.Q], axis=1))
        lam = penalty_level(data.n, 1, joint.X.shape[1], cfg)
        fit = iterated_lasso(TargetBank.of(data.y, joint), 0, lam, cfg)
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
