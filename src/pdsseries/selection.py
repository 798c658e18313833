"""Post-double selection and the comparison estimators.

The estimator of interest regresses each approximating term for g on the
conditioning dictionary (first stage) and the outcome on the conditioning
dictionary (reduced form), both by iterated-loadings Lasso; the final step
is OLS of y on an intercept, the full g dictionary, and the union of the
selected conditioning terms. It runs at a fixed degree K or with K chosen
by BIC over a grid, and both are one route: ``choose_k_bic``, with the
one-degree grid ``[K]`` for a fixed degree. The final OLS is one least
squares of the g dictionary and the outcome on the selected controls; a
grid runs every degree's selection first and then makes one such
projection per distinct control set, at the largest degree that selects
it, from which each degree of the set fits its own columns
(``_final_fits``, given each degree's g dictionary). ``pds_fit`` is its
one-degree case, so a one-degree grid's fit is ``pds_fit``'s, bit for bit.
A ``PdsFit`` is finished where it is projected, its ``spec_p`` included,
and no caller changes it afterwards; an estimator's fit carries no name,
as the dict ``comparison_estimators`` returns is keyed by it. The
benchmarking alternatives (single-selection variants, plain series fits,
an infeasible oracle) each choose their controls, and the oracle its
outcome y - h, and then end in one ``pds_fit`` call, so downstream
inference treats every fit uniformly.

Every selection step is one Lasso equation, and every equation reaches the
solver by one route: a stage function (``first_stage_select``,
``reduced_form_select``, or both through ``post_double_select``) takes a
``lasso.TargetBank`` of its targets, which holds their design, and
``_active_sets`` fits each equation of the bank, raising a failure as a
``SelectionError`` that names the equation. A bank evaluates each target's
``X't`` and initial loadings once and memoizes its refined loadings by
active set; ``choose_k_bic`` builds one bank at the grid's largest degree,
of the g rows and the outcome, and with the extended first stage the
pairs of g rows, which the bank lays out and derives itself; each degree
runs on ``TargetBank.leading``, which alone knows where its targets lie.

The sample's workspace from ``build_design`` is one ``LassoDesign`` over
the conditioning dictionary ``Q`` in raw units, which it reads at unit root
mean square, holding ``Q*Q`` and the Gram rows formed so far, shared by
every equation, estimator and degree. The g dictionary is not in it: each
fit builds its g block, He_1..He_K of ``x`` at its own degree, by one
function (``_g_block``), which also gives the standardized columns and
stops at the first degenerate or overflowing column, whose error fails
every degree that has it. Every final OLS reads raw columns, of the g
dictionary and of ``Q`` (the design's ``blocks[0]``); the grid bank's
first stage and Post-Single II select on the standardized g columns. The g
dictionary is always the univariate Hermite one, and
``comparison_estimators`` refuses any other. Post-Single I is the reduced
form on the workspace; Post-Single II is the reduced form on a
``LassoDesign`` of two blocks, its standardized g dictionary ``P`` and the
workspace, which reuses ``Q*Q`` and the stored rows of ``Q'Q``, so only
their ``P`` parts are new.

Most first-stage equations select nothing. A bank of two or more
equations is first asked which surely end with an empty active set
(``TargetBank.settled_empty``: one comparison of the rounds' levels), and
``iterated_lasso`` runs for the rest, including any the screen cannot
vouch for. In a grid, that call settles each loading round that an
earlier degree's call on the same target recorded by a KKT certificate
where it holds, and solves the others. The sets, and the exceptions of
equations that fail, are those of one ``iterated_lasso`` call per
equation on a bank without records.

``ESTIMATOR_LABELS`` owns the nine estimator names, with the label each
prints under; ``ESTIMATORS`` is its keys, in order. ``comparison_estimators``
checks a list of them by ``data.check_names``, as ``run_monte_carlo`` and
the command line do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, _require_whole, check_names
from .dictionary import (
    DegenerateColumnError,
    DictionarySpec,
    _constant_columns,
    _coordinates,
    _hermite_columns,
    _out_of_range,
    build_design,
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
ESTIMATORS = tuple(ESTIMATOR_LABELS)

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


def first_stage_select(bank: TargetBank, config: LassoConfig = LassoConfig()) -> list:
    """Lasso of each target of ``bank``, the standardized g-dictionary
    columns, on the bank's design; one active set per target.

    Every equation shares the design, whose Gram rows are each formed on
    the first entry of their column into any equation.
    """
    lam = penalty_level(bank.n, len(bank), bank.design.shape[1], config)
    return _active_sets(bank, lam, config, "first-stage equation {}")


def reduced_form_select(bank: TargetBank, config: LassoConfig = LassoConfig()) -> np.ndarray:
    """Lasso of the outcome, the one target of ``bank``, on the bank's
    design; its active set."""
    if len(bank) != 1:
        raise ValueError("the reduced form has one target")
    lam = penalty_level(bank.n, 1, bank.design.shape[1], config)
    return _active_sets(bank, lam, config, "reduced-form equation")[0]


def _active_sets(bank: TargetBank, lam: float, config: LassoConfig, label: str) -> list:
    """Active set of each equation of ``bank`` at ``lam``.

    In a bank of two or more equations, an equation that
    ``bank.settled_empty`` settles gets the empty set with no solve (one
    read-only empty array, shared by every settled equation). Every other
    equation runs ``iterated_lasso``, which certifies the rounds of its
    target's last call where it can, and a failure is raised as a
    ``SelectionError`` naming the equation by ``label.format(k)``.
    """
    # A one-equation bank (a reduced form) is never screened: screening it
    # would save ~20 us per reduced form, and the traced benchmark's repeat
    # check on mc_noise_controls, where every other equation is settled,
    # needs at least one iterated_lasso call to count. Its first degree
    # solves it; later degrees of a grid may certify that solve's rounds.
    left = np.flatnonzero(~bank.settled_empty(lam, config)).tolist() if len(bank) > 1 else [0]
    sets = [_EMPTY_SET] * len(bank)
    for k in left:
        try:
            sets[k] = iterated_lasso(bank, k, lam, config).active_set
        except FIT_ERRORS as exc:
            raise SelectionError(f"{label.format(k)} failed: {exc}") from exc
    return sets


def post_double_select(fs_bank: TargetBank, rf_bank: TargetBank,
                       config: LassoConfig = LassoConfig()) -> SelectionResult:
    """Run both selection stages, on banks over one design, and form the
    union of selected terms."""
    if fs_bank.design is not rf_bank.design:
        raise ValueError("the first-stage and reduced-form banks are on different designs")
    config = resolve_gamma(config, rf_bank.n, len(fs_bank), rf_bank.design.shape[1])
    fs_sets = first_stage_select(fs_bank, config)
    rf_set = reduced_form_select(rf_bank, config)
    union = np.unique(np.concatenate([*fs_sets, rf_set]))
    return SelectionResult(fs_sets=fs_sets, rf_set=rf_set, union_set=union)


def pds_fit(P: np.ndarray, Q_sel: np.ndarray, y: np.ndarray, sel,
            spec_p: DictionarySpec | None = None) -> PdsFit:
    """Final OLS of y on [1, P, Q_sel] in raw column units, by one projection.

    ``Q_sel`` holds only the selected control columns, in raw units (from a
    workspace, ``design.blocks[0][:, idx]``). ``sel`` names them: an index array
    into the estimator's control matrix (for post-double selection, a
    ``SelectionResult.union_set``), one index per column of ``Q_sel``.

    One least squares of ``[P | y]`` on ``W = [1, Q_sel]`` residualizes the
    g dictionary and the outcome on the controls; by Frisch-Waugh-Lovell,
    ``beta_hat`` is then the least squares of the residualized y on the
    residualized P, and ``eta_hat`` the controls' coefficients recovered
    from both. The fit is flagged ``rank_deficient`` when ``W`` or the
    residualized P loses rank; ``beta_hat`` is then the minimum-norm
    solution of the residualized regression. It is the one-degree case of
    the final fits a BIC grid makes (``_final_fits``).
    """
    return _final_fits(P, Q_sel, y, sel, {np.shape(P)[1]: spec_p})[0]


def _final_fits(P: np.ndarray, Q_sel: np.ndarray, y: np.ndarray, sel, specs: dict) -> list:
    """The final OLS of ``pds_fit`` on the first k columns of ``P``, for
    each degree k of ``specs``, a dict of the g dictionary by degree, from
    one projection.

    One least squares of ``[P | y]`` on ``W = [1, Q_sel]`` residualizes
    every column of ``P`` and the outcome; each degree k then reads the
    first k residualized columns and runs its own least squares of the
    residualized y on them. A degree's fit reads nothing of another degree,
    so it is the same bit for bit whichever degrees share the projection;
    the projection's width, that of ``P``, moves its low bits. Returns one
    ``PdsFit`` per degree, in the order of ``specs``, each with its
    ``spec_p``; its ``P_resid`` is a view of the shared projection.
    """
    P, Q_sel, y = (np.asarray(a, dtype=float) for a in (P, Q_sel, y))
    idx = np.asarray(sel, dtype=int)
    n, width = P.shape
    if Q_sel.shape != (n, idx.size):
        raise ValueError(
            f"Q_sel has shape {Q_sel.shape}, expected ({n}, {idx.size}): "
            "one raw column per selected index"
        )
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},): one outcome per row of P")
    W = np.concatenate([np.ones((n, 1)), Q_sel], axis=1)
    Py = np.concatenate([P, y[:, None]], axis=1)
    coef_w, _, rank_w, _ = np.linalg.lstsq(W, Py, rcond=None)
    Py_resid = Py - W @ coef_w
    y_resid = Py_resid[:, width]
    fits = []
    for k, spec_p in specs.items():
        P_resid = Py_resid[:, :k]
        beta, _, rank_p, _ = np.linalg.lstsq(P_resid, y_resid, rcond=None)
        P_k = P[:, :k]
        fits.append(PdsFit(
            beta_hat=beta,
            eta_hat=coef_w[:, width] - coef_w[:, :k] @ beta,
            selected=idx,
            residuals=y_resid - P_resid @ beta,
            P_resid=P_resid,
            p_rms=np.sqrt(np.mean(P_k * P_k, axis=0)),
            spec_p=spec_p,
            rank_deficient=bool(rank_w < W.shape[1] or rank_p < k),
        ))
    return fits


def _bic(fit: PdsFit) -> float:
    n = fit.n
    rss = float(fit.residuals @ fit.residuals)
    ncols = fit.beta_hat.size + fit.eta_hat.size
    return n * math.log(max(rss, 1e-300) / n) + ncols * math.log(n)


def _g_block(x, k: int):
    """He_1..He_k of ``x`` up to the first column no fit can use: the raw
    columns every final OLS reads, and the standardized columns (by the
    ``std(axis=0)`` scales) that the first stage and Post-Single II select
    on.

    Returns ``(P_raw, P, refusal)``, each block of the first ``k_ok``
    columns, those before the first degenerate column or the first that
    overflows (``hermite_design``'s test), whichever comes first. A column
    is degenerate when it is constant (``_constant_columns``) or its
    standard deviation is 0 (entries so close together that their centred
    squares underflow). ``refusal`` is the error that every degree above
    ``k_ok`` fails with, naming that column, or None when ``k_ok = k``.
    """
    P_raw, k_ok = _hermite_columns(x, k)
    refusal = _out_of_range(k_ok + 1) if k_ok < k else None
    P_raw = P_raw[:, :k_ok]
    scales = P_raw.std(axis=0)
    degenerate = np.flatnonzero(_constant_columns(P_raw) | (scales == 0.0))
    if degenerate.size:
        k_ok = int(degenerate[0])
        refusal = _degenerate(k_ok)
    P_raw = P_raw[:, :k_ok]
    return P_raw, P_raw / scales[:k_ok], refusal


def _degenerate(j: int) -> DegenerateColumnError:
    return DegenerateColumnError(f"P column {j} has zero variance on this sample")


def _grid_bank(data: Dataset, design: LassoDesign, k_grid: list,
               extended_fs: bool):
    """One bank of every target of a degree grid (ascending degrees), built
    at its largest degree that can fit.

    ``_g_block`` evaluates the g dictionary at the grid's largest degree,
    up to k_ok columns; the degrees above k_ok fail, so the bank takes the
    first k_top columns, k_top the largest degree of the grid at or below
    k_ok (0 if there is none). The given rows are those standardized
    columns, then ``data.y`` at row k_top; with ``extended_fs``, every pair
    of g rows is banked too, laid out and derived as ``TargetBank.of``
    does. A standardized column, and a sum or difference of two, is the
    same at every degree that has it, so degree k's first stage is
    ``bank.leading(k)`` and its reduced form row k_top. Returns the bank,
    the raw He_1..He_k_top and ``_g_block``'s refusal, which every degree
    above k_top fails with.
    """
    P_raw, P, refusal = _g_block(data.x, k_grid[-1])
    k_top = max((k for k in k_grid if k <= P.shape[1]), default=0)
    P_raw, P = P_raw[:, :k_top], P[:, :k_top]
    pairs = np.triu_indices(k_top, 1) if extended_fs else ((), ())
    bank = TargetBank.of(np.vstack([P.T, data.y]), design, pairs=pairs)
    return bank, P_raw, refusal


def _degree_grid(k_grid) -> list:
    """The distinct degrees of ``k_grid``, ascending; a degree that is not
    a whole number >= 1 is refused by name."""
    degrees = {_require_whole("k_grid degree", k, 1) for k in k_grid}
    if not degrees:
        raise ValueError("k_grid is empty")
    return sorted(degrees)


def choose_k_bic(data: Dataset, design: LassoDesign, k_grid,
                 config: LassoConfig = LassoConfig(),
                 extended_fs: bool = False) -> KGridResult:
    """Refit over a grid of g-dictionary degrees and pick by BIC.

    The conditioning dictionary, the workspace ``design`` over ``Q`` with
    its Gram rows (formed on first entry and kept), stays fixed across the
    grid, and every Lasso target of the grid is evaluated once, in one
    ``TargetBank`` at the largest degree: each degree runs its equations on
    its rows of that bank, at its own penalty level, and an equation that
    an earlier degree solved certifies that solve's rounds where it can
    (``iterated_lasso``). Every degree's selection runs first; the
    degrees that select the same controls then share one projection of
    their final OLS (``_final_fits``), made at the group's largest degree,
    so a degree's fit agrees with its one-degree fit to rounding, not bit
    for bit, unless it is its group's largest. The chosen degree is the BIC
    minimizer plus one, clamped to the grid maximum; a degree whose fit
    fails, for instance on a constant or overflowing term of its g
    dictionary, is skipped and recorded, and ``fits``, ``bics`` and
    ``errors`` run in ascending degree. When every degree fails, the
    ``SelectionError`` names each degree's reason; when such a term fails
    them all, its error (``_g_block``'s refusal) is raised once instead. A
    one-degree grid is the fit at a fixed degree: every Post-Double
    estimator, and ``pds-series fit``, runs here. A ``design`` of more
    than one block is refused by a ``ValueError``: its first block is read
    as the raw ``Q`` of the final OLS.
    """
    if len(design.blocks) != 1:
        raise ValueError("choose_k_bic takes the one-block workspace of build_design")
    k_grid = _degree_grid(k_grid)
    bank, P_raw, refusal = _grid_bank(data, design, k_grid, extended_fs)
    k_top = P_raw.shape[1]
    if k_top < k_grid[0]:
        raise refusal
    sels: dict[int, SelectionResult] = {}
    failed: dict[int, str] = {}
    for k in k_grid:
        try:
            if k > k_top:
                raise refusal
            sels[k] = post_double_select(bank.leading(k), bank.subset([k_top]), config)
        except FIT_ERRORS as exc:
            failed[k] = str(exc)
    # the degrees of one control set share one projection, at the largest
    groups: dict[bytes, list] = {}
    for k, sel in sels.items():
        groups.setdefault(sel.union_set.tobytes(), []).append(k)
    fitted: dict[int, PdsFit] = {}
    for ks in groups.values():
        union = sels[ks[0]].union_set
        try:
            group = _final_fits(P_raw[:, :ks[-1]], design.blocks[0][:, union], data.y,
                                union, {k: DictionarySpec("hermite_univariate", degree=k)
                                        for k in ks})
        except FIT_ERRORS as exc:
            failed.update(dict.fromkeys(ks, str(exc)))
            continue
        fitted.update(zip(ks, group))
    fits = {k: fitted[k] for k in k_grid if k in fitted}
    bics = {k: _bic(fit) for k, fit in fits.items()}
    errors = {k: failed[k] for k in k_grid if k in failed}
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
                          config: LassoConfig = LassoConfig(), estimators=None,
                          rng=None, k_grid=None):
    """Fit the requested estimators on one sample.

    The sample's workspace over the conditioning dictionary ``spec_q`` is
    built once and handed to every estimator; each evaluates its g
    dictionary, ``spec_p`` or a degree of the BIC grid, from ``data.x``.
    Returns (fits, failures): a dict of PdsFit by estimator name, and a dict
    of error messages for estimators that failed on this sample with one of
    ``FIT_ERRORS``; any other exception propagates. A ``spec_q`` that does
    not fit ``data.Z``, by its input dimension or by a Hermite tensor too
    large to build, would fail on every sample, so it is refused here by a
    ``ValueError`` before the workspace is built; when the workspace
    cannot be built from this sample (a constant column, a Hermite term out
    of range), every requested estimator fails with that reason. ``rng`` is
    consumed only by the randomized series benchmark.
    """
    names = check_names(estimators if estimators is not None else ESTIMATORS,
                        ESTIMATORS, "estimator")
    if spec_p.kind != "hermite_univariate":
        raise ValueError(f"the g dictionary must be hermite_univariate, got {spec_p.kind!r}")
    k_grid = _degree_grid(k_grid if k_grid is not None else default_k_grid(data.n))
    # a spec_q that does not fit Z fails every sample: refused, not recorded
    _coordinates(spec_q, data.Z)

    fits: dict[str, PdsFit] = {}
    failures: dict[str, str] = {}
    try:
        design = build_design(spec_q, data.Z)
    except FIT_ERRORS as exc:
        return fits, {name: f"{type(exc).__name__}: {exc}" for name in names}
    for name in names:
        try:
            fits[name] = _fit_one(name, data, design, spec_p, spec_q, config, rng, k_grid)
        except FIT_ERRORS as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
    return fits, failures


def _series_controls(data: Dataset, design: LassoDesign, spec_q: DictionarySpec,
                     which: str, rng):
    """Control block for the plain series benchmarks; ``design`` is the
    workspace over the conditioning dictionary ``spec_q``."""
    if spec_q.kind == "hermite_tensor":
        if which == "series_1":
            # additive univariate expansions, one block per coordinate
            blocks = [hermite_design(data.Z[:, j], spec_q.degree)
                      for j in range(data.Z.shape[1])]
            return np.concatenate(blocks, axis=1)
        Q = design.blocks[0]
        # a gathered copy, F-ordered like every other route's controls: the
        # final OLS's last bits depend on the layout
        return Q[:, np.arange(Q.shape[1])]
    n_keep = min((SERIES_FRACTION_NUM * data.n) // SERIES_FRACTION_DEN, data.Z.shape[1])
    if which == "series_1":
        return data.Z[:, :n_keep]
    if rng is None:
        raise ValueError("randomized series benchmark needs an RNG")
    cols = np.sort(rng.choice(data.Z.shape[1], size=n_keep, replace=False))
    return data.Z[:, cols]


def _fit_one(name, data: Dataset, design: LassoDesign, spec_p: DictionarySpec,
             spec_q: DictionarySpec, config, rng, k_grid) -> PdsFit:
    if name.startswith("post_double"):
        # a fixed degree is the one-degree grid
        grid = k_grid if name.startswith("post_double_set") else [spec_p.degree]
        res = choose_k_bic(data, design, grid, config, extended_fs=name.endswith("_ext"))
        return res.fits[res.k_hat]

    P_raw, P, refusal = _g_block(data.x, spec_p.degree)
    if refusal is not None:
        raise refusal
    k_ok = P.shape[1]
    y = data.y
    if name == "post_single_1":
        sel = reduced_form_select(TargetBank.of(data.y, design), config)
        controls = design.blocks[0][:, sel]
    elif name == "post_single_2":
        # one Lasso of y on [P, Q]: the blocks P and the workspace's design,
        # whose Q*Q and stored rows of Q'Q it reuses
        joint = LassoDesign(P, design)
        active = reduced_form_select(TargetBank.of(data.y, joint), config)
        sel = active[active >= k_ok] - k_ok
        controls = design.blocks[0][:, sel]
    elif name in ("series_1", "series_2"):
        controls = _series_controls(data, design, spec_q, name, rng)
        sel = np.arange(controls.shape[1])
    else:  # oracle
        if data.h_true is None:
            raise ValueError("oracle estimator requires the true h values")
        y = data.y - data.h_true
        sel, controls = np.array([], dtype=int), np.empty((data.n, 0))
    return pds_fit(P_raw, controls, y, sel, spec_p=spec_p)
