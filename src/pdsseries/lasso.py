"""Weighted-penalty Lasso with data-driven penalty loadings.

The objective is kept in unnormalized sum-of-squares form,

    sum_i (y_i - x_i' t)^2 + lam * sum_j |psi_j t_j|,

so the penalty level lam = 2 c sqrt(n) Phi^{-1}(1 - gamma / (2 M)) and the
loadings psi_j = sqrt(mean(x_j^2 e^2)) carry their conventional scaling.
Loadings are refined iteratively from Post-Lasso residuals.

Every Lasso of post-double selection regresses some target on one design,
so what those Lassos share lives in two objects. A ``LassoDesign`` holds
the design ``X`` as a row of column blocks, each block's square (both
loadings formulas are one product against them) and a dict of the rows of
``X'X`` by column; a block may be another design, whose square and stored
rows are then reused, so Post-Single II's ``[P | Q]`` is never
concatenated. The design reads each column at unit root mean square,
dividing only its outputs by the column scales, never the blocks: the
loadings scale with their column as ``x_l't`` and the Gram entries do
(Belloni, Chen, Chernozhukov & Hansen 2012), so the selected set does not
depend on the columns' units, and no standardized copy of the conditioning
dictionary is made. A ``TargetBank`` holds targets on one ``LassoDesign``,
each with its ``X't`` and initial loadings, evaluated for all targets at once,
and a memo of its refined loadings by active set: refined loadings depend
on a fit only through its active set, so the iteration stops as soon as a
round selects the same set as the round before, and every equation on the
same target reuses them. Every bank is built as rows and their pairwise
sums and differences, with no pairs but in the BIC grid's extended first
stage, and the bank alone knows where each target lies: ``TargetBank.of``
lays them out, and ``TargetBank.leading(k)`` hands out the targets of the
first k rows, a degree's equations. Each pair's ``X't`` and loadings are
derived from products over the rows and the pairs' cross products, by
linearity, instead of a product over every target.
``iterated_lasso(bank, k, lam)`` fits the bank's ``k``-th target.

Most equations of post-double selection select nothing. The bank keeps
its first two loading rounds as one array: the initial loadings, then every
target's refined loadings for the empty set, one product for the whole
bank, which also pre-fill each memo. From them it keeps each target's level
in each round, half its lam_max, as one (2, k) array, so
``TargetBank.settled_empty`` settles for the whole bank at once, in one
comparison, the equations that select nothing in their first two rounds,
and so end empty, at a given penalty level: a level at or below
(lam / 2) / (1 + 1e-12) settles its round. The screen may leave an
equation that ends empty unsettled, never the other way; every equation
it leaves runs ``iterated_lasso``, which reads the same pre-filled
loadings.

A degree grid solves the same equations again at nearby penalty levels,
and their sets rarely change. ``iterated_lasso`` records each round's
active set and signs in the bank, and a later call on the same target
settles each of its rounds that has a recorded round at that position by
a KKT certificate with margin that the recorded set and signs are the
exact Lasso solution at the new level (the homotopy view of the Lasso
path, Osborne, Presnell & Turlach 2000), and solves the rounds that do
not certify, so the sets are those of one solve per round.

The solver is active-set cyclic coordinate descent on the Gram system: the
covariance-update scheme of glmnet (Friedman, Hastie & Tibshirani 2010,
J. Stat. Softw. 33(1)), where sweeps run over the active coordinates only
and one vectorised check of the subgradient (KKT) conditions over the
inactive coordinates decides which enter, as in the strong rules of
Tibshirani et al. (2012, J. R. Stat. Soc. B 74(2)). The solve ends when a
screen finds no violator, so at a converged solution every inactive
coordinate meets its KKT condition exactly and every active one to the
sweep tolerance. Active sets are small, so the sweeps run on plain Python
floats, with the same IEEE operations, and so the same bits, as NumPy's.

The solver reads the Gram system only through the rows of its active
coordinates, so ``X'X`` is never formed whole: the ``LassoDesign`` forms
row j, ``x_j'X``, block by block, the first time column j enters a solve
and keeps it in its store for every later solve on the same design, and
for the certificates of the sets those solves recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .data import _require_whole

__all__ = [
    "LassoConfig",
    "LassoFit",
    "LassoDesign",
    "TargetBank",
    "DegenerateLoadingsError",
    "ConvergenceError",
    "normal_quantile",
    "default_gamma",
    "penalty_level",
    "initial_loadings",
    "refined_loadings",
    "lasso_solve",
    "kkt_max_violation",
    "post_lasso",
    "iterated_lasso",
]


class DegenerateLoadingsError(ValueError):
    """All penalty loadings are zero (degenerate target or residuals)."""


class ConvergenceError(RuntimeError):
    """Coordinate descent reached ``cd_max_iter`` sweeps without converging."""


@dataclass(frozen=True)
class LassoConfig:
    """Tuning constants for the selection machinery.

    ``gamma = None`` means the default slack 0.1 / log(max(M_total, n)) is
    derived where the penalty level is computed, with M_total the total
    count of Lasso target regressions times regressors per target.
    ``cd_tol`` bounds the largest coefficient change in the last sweep of
    a converged solve, with coefficients on the design's columns read at
    unit root mean square (``LassoDesign``), whatever the units of the
    columns as given.
    """

    c: float = 1.1
    gamma: float | None = None
    n_loadings: int = 15
    cd_tol: float = 1e-8
    cd_max_iter: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        # a fraction would never equal the count of rounds or sweeps, so no cap
        for name in ("n_loadings", "cd_max_iter"):
            object.__setattr__(self, name, _require_whole(name, getattr(self, name), 1))
        if not 0.0 <= self.cd_tol < math.inf:
            raise ValueError("cd_tol must be nonnegative and finite")


@dataclass
class LassoFit:
    """Solution of one penalized regression.

    ``active_set`` holds the sorted positions of the nonzero coefficients.
    ``coefficients`` are those of the design's columns at unit root mean
    square (``LassoDesign``), not of the columns in the units given.
    ``iterations`` counts the active-set sweeps of the final solve: passes
    of cyclic coordinate descent over the coordinates admitted so far by
    the KKT screen, not over all columns (the glmnet active-set scheme of
    Friedman, Hastie & Tibshirani 2010, screened as in Tibshirani et al.
    2012); a solve whose first screen admits nothing takes 0, and so does
    a round of ``iterated_lasso`` that a KKT certificate settles without a
    solve, whose coefficients are the exact solution on its set.
    ``converged`` means the last sweep moved no coefficient by more than
    ``cd_tol`` and the screen after it found no inactive coordinate
    violating its KKT condition; a certified round is converged.
    """

    coefficients: np.ndarray
    active_set: np.ndarray
    lam: float
    loadings: np.ndarray
    iterations: int
    converged: bool
    perfect_fit: bool = False
    loadings_degenerate: bool = False


_STANDARD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Standard normal quantile Phi^{-1}(p) for p in (0, 1).

    ``NormalDist.inv_cdf`` is Wichura's algorithm AS 241, accurate to about
    1e-16; it would let NaN through, so the range is checked here.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return _STANDARD_NORMAL.inv_cdf(p)


def default_gamma(n: int, n_targets: int, n_regressors: int) -> float:
    """Penalty slack 0.1 / log(max(n_targets * n_regressors, n))."""
    return 0.1 / math.log(max(n_targets * n_regressors, n))


def penalty_level(
    n: int,
    n_targets: int,
    n_regressors: int,
    config: LassoConfig = LassoConfig(),
) -> float:
    """Penalty level 2 c sqrt(n) Phi^{-1}(1 - gamma / (2 M)).

    ``M = n_targets * n_regressors`` counts the moment conditions being
    controlled: ``n_targets`` is the number of Lasso regressions run at this
    level (K for the first stage, 1 for a single equation) and
    ``n_regressors`` the regressor count per equation.
    """
    if n < 1 or n_targets < 1 or n_regressors < 1:
        raise ValueError("n, n_targets and n_regressors must be >= 1")
    gamma = config.gamma
    if gamma is None:
        gamma = default_gamma(n, n_targets, n_regressors)
    tail = gamma / (2.0 * n_targets * n_regressors)
    if tail >= 1.0:
        raise ValueError("gamma / (2 M) must be below 1")
    return 2.0 * config.c * math.sqrt(n) * normal_quantile(1.0 - tail)


def _nonzero(loadings: np.ndarray, which: str) -> np.ndarray:
    if not loadings.any():
        raise DegenerateLoadingsError(f"all {which} loadings are zero")
    return loadings


def _loadings(design: LassoDesign, w: np.ndarray) -> np.ndarray:
    """sqrt(mean(x_j^2 w_i^2)) for each column j, one row per row of ``w``:
    one product of ``w*w`` against the design's squares. ``w`` may be
    overwritten."""
    np.square(w, out=w)
    loadings = design.sq_product(w)
    loadings /= w.shape[-1]
    return np.sqrt(loadings, out=loadings)


def initial_loadings(design: LassoDesign, targets: np.ndarray) -> np.ndarray:
    """Conservative start psi_j = sqrt(mean(x_j^2 (t_i - tbar)^2)).

    ``targets`` is one target vector, or a (k, n) block with one target per
    row: the result then has one row of loadings per target, from one
    product against the design's squares, and no row is checked for
    degeneracy here (``iterated_lasso`` checks the row it fits).
    """
    t = np.asarray(targets, dtype=float)
    loadings = _loadings(design, t - t.mean(axis=-1, keepdims=True))
    return loadings if t.ndim > 1 else _nonzero(loadings, "initial")


def refined_loadings(design: LassoDesign, residuals: np.ndarray) -> np.ndarray:
    """Residual-based loadings psi_j = sqrt(mean(x_j^2 e_i^2)).

    ``residuals`` is one residual vector, or a (k, n) block with one residual
    per row, as in ``initial_loadings``: a block gets one row of loadings per
    residual, from one product against the design's squares, and no row is
    checked for degeneracy here.
    """
    e = np.array(residuals, dtype=float)  # a copy: the kernel squares it in place
    loadings = _loadings(design, e)
    return loadings if e.ndim > 1 else _nonzero(loadings, "refined")


class LassoDesign:
    """One design ``X`` and what every Lasso on it shares.

    ``X`` is a row of column blocks, ``[X_1 | X_2 | ...]``, and is never
    concatenated: ``LassoDesign(X)`` is the one-block case, and Post-Single
    II's ``LassoDesign(P, workspace_design)`` puts the columns of ``P``
    before those of the workspace's ``Q``. A block given as a one-block
    ``LassoDesign`` brings its array, its square, its scales and its store
    of Gram rows.

    The design reads every column at unit root mean square: column l of
    ``X`` stands for ``x_l / s_l``, with ``s_l = sqrt(sum_i x_il^2 / n)``,
    or, where that is 0 (a zero column, or one whose squares underflow),
    ``s_l = 1`` and a Gram diagonal of 0, so the column never enters a
    solve. The weighted Lasso selects the same set on any positive
    rescaling of its columns, since ``x_l't``, the Gram entries and the
    loadings ``sqrt(mean(x_l^2 e^2))`` all scale with the column; reading
    them at one scale makes the sweep tolerance ``cd_tol`` mean the same
    thing on every column. The blocks stay as given: ``scales`` holds ``s``, taken
    from the column sums of the squares that the Gram diagonal needs
    anyway, and only the design's outputs, each (k, m) or smaller, are
    divided by it.

    ``squares`` holds each block's ``X_b*X_b``: both loadings formulas are
    one product against them, ``sq_product``, and ``diag``, the Gram
    diagonal, is their column sums over ``s**2``. ``product`` (``a @ X``)
    and ``columns`` (a gather of columns) write each block's part into
    slices of one output. The scales are a function of the blocks, so
    ``LassoDesign(*design.blocks)`` is the same system with an empty store.

    ``rows(idx)`` returns rows ``idx`` of ``X'X``. The store is a dict
    from column j to its row, an array of its own, so it holds the rows
    formed and nothing more. A row missing from it is formed then, as
    ``x_j'X_b`` for every block b, and kept, so each row is formed at most
    once however many solves on ``X`` ask for it. The part on column j's
    own block, when that block came with a store, is that store's row: a
    row an earlier solve on the workspace formed is reused, and only the
    other blocks' parts are new. Each row is formed on its own, so its bits
    depend only on ``X`` and j, not on which rows were asked for before or
    alongside it: a fit is the same on a fresh design and on one that
    earlier solves have filled. ``rows_formed`` is the size of this
    design's own store.
    """

    def __init__(self, *blocks):
        if not blocks:
            raise ValueError("a design needs at least one block")
        arrays, squares, stores = [], [], []
        for block in blocks:
            if isinstance(block, LassoDesign):
                if len(block.blocks) != 1:
                    raise ValueError("a design block must be an array or a one-block design")
                arrays += block.blocks
                squares += block.squares
                stores.append(block)
                continue
            X = np.asarray(block, dtype=float)
            if X.ndim != 2:
                raise ValueError("a design block must be a 2-d matrix")
            arrays.append(X)
            squares.append(X * X)
            stores.append(None)
        n = arrays[0].shape[0]
        if any(X.shape[0] != n for X in arrays):
            raise ValueError("the design blocks have different row counts")
        self.blocks, self.squares = tuple(arrays), tuple(squares)
        self._stores = tuple(stores)
        widths = [X.shape[1] for X in arrays]
        self._stops = np.cumsum(widths)
        self._spans = [(int(stop) - w, int(stop)) for w, stop in zip(widths, self._stops)]
        m = int(self._stops[-1])
        self.shape = (n, m)
        self.scales, self.diag = np.empty(m), np.empty(m)
        for sq, (a, b), store in zip(squares, self._spans, stores):
            if store is None:
                total = np.add.reduce(sq, axis=0)
                s = np.sqrt(total / n)
                zero = s == 0.0
                s[zero] = 1.0
                self.scales[a:b] = s
                self.diag[a:b] = np.where(zero, 0.0, total / (s * s))
            else:
                self.scales[a:b], self.diag[a:b] = store.scales, store.diag
        self._rows: dict = {}  # column -> its row of X'X

    @property
    def rows_formed(self) -> int:
        return len(self._rows)

    def _blockwise(self, a: np.ndarray, mats, scales: np.ndarray) -> np.ndarray:
        out = np.empty(a.shape[:-1] + (self.shape[1],))
        for mat, (start, stop) in zip(mats, self._spans):
            np.matmul(a, mat, out=out[..., start:stop])
        out /= scales
        return out

    def product(self, a: np.ndarray) -> np.ndarray:
        """``a @ X`` for a vector or a (k, n) block ``a``."""
        return self._blockwise(a, self.blocks, self.scales)

    def sq_product(self, a: np.ndarray) -> np.ndarray:
        """``a @ (X*X)`` for a vector or a (k, n) block ``a``."""
        return self._blockwise(a, self.squares, self.scales * self.scales)

    def columns(self, idx) -> np.ndarray:
        """Columns ``idx`` of ``X``, as an (n, len(idx)) array.

        The array is in F order, as ``X[:, idx]`` gives, so a product with it
        has the bits of one with the columns of a concatenated ``X``.
        """
        idx = np.asarray(idx, dtype=np.intp)
        out = np.empty((self.shape[0], idx.size), order="F")
        for X, (start, stop) in zip(self.blocks, self._spans):
            mine = (idx >= start) & (idx < stop)
            out[:, mine] = X[:, idx[mine] - start]
        out /= self.scales[idx]
        return out

    def rows(self, idx) -> np.ndarray:
        """Rows ``idx`` of ``X'X``, as a (len(idx), m) array."""
        idx = np.asarray(idx, dtype=int).tolist()
        out = np.empty((len(idx), self.shape[1]))
        for r, j in enumerate(idx):
            out[r] = self._row(j)
        return out

    def _row(self, j: int) -> np.ndarray:
        """Row j of ``X'X`` from the store, formed one block's part at a time
        when the store lacks it."""
        row = self._rows.get(j)
        if row is None:
            own = int(np.searchsorted(self._stops, j, side="right"))
            local = j - self._spans[own][0]
            col = self.blocks[own][:, local]
            row = np.empty(self.shape[1])
            for b, (X, (start, stop), store) in enumerate(
                    zip(self.blocks, self._spans, self._stores)):
                if b == own and store is not None:
                    row[start:stop] = store._row(local)
                else:
                    part = row[start:stop]
                    np.matmul(col, X, out=part)
                    part /= self.scales[j] * self.scales[start:stop]
            self._rows[j] = row
        return row


# relative margin between a level that ``settled_empty`` settles and lam / 2
_MARGIN = 1e-12
# the gap between a coordinate's input and its threshold that a round's
# certificate demands: this share of the threshold, for rounding, plus this
# many times the input's reach under the solver's stopping rule, cd_tol
# times the column's Gram entries on the set (``TargetBank._span``)
_CERTIFY_MARGIN = 1e-6
_CERTIFY_REACH = 1000.0
# the span of a round that certifies at no penalty level
_NO_SPAN = (math.inf, -math.inf, None, None)
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)


def _proper(loadings: np.ndarray) -> np.ndarray:
    """Whether every loading of each row is positive and finite (False for a
    row with a NaN): an overflowing target's loadings are not."""
    return ((loadings > 0.0) & (loadings <= _HUGE)).all(axis=-1)


def _levels(xty: np.ndarray, loadings: np.ndarray) -> np.ndarray:
    """Each row's level max_l |x_l't| / psi_l, half its lam_max, under each
    loading round of ``loadings`` (r, k, m): an (r, k) array, one pass over
    the bank per round.

    NaN, which means "cannot settle", when a loading is not positive and
    finite or when the level is not a finite normal number; a design with
    no columns has no level.
    """
    abs_xty = np.abs(xty)
    levels = np.empty(loadings.shape[:-1])
    with np.errstate(all="ignore"):
        for level, psi in zip(levels, loadings):
            np.max(abs_xty / psi, axis=1, out=level, initial=-math.inf)
    levels[~((levels >= _TINY) & (levels <= _HUGE) & _proper(loadings))] = np.nan
    return levels


# A pair target's derived squared loading, (S_ii + S_jj +- 2 S_ij) / n, is
# kept when it exceeds 1 / _PAIR_CANCELLATION of S_ii + S_jj + 2 |S_ij|,
# the larger of the pair's two; a row with a smaller (or no positive) one is
# computed from the row itself (``_pair_loadings``).
_PAIR_CANCELLATION = 1e3


def _paired(a: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Rows of ``a``, then the sums ``a[ii] + a[jj]``, then the differences
    ``a[ii] - a[jj]``."""
    k, p = len(a), ii.size
    out = np.empty((k + 2 * p,) + a.shape[1:])
    out[:k] = a
    sums, diffs = out[k:k + p], out[k + p:]
    sums[...] = a[ii]
    diffs[...] = sums
    second = a[jj]
    sums += second
    diffs -= second
    return out


def _pair_loadings(design: LassoDesign, rows: np.ndarray, targets: np.ndarray,
                   ii: np.ndarray, jj: np.ndarray, centred: bool,
                   block: np.ndarray, out: np.ndarray) -> None:
    """Loadings of every target of a paired bank, as ``initial_loadings``
    (``centred``) or ``refined_loadings`` of the empty set give them.

    ``rows`` are the given rows and ``targets`` the bank's, ``_paired(rows,
    ii, jj)``; the loadings are written into ``out``. With no pairs,
    that is the loadings formula on the rows, one product for all of them.
    A pair's squared loading on column l is ``(S_ii + S_jj +- 2 S_ij) / n``
    with ``S_ab = (x_l*x_l)'(d_a*d_b)`` and ``d`` the (centred) rows, so one
    product of the rows' squares and the pairs' cross products, into
    ``block``, gives every row's.

    The sum or difference carries the rounding error of its terms, a few
    units in the last place of ``S_ii + S_jj + 2 |S_ij|``; relative to the
    result, that error grows by the ratio of the two. Up to a ratio of
    ``_PAIR_CANCELLATION`` = 1e3 it stays near 1e-12, the agreement with a
    direct product that the tests hold (4e-13 was the largest seen on the
    simulation designs). A row with a larger ratio on any column, or a
    result that is not positive, is computed from its target instead, by
    the loadings formula: so a pair target that is constant gets the exact
    zero loadings that flag it, not rounding noise.
    On those designs at n = 500 that is about 1 of 210 pair rows on
    low_dim and 14 on high_dim.
    """
    k, p, n = len(rows), ii.size, rows.shape[1]
    d = rows - rows.mean(axis=1, keepdims=True) if centred else rows
    np.square(d, out=block[:k])
    block[k:] = d[ii]
    block[k:] *= d[jj]
    S = design.sq_product(block)
    own, cross = S[:k], S[k:]
    cross *= 2.0
    out[:k] = own
    sums, diffs = out[k:k + p], out[k + p:]
    sums[...] = own[ii]
    sums += own[jj]
    np.subtract(sums, cross, out=diffs)
    sums += cross
    # S_ii + S_jj + 2 |S_ij|, the larger of the two
    bound = np.maximum(sums, diffs)
    bound /= _PAIR_CANCELLATION
    exact = k + np.flatnonzero(~np.concatenate([
        (sums > bound).all(axis=1), (diffs > bound).all(axis=1)]))
    out[exact] = 0.0
    out /= n
    np.sqrt(out, out=out)
    if exact.size:
        t = targets[exact]
        out[exact] = _loadings(design, t - t.mean(axis=1, keepdims=True) if centred else t)


def _with_pairs(rows: np.ndarray, design: LassoDesign, ii, jj) -> tuple:
    """The targets, ``X't`` and both loading rounds of ``TargetBank.of(rows,
    design, (ii, jj))``, from products over ``rows`` and their pairs'
    cross products only; ``ii`` and ``jj`` are intp arrays, maybe empty."""
    targets = _paired(rows, ii, jj)
    xty = _paired(design.product(rows), ii, jj)
    # the bank's arrays first, then one buffer for both loadings' products:
    # the working arrays, freed last, leave no holes among the kept ones
    loadings = np.empty((2,) + xty.shape)
    block = np.empty((len(rows) + ii.size, rows.shape[1]))
    for centred, out in zip((True, False), loadings):
        _pair_loadings(design, rows, targets, ii, jj, centred, block, out)
    return targets, xty, loadings


def _perfect_fit(rows: np.ndarray) -> np.ndarray:
    """``max|t| < 1e-12 sd(t)`` for each row t, the perfect-fit test of
    ``_refine`` on the empty set, whose residual is the target.

    A finite sd is at most 2 max|t|, so the test can hold only where the sd
    overflows. When max|t| <= sqrt(HUGE / n) / 4, every squared deviation
    from the mean is at most HUGE / (4 n) and the sd is finite, so the row
    is False without its sd; the test runs on the other rows, NaN ones
    included.
    """
    amax = np.abs(rows).max(axis=1)
    perfect = np.zeros(len(rows), dtype=bool)
    wide = np.flatnonzero(~(amax <= math.sqrt(_HUGE / rows.shape[1]) / 4.0))
    if wide.size:
        perfect[wide] = amax[wide] < 1e-12 * rows[wide].std(axis=1)
    return perfect


@dataclass
class TargetBank:
    """Lasso targets on one ``LassoDesign``, each evaluated once.

    Row j of ``rows`` is one target, regressed on ``design``. Its cross
    products ``xty[j]`` (a row of ``T'X``) and initial loadings
    ``loadings[0, j]`` come from one matrix product each for the whole bank,
    and ``memos[j]`` keeps its refined loadings by active set for every
    equation that regresses this target on the design. ``cols`` names the
    targets the bank stands for, in equation order: ``subset`` gives a bank
    of some of them that shares every array and memo, and ``leading(k)``
    the bank of a degree's equations, so a degree grid indexes each
    degree's equations into one bank instead of rebuilding its targets.
    ``pairs`` is the ``(ii, jj)`` of ``of``, as intp arrays: with the row
    count, it fixes where each target of ``rows`` lies.

    The empty set's Post-Lasso residual is the target itself, so its refined
    loadings ``loadings[1, j]`` are one more matrix product for the whole
    bank: ``loadings`` is (2, k, m), row r the loadings of round r. Each
    memo starts with round 1's under the empty-set key ``b""``, or with the
    flag ``_refine`` would return instead. ``levels[r, j]`` is the target's
    level in round r, max_l |x_l't| / psi_l with that round's loadings, or
    NaN where rounding cannot vouch for one: the first screen of a round
    admits nothing exactly when lam / 2 reaches the level. With both rounds
    at hand, ``settled_empty`` settles at once the equations that plainly
    end with an empty active set.

    ``records[j]`` holds the active set and signs of each round of the last
    ``iterated_lasso`` call on target j that returned, the most sweeps one
    of the solves behind them took, and the cache of certificate spans
    (``_span``) that every call on the target keeps adding to, or None; the
    next call on the target certifies those rounds where it can. Like the
    memos, the records are kept by target and shared by ``subset``.
    """

    design: LassoDesign
    rows: np.ndarray
    xty: np.ndarray
    loadings: np.ndarray
    levels: np.ndarray
    memos: list
    cols: tuple
    records: list
    pairs: tuple

    @classmethod
    def of(cls, rows, design: LassoDesign, pairs=((), ())) -> TargetBank:
        """Bank of the targets in ``rows`` (one per row, or one vector).

        With ``pairs = (ii, jj)``, the bank also holds, for each pair p, the
        sum and then the difference of rows ``ii[p]`` and ``jj[p]``. This is
        the layout of every bank: the k given rows at 0..k-1, the sum of
        pair p at k + p and its difference at k + P + p, for P pairs; no
        other module spells it (``leading`` reads it). The pairs' ``X't``
        and loadings are derived from those of the rows, by linearity
        (``_pair_loadings``), not from products of their own. Targets whose
        length is not the design's row count are refused by a ``ValueError``.
        """
        rows = np.ascontiguousarray(np.atleast_2d(rows), dtype=float)
        if rows.shape[1] != design.shape[0]:
            raise ValueError(f"targets of length {rows.shape[1]} on a design of "
                             f"{design.shape[0]} rows")
        pairs = tuple(np.asarray(p, dtype=np.intp) for p in pairs)
        rows, xty, loadings = _with_pairs(rows, design, *pairs)
        # _refine's flags, on the empty set's residual
        perfect = _perfect_fit(rows)
        degenerate = ~loadings[1].any(axis=1)
        memos = [{b"": "perfect_fit" if p else "loadings_degenerate" if d else psi}
                 for p, d, psi in zip(perfect.tolist(), degenerate.tolist(), loadings[1])]
        return cls(design=design, rows=rows, xty=xty, loadings=loadings,
                   levels=_levels(xty, loadings), memos=memos,
                   cols=tuple(range(len(rows))), records=[None] * len(rows), pairs=pairs)

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return len(self.cols)

    def subset(self, cols) -> TargetBank:
        """The targets ``cols`` (ints or an index array) of this bank,
        sharing its arrays and memos."""
        return replace(self, cols=tuple(np.asarray(cols, dtype=np.intp).tolist()))

    def leading(self, k: int) -> TargetBank:
        """The bank of the first ``k`` given rows and of every sum and
        difference of two of them, in the layout of ``of`` (rows, sums,
        differences, each in bank order), sharing this bank's arrays, memos
        and records as ``subset`` does.

        A degree grid banks the g dictionary at its largest degree, so
        ``leading(k)`` is the extended first stage at degree k (or the
        plain one, in a bank without pairs). A ``k`` beyond the given rows
        is refused.
        """
        given = len(self.rows) - 2 * self.pairs[0].size
        if not 0 <= k <= given:
            raise ValueError(f"leading takes 0 to {given} given rows, got {k}")
        kept = given + np.flatnonzero(np.maximum(*self.pairs) < k)
        return self.subset(np.concatenate([np.arange(k), kept, kept + self.pairs[0].size]))

    def settled_empty(self, lam: float, config: LassoConfig = LassoConfig()) -> np.ndarray:
        """Which equations in ``cols`` surely end with an empty active set at ``lam``.

        Entry k is True only when the first two solves of
        ``iterated_lasso(self, k, lam, config)`` admit nothing, so that the
        call would return an empty set without raising: a caller can take
        the empty set and skip the call. An entry may be False for an
        equation that does end empty; its call decides, as the KKT check
        decides what the strong rules (Tibshirani et al. 2012) leave. The
        first solve starts from t = 0 and admits nothing when no column has
        |x_l't| > lam psi0_l / 2, the first screen of ``_cd_solve``; the
        second, run when ``n_loadings > 1``, is the same test with
        ``loadings[1]`` (or is skipped for a flagged memo, which ends the
        call empty as well); a third would repeat the empty set and stop.

        A round is settled when its level is at or below ``low = (lam / 2)
        / (1 + 1e-12)``: one comparison of the rounds' levels, and an
        equation is settled when each of its rounds is. A normal level at or
        below ``low`` is each ratio |x_l't| / psi_l rounded once, with
        relative error at most 2^-53, so every ``|x_l't| < lam / 2 * psi_l``
        exactly; rounding is monotone, so the solver's threshold ``fl(lam /
        2 * psi_l) >= |x_l't|`` and its screen admits nothing, whatever the
        size of |x_l't|. A NaN level is never settled, so neither is an
        equation whose loadings are not all positive and finite, whose
        ``iterated_lasso`` call raises.
        """
        cols = list(self.cols)
        rounds = 1 if config.n_loadings == 1 else 2
        low = min(0.5 * float(lam) / (1.0 + _MARGIN), _HUGE)
        return (self.levels[:rounds, cols] <= low).all(axis=0)

    def _span(self, j: int, active: np.ndarray, signs: np.ndarray,
              psi: np.ndarray, tol: float) -> tuple:
        """The penalty levels at which target j's Lasso under loadings ``psi``
        surely ends with the set ``active`` and coefficient signs ``signs``:
        ``(lo, hi, u, v)``, an interval that is empty when ``lo > hi``, and
        the solution ``u - lam v`` on the set at any lam in it.

        On A = ``active`` with signs s, the solution at lam is ``t_A =
        G_AA^-1 (X_A'y - (lam/2) psi_A s) = u - lam v``, read from the rows
        of A in the design's store: the solve that recorded A formed them,
        so reading them forms no row. It is the Lasso solution when its
        signs are s and every column j off A meets ``|x_j'y - G_jA t_A| <=
        (lam/2) psi_j``: the subgradient (KKT) conditions, and the solver's
        own tests at a fixed point, where a coordinate's input exceeds its
        threshold by ``G_aa |t_a|`` on A and a column enters only when its
        input exceeds its threshold. Each condition is linear in lam, so
        together they hold on an interval (the homotopy view of the Lasso
        path; Osborne, Presnell & Turlach 2000). Every column of a recorded
        equation has a positive loading, so every column off A is checked.

        The solver stops near the solution, not on it: once a sweep moves no
        coefficient by more than ``tol`` (``cd_tol``), so each input it reads
        may be off by about ``tol * sum_a |G_ja|``, the column's reach. Each
        condition therefore demands a gap between the input and its
        threshold of ``_CERTIFY_REACH`` reaches, which widens with ``cd_tol``,
        plus ``_CERTIFY_MARGIN`` of the threshold for the rounding of the
        solve on A and of the interval's ends (rows formed as ``x_a'X`` are
        symmetric only to rounding). Over 32 BIC-grid fits at n = 500 (both
        designs, extended first stage on and off; 1106 solves that selected
        a column), the inputs at the solver's stop were at most 6.3 reaches,
        and 3.1e-7 of the threshold, from those at the exact solution. The
        gap demanded is 1000 reaches, at the default ``cd_tol = 1e-8`` about
        5e-3 for n = 500 and |A| = 10, against thresholds of 10 to 100 there.
        """
        design, xty = self.design, self.xty[j]
        G = design.rows(active)
        # lam * q >= p, one row per condition: each input off A below its
        # threshold from above and from below, then each input on A above it
        c = (0.5 * (1.0 - _CERTIFY_MARGIN)) * psi
        reach = np.abs(G).sum(axis=0)
        reach *= _CERTIFY_REACH * tol
        G_AA = G[:, active]
        rhs = np.stack([xty[active], 0.5 * psi[active] * signs], axis=1)
        with np.errstate(all="ignore"):
            try:
                u, v = np.linalg.solve(G_AA, rhs).T if active.size else rhs.T
            except np.linalg.LinAlgError:
                return _NO_SPAN
            Gu, Gv = np.stack([u, v]) @ G
            a = xty - Gu
            lower, upper = a + reach, reach - a
            lower[active] = upper[active] = -math.inf
            gain = signs * np.diagonal(G_AA)
            q = np.concatenate([c - Gv, c + Gv,
                                -(gain * v + (0.5 * _CERTIFY_MARGIN) * psi[active])])
            p = np.concatenate([lower, upper, reach[active] - gain * u])
            if np.isnan(q).any() or np.isnan(p).any() or (p[q == 0.0] > 0.0).any():
                return _NO_SPAN
            ratio = p / q
            lo = ratio[q > 0.0].max(initial=0.0)
            hi = ratio[q < 0.0].min(initial=math.inf)
        return float(lo), float(hi), u, v


def _cd_solve(design: LassoDesign, xty: np.ndarray, thr: np.ndarray,
              max_iter: int, tol: float):
    """Active-set cyclic coordinate descent on the Gram system.

    The covariance-update scheme of Friedman, Hastie & Tibshirani (2010),
    with each screen a full KKT check as in Tibshirani et al. (2012).
    Minimizes sum (y - X t)^2 + 2 sum_j thr_j |t_j| given ``design``, which
    holds the rows of X'X, and ``xty = X'y``, starting from t = 0. Each round
    screens the inactive coordinates at once: j enters when
    |xty_j - q_j| > thr_j, with q = X'X t, which is exactly when its
    coordinate update would move it off zero. Columns with a zero Gram
    diagonal never enter. The active rows are then read from the store,
    which forms those of the entering columns it does not hold yet. Sweeps
    run over the active coordinates only, updating q on the active block,
    until the largest coefficient change in a sweep is at most ``tol``;
    q is then refreshed in full from the active rows and the next screen
    runs. The solve ends when a screen admits nothing, so only rows of
    columns that entered are ever formed.

    The sweeps hold q on the active block and the active Gram block as
    lists of Python floats: a coordinate's update ``q_a[i] += delta *
    row[i]`` is the same two IEEE double operations, rounded the same way,
    as NumPy's ``q_a += delta * row``, so the coefficients and the sweep
    count are NumPy's bit for bit, without a NumPy call per update.

    Returns (coef, sweeps, converged). ``sweeps`` counts active-set sweeps
    over all rounds and is capped at ``max_iter``; ``converged`` is False
    when the cap stopped a round before its sweeps met ``tol``.
    """
    m = xty.shape[0]
    coef = np.zeros(m)
    q = np.zeros(m)
    usable = design.diag > 0.0
    active = np.zeros(m, dtype=bool)
    sweeps = 0
    while True:
        entering = usable & ~active & (np.abs(xty - q) > thr)
        if not entering.any():
            return coef, sweeps, True
        active |= entering
        idx = np.flatnonzero(active)
        active_rows = design.rows(idx)
        block = active_rows[:, idx]
        rows = block.tolist()
        q_a = q[idx].tolist()
        c_a = coef[idx].tolist()
        d_a = np.diagonal(block).tolist()
        t_a = thr[idx].tolist()
        b_a = xty[idx].tolist()
        span = range(len(d_a))
        while True:
            if sweeps == max_iter:
                coef[idx] = c_a
                return coef, sweeps, False
            sweeps += 1
            max_change = 0.0
            for k, dk in enumerate(d_a):
                z = b_a[k] - q_a[k] + dk * c_a[k]
                t = t_a[k]
                if z > t:
                    new = (z - t) / dk
                elif z < -t:
                    new = (z + t) / dk
                else:
                    new = 0.0
                delta = new - c_a[k]
                if delta != 0.0:
                    row = rows[k]
                    for i in span:
                        q_a[i] += delta * row[i]
                    c_a[k] = new
                    if abs(delta) > max_change:
                        max_change = abs(delta)
            if max_change <= tol:
                break
        coef[idx] = c_a
        q = coef[idx] @ active_rows


def lasso_solve(
    design: LassoDesign,
    xty: np.ndarray,
    lam: float,
    loadings: np.ndarray,
    config: LassoConfig = LassoConfig(),
) -> LassoFit:
    """Solve one weighted-penalty Lasso by active-set coordinate descent.

    ``xty`` is ``X'y`` for the design ``X`` of ``design`` at unit root
    mean square, ``design.product(y)``; the solve reads the design's Gram
    rows, forming those of entering columns it does not hold yet. The fit reports ``converged = False`` when ``cd_max_iter`` sweeps
    were not enough; ``iterated_lasso`` turns that into a
    ``ConvergenceError``.
    """
    xty = np.asarray(xty, dtype=float)
    loadings = np.asarray(loadings, dtype=float)
    m = design.shape[1]
    # NaN fails every comparison, so it would admit nothing and pass for a
    # converged empty fit; inf is legal, and its solution is the empty set
    if not lam >= 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    if xty.shape != (m,):
        raise ValueError(f"xty has shape {xty.shape}, expected ({m},)")
    if loadings.shape[0] != m:
        raise ValueError("loadings length does not match column count")
    if not _proper(loadings):
        raise ValueError("loadings must be positive and finite; degenerate columns upstream")
    coef, sweeps, converged = _cd_solve(
        design, xty, 0.5 * float(lam) * loadings, config.cd_max_iter, config.cd_tol,
    )
    return LassoFit(
        coefficients=coef,
        active_set=np.flatnonzero(coef),
        lam=float(lam),
        loadings=loadings,
        iterations=sweeps,
        converged=converged,
    )


def kkt_max_violation(X: np.ndarray, y: np.ndarray, fit: LassoFit) -> float:
    """Largest violation of the subgradient conditions at the fit.

    Active coordinates must satisfy 2 x_j'r = lam psi_j sign(t_j); inactive
    ones |2 x_j'r| <= lam psi_j.
    """
    X = np.asarray(X, dtype=float)
    r = np.asarray(y, dtype=float) - X @ fit.coefficients
    score = 2.0 * (X.T @ r)
    bound = fit.lam * fit.loadings
    active = np.zeros(X.shape[1], dtype=bool)
    active[fit.active_set] = True
    viol = 0.0
    if active.any():
        signs = np.sign(fit.coefficients[active])
        viol = np.max(np.abs(score[active] - bound[active] * signs))
    if (~active).any():
        slack = np.abs(score[~active]) - bound[~active]
        viol = max(viol, float(np.max(slack)), 0.0)
    return float(viol)


def post_lasso(X: np.ndarray, y: np.ndarray, active_set) -> np.ndarray:
    """Unpenalized least squares on the active columns.

    Returns a full-length coefficient vector with zeros off the active set.
    Rank-deficient active blocks get the minimum-norm solution.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    idx = np.asarray(active_set, dtype=int)
    coef = np.zeros(X.shape[1])
    if idx.size:
        sol, *_ = np.linalg.lstsq(X[:, idx], y, rcond=None)
        coef[idx] = sol
    return coef


def _refine(design: LassoDesign, y: np.ndarray, active_set: np.ndarray):
    """Refined loadings from the Post-Lasso fit on ``active_set``.

    Returns the loadings, or the name of the ``LassoFit`` flag that ends the
    iteration instead: ``perfect_fit`` when max |residual| is below
    1e-12 sd(y), ``loadings_degenerate`` when every loading is zero.
    """
    # the Post-Lasso fit of post_lasso, on the active columns gathered once
    X_active = design.columns(active_set)
    resid = y - X_active @ np.linalg.lstsq(X_active, y, rcond=None)[0]
    if np.max(np.abs(resid)) < 1e-12 * float(y.std()):
        return "perfect_fit"
    try:
        return refined_loadings(design, resid)
    except DegenerateLoadingsError:
        return "loadings_degenerate"


def iterated_lasso(bank: TargetBank, k: int, lam: float,
                   config: LassoConfig = LassoConfig()) -> LassoFit:
    """Lasso of the bank's ``k``-th target with iterated penalty loadings.

    Solves once with the conservative initial loadings, then alternates
    Post-Lasso residuals and refined loadings, for at most ``n_loadings``
    rounds in total. Stops early on a perfect Post-Lasso fit (max |residual|
    below 1e-12 sd(y), flagged), on degenerate refined loadings (flagged,
    last fit returned), or when a round selects the same active set as the
    round before: the refined loadings depend on a fit only through its
    active set, so every further round would reproduce the same solution.

    The target's ``X'y``, initial loadings and memo of refined loadings come
    from the bank, and every solve reads the Gram rows of the bank's
    design, so calls on the same bank that differ only in ``lam`` or
    ``config`` reuse them. The memo starts with the empty set's loadings
    (or flag), computed for the whole bank at once; an equation that
    ``TargetBank.settled_empty`` marks would return an empty set here and
    can skip the call. Raises ``ConvergenceError`` when the solve behind the
    returned fit hit ``cd_max_iter``.

    A call that returns records each round's active set and signs in the
    bank, and the most sweeps a solve behind them took; one that raises
    leaves no record. The target's next call (a grid's next degree, at a
    nearby lam) certifies each round that has a recorded round at its
    position when lam lies in that round's span under this round's
    loadings (``TargetBank._span``): the recorded set and signs are then
    the exact Lasso solution, and the round's fit is that solution with
    ``iterations`` 0, read from Gram rows the recorded solves formed. Any
    other round is solved, so every set is that of a call without a
    record. A record whose solves took over half of ``cd_max_iter``
    sweeps certifies nothing: a certified round stands for a solve at a
    nearby lam, which must converge too.
    """
    j, design = bank.cols[k], bank.design
    y, xty, memo = bank.rows[j], bank.xty[j], bank.memos[j]
    record, bank.records[j] = bank.records[j], None
    recorded, sweeps, spans = record if record is not None else ([], 0, {})
    if 2 * sweeps > config.cd_max_iter or not 0.0 <= lam < math.inf:
        recorded = []
    loadings = _nonzero(bank.loadings[0, j], "initial")
    rounds, most, previous = [], 0, None
    while True:
        r, fit = len(rounds), None
        if r < len(recorded):
            active, signs = recorded[r]
            # a round's span depends on its loadings, set and signs, and on
            # cd_tol: it is formed once and serves every later call
            step = (previous, active.tobytes(), signs.tobytes(), config.cd_tol)
            if step not in spans:
                spans[step] = bank._span(j, active, signs, loadings, config.cd_tol)
            lo, hi, u, v = spans[step]
            if lo <= lam <= hi:
                coef = np.zeros(design.shape[1])
                coef[active] = u - lam * v
                fit = LassoFit(coefficients=coef, active_set=active, lam=float(lam),
                               loadings=loadings, iterations=0, converged=True)
                rounds.append(recorded[r])
                most = max(most, sweeps)
        if fit is None:
            fit = lasso_solve(design, xty, lam, loadings, config)
            rounds.append((fit.active_set, np.sign(fit.coefficients[fit.active_set])))
            most = max(most, fit.iterations)
        key = fit.active_set.tobytes()
        if len(rounds) == config.n_loadings or key == previous:
            break
        previous = key
        if key not in memo:
            memo[key] = _refine(design, y, fit.active_set)
        loadings = memo[key]
        if isinstance(loadings, str):
            fit = replace(fit, **{loadings: True})
            break
    if not fit.converged:
        raise ConvergenceError(
            f"coordinate descent did not converge within cd_max_iter="
            f"{config.cd_max_iter} sweeps"
        )
    bank.records[j] = (rounds, most, spans)
    return fit
