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
and one record per loadings round, keyed by the active set its loadings
were refined on: refined loadings depend on a fit only through its active
set, so the iteration stops as soon as a round selects the same set as the
round before, and every equation on the same target reuses them. A target
whose squares or loadings overflow is refused by its row, which the caller
that laid the rows out names by its role. Every bank is built as rows
and their pairwise sums and differences, with no pairs but in the BIC
grid's extended first stage, and the bank alone knows where each target
lies: ``TargetBank.of`` lays them out, deriving each pair's ``X't`` and
loadings by linearity, and ``TargetBank.leading(k)`` hands out the targets
of the first k rows, a degree's equations. ``iterated_lasso(bank, k, lam)``
fits the bank's ``k``-th target.

Most equations of post-double selection select nothing. The bank keeps
its first two loading rounds as one array: the initial loadings, then every
target's refined loadings for the empty set, one product for the whole
bank, which also pre-fill each target's records. From them it keeps each
round's lam_max, where its path leaves the empty set, as one (2, k) array,
found by the function that takes the first step of every path
(``_crossing``), so ``TargetBank.settled_empty`` settles for the whole bank
at once, in one comparison, exactly the equations whose paths take no step
in their first two rounds, and so end empty, at a given penalty level:
those whose lam_max is at or below it in each round. Every other equation
runs ``iterated_lasso``.

A degree grid solves the same equations again at nearby penalty levels.
A path does not depend on the level, which only decides where it stops, so
a later call reads each round off the path its record keeps, or extends
it, and gets the fit of a fresh solve, bit for bit.

The solver follows the weighted Lasso's path (the homotopy of Osborne,
Presnell & Turlach 2000; LARS-Lasso, Efron, Hastie, Johnstone & Tibshirani
2004). On a set A with coefficient signs s the solution is affine in the
penalty level, ``t_A = u - lam v``, and it stays the solution down to the
first level where an inactive column meets its KKT bound or an active
coefficient reaches zero (``_span``). The path starts with the empty set,
the solution down to lam_max (``_crossing``), and takes one step per such
event: the column enters with the sign of its input, or the coefficient
leaves. A tie goes to the lowest column index, and a zero column, which
the design marks as unable to enter, never does. The path ends at the
requested level with the exact solution on its last set, up to rounding. A
path that needs more than ``_STEPS_PER_COLUMN`` times the smaller side of
the design in steps, or meets a singular (or non-finite) system on its
set, raises ``ConvergenceError``. The solver reads the Gram system only
through the rows of its active columns, so ``X'X`` is never formed whole:
the ``LassoDesign`` forms row j, ``x_j'X``, the first time column j enters
a path and keeps it for every later path on the same design.
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
    "post_lasso",
    "iterated_lasso",
]


class DegenerateLoadingsError(ValueError):
    """All penalty loadings are zero (degenerate target or residuals)."""


class ConvergenceError(RuntimeError):
    """A Lasso path passed its step bound or met a singular system."""


class _WideTarget(ValueError):
    """A bank's refusal of its target at ``row``, whose squares or loadings
    overflow; ``WORDING.format(name)`` words it for any name of the target."""

    WORDING = ("{} is out of floating-point range on this sample: "
               "its squares or penalty loadings overflow")

    def __init__(self, row: int):
        super().__init__(self.WORDING.format(f"target {row}"))
        self.row = row


@dataclass(frozen=True)
class LassoConfig:
    """Tuning constants for the selection machinery.

    ``gamma = None`` means the default slack 0.1 / log(max(M_total, n)) is
    derived where the penalty level is computed, with M_total the total
    count of Lasso target regressions times regressors per target.
    ``n_loadings`` caps the loading rounds of ``iterated_lasso``. The
    solver has no tuning constant: its path is exact up to rounding.
    """

    c: float = 1.1
    gamma: float | None = None
    n_loadings: int = 15

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        # a fraction would never equal the count of rounds, so no cap
        n_loadings = _require_whole("n_loadings", self.n_loadings, 1)
        object.__setattr__(self, "n_loadings", n_loadings)


@dataclass
class LassoFit:
    """Solution of one penalized regression.

    ``active_set`` holds the sorted positions of the nonzero coefficients.
    ``coefficients`` are those of the design's columns at unit root mean
    square (``LassoDesign``), not of the columns in the units given.
    ``iterations`` counts the path steps the final solve added to its
    path (``lasso_solve``): a step is one column that entered or left on
    the way from lam_max, and a solve that reads its fit off a recorded
    path adds none. The coefficients are the exact solution on the set, up
    to rounding. ``converged`` is True on every fit returned: a path that
    cannot end raises ``ConvergenceError`` instead.
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
    m = max(n_targets * n_regressors, n)
    if m < 2:
        raise ValueError(f"the default gamma needs max(M, n) >= 2, got {m}")
    return 0.1 / math.log(m)


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
    # Phi^{-1}(1 - tail) = -Phi^{-1}(tail): 1 - tail keeps only the bits
    # of tail down to 2^-53, and rounds to 1 when tail is below 2^-54
    return -2.0 * config.c * math.sqrt(n) * normal_quantile(tail)


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
    ``s_l = 1`` and a Gram diagonal of 0, so the column cannot enter a
    solve: the design lists such columns once, for every path to pass
    over. A column whose squares overflow gets an infinite scale and a NaN
    diagonal, which ``dictionary.build_design`` refuses. The weighted Lasso
    selects the same set on any positive rescaling of its columns, since
    ``x_l't``, the Gram entries and the loadings ``sqrt(mean(x_l^2 e^2))``
    all scale with the column; at one scale every Gram block the path
    solves has a diagonal of n. The blocks stay as given: ``scales`` holds
    ``s``, from the column sums of the squares that the Gram diagonal needs
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
            # a column whose squares overflow is refused by its caller
            # (``dictionary.build_design``), not warned about here
            with np.errstate(over="ignore"):
                squares.append(X * X)
            stores.append(None)
        widths = [X.shape[1] for X in arrays]
        if not sum(widths):
            raise ValueError("a design needs at least one column")
        n = arrays[0].shape[0]
        if any(X.shape[0] != n for X in arrays):
            raise ValueError("the design blocks have different row counts")
        self.blocks, self.squares = tuple(arrays), tuple(squares)
        self._stores = tuple(stores)
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
                # an infinite scale gives a NaN diagonal
                with np.errstate(invalid="ignore"):
                    self.diag[a:b] = np.where(zero, 0.0, total / (s * s))
            else:
                self.scales[a:b], self.diag[a:b] = store.scales, store.diag
        self._inert = np.flatnonzero(self.diag == 0.0)
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


# a path takes at most this many steps per column or row, whichever are
# fewer (lars' ``max.steps``, Efron et al. 2004); the longest measured, on a
# low_dim n = 500 sample with y + 100 and the 329-column tensor, took 188
_STEPS_PER_COLUMN = 8
# the two sides of an input's threshold, as the rows of ``_span``'s conditions
_SIDES = np.array([[1.0], [-1.0]])
_HUGE = float(np.finfo(float).max)


def _proper(loadings: np.ndarray) -> np.ndarray:
    """Whether every loading of each row is positive and finite (False for a
    row with a NaN)."""
    return ((loadings > 0.0) & (loadings <= _HUGE)).all(axis=-1)


def _crossing(design: LassoDesign, xty: np.ndarray, loadings: np.ndarray) -> tuple:
    """Where the Lasso path of each target leaves the empty set, over the
    leading axes of ``xty`` and ``loadings`` broadcast together: ``(lam_max,
    event, sign)``. The empty set is the solution down to ``lam_max = 2
    max(0, max_l |x_l't| / psi_l)`` over the columns that can enter
    (``LassoDesign``), NaN where such a ratio is NaN; there the lowest column
    of the max enters with the sign of its input: ``event`` and ``sign``,
    each with a last axis of length one, are the set the path steps to."""
    with np.errstate(all="ignore"):
        ratio = xty / loadings
    np.abs(ratio, out=ratio)
    ratio[..., design._inert] = 0.0
    event = ratio.argmax(axis=-1)[..., None]
    top = np.take_along_axis(ratio, event, axis=-1)[..., 0]
    entry = np.take_along_axis(np.broadcast_to(xty, ratio.shape), event, axis=-1)
    return 2.0 * np.maximum(top, 0.0), event, np.where(entry >= 0.0, 1.0, -1.0)


def _lam_max(design: LassoDesign, xty: np.ndarray, loadings: np.ndarray) -> np.ndarray:
    """Each row's lam_max (``_crossing``) under each loading round of
    ``loadings`` (r, k, m), as an (r, k) array; NaN where a loading is not
    positive and finite, as ``lasso_solve`` refuses such loadings."""
    return np.where(_proper(loadings), _crossing(design, xty, loadings)[0], np.nan)


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


@dataclass
class TargetBank:
    """Lasso targets on one ``LassoDesign``, each evaluated once.

    Row j of ``rows`` is one target, regressed on ``design``. Its cross
    products ``xty[j]`` (a row of ``T'X``) and initial loadings
    ``loadings[0, j]`` come from one matrix product each for the whole bank.
    ``cols`` names the targets the bank stands for, in equation order:
    ``subset`` gives a bank of some of them that shares every array and
    record, and ``leading(k)`` the bank of a degree's equations, so a degree
    grid indexes each degree's equations into one bank instead of
    rebuilding its targets. ``pairs`` is ``np.triu_indices(paired, 1)`` of
    ``of``, as ``(ii, jj)``: with the row count, it fixes where each target
    of ``rows`` lies.

    The empty set's Post-Lasso residual is the target itself, so its refined
    loadings ``loadings[1, j]`` are one more product for the whole bank:
    ``loadings`` is (2, k, m), row r the loadings of round r.

    ``rounds[j]`` holds target j's loadings rounds, for every equation that
    regresses it on the design: a dict from a round's key, None for the
    initial loadings and otherwise the bytes of the active set its loadings
    were refined on, to ``(loadings, path)``. ``loadings`` is the flag
    ``_refine`` returns instead where it returns one, and ``path`` lists the
    sets that round's Lasso path (``lasso_solve``) has visited so far. ``of``
    fills the records of None and of the empty set ``b""`` from
    ``loadings``; each call on the target reads one record per round, reads
    its fit off the path or extends it, and adds the records of new sets.

    ``lam_max[r, j]`` is the level of round r's first path record
    (``_lam_max``): the path takes no step exactly when lam is at or above
    it. It is -inf in round 1 where the empty set's record is a flag, as
    the call then ends after round 0, and NaN where the round's loadings
    are not all positive and finite, as the call then raises.
    """

    design: LassoDesign
    rows: np.ndarray
    xty: np.ndarray
    loadings: np.ndarray
    lam_max: np.ndarray
    rounds: list
    cols: tuple
    pairs: tuple

    @classmethod
    def of(cls, rows, design: LassoDesign, paired=0) -> TargetBank:
        """Bank of the targets in ``rows`` (one per row, or one vector).

        The bank also holds, for each pair p = (ii[p], jj[p]) of
        ``np.triu_indices(paired, 1)``, the sum and then the difference of
        those rows. This is the layout of every bank: the k given rows at
        0..k-1, the sum of pair p at k + p and its difference at k + P + p,
        for P pairs; no other module spells it (``leading`` reads it). The
        pairs' ``X't`` and loadings are derived from those of the rows, by
        linearity (``_pair_loadings``), not from products of their own.
        Targets whose length is not the design's row count, a ``paired``
        that is not a whole number from 0 to k, and a target whose squares
        or loadings overflow (a loading of either round that is not finite)
        are refused by a ``ValueError``, the last (``_WideTarget``) naming
        the first such target by its row, for a caller to name by its role.
        """
        rows = np.ascontiguousarray(np.atleast_2d(rows), dtype=float)
        if rows.shape[1] != design.shape[0]:
            raise ValueError(f"targets of length {rows.shape[1]} on a design of "
                             f"{design.shape[0]} rows")
        paired = _require_whole("paired", paired, 0)
        if paired > len(rows):
            raise ValueError(f"paired must be at most the {len(rows)} rows, got {paired}")
        ii, jj = pairs = np.triu_indices(paired, 1)
        targets = _paired(rows, ii, jj)
        # an overflow is refused below, by the target, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            xty = _paired(design.product(rows), ii, jj)
            # the bank's arrays first, then one buffer for both loadings'
            # products: the working arrays, freed last, leave no holes among
            # the kept ones
            loadings = np.empty((2,) + xty.shape)
            block = np.empty((len(rows) + ii.size, rows.shape[1]))
            for centred, out in zip((True, False), loadings):
                _pair_loadings(design, rows, targets, ii, jj, centred, block, out)
            del block
        wide = np.flatnonzero(~np.isfinite(loadings).all(axis=(0, 2)))
        if wide.size:
            raise _WideTarget(int(wide[0]))
        # _refine's flag on the empty set's residual; with finite squares its
        # sd is finite, at most 2 max|t|, so it is never a perfect fit
        degenerate = ~loadings[1].any(axis=1)
        lam_max = _lam_max(design, xty, loadings)
        lam_max[1, degenerate] = -math.inf
        rounds = [{None: (psi0, []), b"": ("loadings_degenerate" if d else psi1, [])}
                  for d, psi0, psi1 in zip(degenerate.tolist(), loadings[0], loadings[1])]
        return cls(design=design, rows=targets, xty=xty, loadings=loadings, lam_max=lam_max,
                   rounds=rounds, cols=tuple(range(len(targets))), pairs=pairs)

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return len(self.cols)

    def subset(self, cols) -> TargetBank:
        """The targets ``cols`` (ints or an index array) of this bank,
        sharing its arrays and records."""
        return replace(self, cols=tuple(np.asarray(cols, dtype=np.intp).tolist()))

    def leading(self, k: int) -> TargetBank:
        """The bank of the first ``k`` given rows and of every sum and
        difference of two of them, in the layout of ``of`` (rows, sums,
        differences, each in bank order), sharing this bank's arrays and
        records as ``subset`` does.

        A degree grid banks the g dictionary at its largest degree, so
        ``leading(k)`` is the extended first stage at degree k (or the
        plain one, in a bank without pairs). A ``k`` beyond the given rows
        is refused.
        """
        given = len(self.rows) - 2 * self.pairs[0].size
        if not 0 <= k <= given:
            raise ValueError(f"leading takes 0 to {given} given rows, got {k}")
        kept = given + np.flatnonzero(self.pairs[1] < k)  # each jj[p] > ii[p]
        return self.subset(np.concatenate([np.arange(k), kept, kept + self.pairs[0].size]))

    def settled_empty(self, lam: float, config: LassoConfig = LassoConfig()) -> np.ndarray:
        """Which equations in ``cols`` end with an empty active set at ``lam``
        without a path step.

        Entry k is True exactly when the call ``iterated_lasso(self, k, lam,
        config)`` would return the empty set with no step on any path, so a
        caller can take the empty set and skip the call. Its first round's
        path takes no step when lam is at or above that round's lam_max; the
        second round, run when ``n_loadings > 1``, is the same test with
        round 1's, which is -inf where a flag ends the call after round 0; a
        third would repeat the empty set and stop. So an equation is settled
        when ``lam_max[:rounds, j] <= lam``, one comparison for the bank; a
        NaN lam_max is never settled, as its call raises. An equation that
        ends empty after its path took steps is left to its call.
        """
        rounds = 1 if config.n_loadings == 1 else 2
        return (self.lam_max[:rounds, list(self.cols)] <= lam).all(axis=0)


def _span(design: LassoDesign, xty: np.ndarray, psi: np.ndarray, active: np.ndarray,
          signs: np.ndarray) -> tuple:
    """The record (``lasso_solve``) of the set ``active`` with coefficient
    signs ``signs`` on the Lasso path of ``xty`` on ``design`` under
    loadings ``psi``, a set the path stepped to; its first set, the empty
    one, is ``_crossing``'s.

    On A = ``active`` with signs s, the solution at lam is ``t_A = G_AA^-1
    (X_A'y - (lam/2) psi_A s) = u - lam v``, read from the rows of A in the
    design's store, which forms those it lacks. It is the Lasso solution
    when its signs are s and every column off A meets ``|x_j'y - G_jA t_A|
    <= (lam/2) psi_j``: the subgradient (KKT) conditions. Each condition is
    linear in lam (the homotopy view of the Lasso path; Osborne, Presnell &
    Turlach 2000). Columns that cannot enter (``LassoDesign``) are not
    checked.

    Going down in lam, the first condition to fail sets ``lo``: its column
    enters with the sign of its input, or, on A, leaves, which gives the
    record's next set. Conditions are compared on lam / 2 and ties go to the
    lowest column.
    """
    with np.errstate(all="ignore"):
        # h * q >= p, per column: each input off A below its threshold from
        # above (row 0) and from below (row 1), and each coefficient on A on
        # its side of zero, in both rows
        G = design.rows(active)
        G_AA = G[:, active]
        rhs = np.array([xty[active], psi[active] * signs])
        # t_A = u - h w at h = lam / 2
        try:
            uw = np.linalg.solve(G_AA, rhs.T).T
        except np.linalg.LinAlgError:
            uw = np.full_like(rhs, np.nan)  # as a non-finite system
        u, w = uw
        Gu, Gw = uw @ G
        q = psi - _SIDES * Gw
        p = _SIDES * (xty - Gu)
        gain = signs * np.diagonal(G_AA)
        q[:, active] = -gain * w
        p[:, active] = -gain * u
        ratio = p / q
        lower = np.where(q > 0.0, ratio, -math.inf)
        if not np.isfinite(ratio).all():
            if np.isnan(q).any() or np.isnan(p).any():
                return math.inf, active, signs, None, None, None, None
            # a condition with q = 0 holds at every level or at none
            lower[(q == 0.0) & (p > 0.0)] = math.inf
    lower[:, design._inert] = -math.inf
    low = lower.max(axis=0)
    event = int(np.argmax(low))
    lo = max(float(low[event]), 0.0)
    # the next set: the event's column leaves, or enters with its input's sign
    after = np.zeros(low.size)
    after[active] = signs
    after[event] = 0.0 if after[event] else 1.0 if lower[0, event] >= lower[1, event] else -1.0
    nxt = np.flatnonzero(after)
    return 2.0 * lo, active, signs, u, 0.5 * w, nxt, after[nxt]


def lasso_solve(
    design: LassoDesign,
    xty: np.ndarray,
    lam: float,
    loadings: np.ndarray,
    path: list | None = None,
) -> LassoFit:
    """Solve one weighted-penalty Lasso exactly, by following its path.

    ``xty`` is ``X'y`` for the design ``X`` of ``design`` at unit root
    mean square, ``design.product(y)``; the solve reads the design's Gram
    rows, forming those of entering columns it does not hold yet.

    The path starts at lam_max, where the solution is empty, and goes down
    to ``lam`` one step at a time: each step follows the solution on the
    current set and signs down to the first level where a column enters or a
    coefficient leaves, and applies that event. The fit is the solution on
    the first set whose step reaches ``lam``. A path that would take more
    than ``_STEPS_PER_COLUMN * min(n, m)`` steps, or that meets a singular
    or non-finite system on its set, raises ``ConvergenceError``.

    ``path`` lists one record per set that earlier solves of the same
    ``xty`` and ``loadings`` on this design visited: ``(lo, active, signs,
    u, v, after, after_signs)``, the solution ``u - lam v`` on the set down
    to the level ``lo``, and the set the path steps to there (``u`` and
    ``v`` None on a singular or non-finite system). The first record, the
    empty set's, is ``_crossing``'s, and each later one ``_span``'s on the
    set the record before steps to. They do not depend on ``lam``, so the
    solve reads its fit off the first record whose ``lo`` reaches ``lam``,
    or else extends the path from the last one, appending a record per
    step, and the fit is that of a solve from an empty list, bit for bit. A
    path keeps the records it made before a ``ConvergenceError``, and a
    solve that must go further raises it again. ``iterations`` counts the
    steps this solve added to the path.
    """
    xty = np.asarray(xty, dtype=float)
    loadings = np.asarray(loadings, dtype=float)
    m = design.shape[1]
    # NaN fails every comparison, so no step would reach it; inf is legal,
    # and its solution is the empty set
    if not lam >= 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    if xty.shape != (m,):
        raise ValueError(f"xty has shape {xty.shape}, expected ({m},)")
    if loadings.shape != (m,):
        raise ValueError(f"loadings has shape {loadings.shape}, expected ({m},)")
    if not _proper(loadings):
        raise ValueError("loadings must be positive and finite; degenerate columns upstream")
    lam = float(lam)
    path = [] if path is None else path
    if not path:
        lo, event, sign = _crossing(design, xty, loadings)
        u = None if np.isnan(lo) else loadings[:0]  # a NaN input
        path.append((lo, np.empty(0, np.intp), np.empty(0), u, u, event, sign))
    recorded = len(path)
    bound = _STEPS_PER_COLUMN * min(design.shape)
    steps = 0
    while True:
        if steps == len(path):
            path.append(_span(design, xty, loadings, *path[-1][5:]))
        lo, active, _, u, v, _, _ = path[steps]
        if u is None:
            raise ConvergenceError(f"the Lasso path met a singular or non-finite system "
                                   f"on {active.size} columns after {steps} steps")
        if lo <= lam:
            break
        if steps == bound:
            raise ConvergenceError(f"the Lasso path passed its step bound of {bound} steps")
        steps += 1
    coef = np.zeros(m)
    coef[active] = u - lam * v
    return LassoFit(
        coefficients=coef,
        active_set=np.flatnonzero(coef),
        lam=lam,
        loadings=loadings,
        iterations=len(path) - recorded,
        converged=True,
    )


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

    The target's ``X'y`` and its records of loadings rounds come from the
    bank (``TargetBank.rounds``), and every solve reads the Gram rows of the
    bank's design, so calls on the same bank that differ only in ``lam`` or
    ``config`` reuse them. Each round reads one record, the loadings (or
    flag) its key names and the path they were solved on, and a round on a
    set the target has not met adds its record. The records start with the
    initial and the empty set's loadings (or flag), computed for the whole
    bank at once; an equation that ``TargetBank.settled_empty`` marks would
    return an empty set here and can skip the call. A round whose path
    cannot end raises ``ConvergenceError`` (``lasso_solve``), whichever
    round it is. A later call on the target (a grid's next degree, at a
    nearby lam) reads each round off the path an earlier call took, or
    extends it, and its fit is that of a call on a fresh bank, bit for bit.
    """
    j, design = bank.cols[k], bank.design
    y, xty, records = bank.rows[j], bank.xty[j], bank.rounds[j]
    _nonzero(bank.loadings[0, j], "initial")
    solved, key = 0, None
    while True:
        loadings, path = records[key]
        fit = lasso_solve(design, xty, lam, loadings, path)
        solved += 1
        previous, key = key, fit.active_set.tobytes()
        if solved == config.n_loadings or key == previous:
            break
        if key not in records:
            records[key] = (_refine(design, y, fit.active_set), [])
        flag = records[key][0]
        if isinstance(flag, str):
            fit = replace(fit, **{flag: True})
            break
    return fit
