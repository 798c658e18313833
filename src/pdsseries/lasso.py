"""Weighted-penalty Lasso with data-driven penalty loadings.

The objective is kept in unnormalized sum-of-squares form,

    sum_i (y_i - x_i' t)^2 + lam * sum_j |psi_j t_j|,

so the penalty level lam = 2 c sqrt(n) Phi^{-1}(1 - gamma / (2 M)) and the
loadings psi_j = sqrt(mean(x_j^2 e^2)) carry their conventional scaling.
Loadings are refined iteratively from Post-Lasso residuals.

Every Lasso of post-double selection regresses some target on one design,
so what those Lassos share lives in two objects. A ``LassoDesign`` holds
the design ``X``, its square ``X*X`` (both loadings formulas are one
product against it) and a store of the rows of ``X'X``. A ``TargetBank``
holds targets on one ``LassoDesign``, each with its ``X't`` and initial
loadings, evaluated for all targets at once, and a memo of its refined
loadings by active set: refined loadings depend on a fit only through its
active set, so the iteration stops as soon as a round selects the same set
as the round before, and every equation on the same target reuses them.
``iterated_lasso(bank, k, lam)`` fits the bank's ``k``-th target.

Most equations of post-double selection select nothing. The bank also
evaluates every target's refined loadings for the empty set in one product,
and pre-fills each memo with them, so ``TargetBank.settled_empty`` can
decide for the whole bank at once which equations select nothing in their
first two rounds, and so end empty, at a given penalty level: two
elementwise comparisons over ``X'T``, one per loading round, against the
thresholds of the solver's first screen. Those equations need no
``iterated_lasso`` call, and the rest read the same pre-filled loadings.

The solver is active-set cyclic coordinate descent on the Gram system: the
covariance-update scheme of glmnet (Friedman, Hastie & Tibshirani 2010,
J. Stat. Softw. 33(1)), where sweeps run over the active coordinates only
and one vectorised check of the subgradient (KKT) conditions over the
inactive coordinates decides which enter, as in the strong rules of
Tibshirani et al. (2012, J. R. Stat. Soc. B 74(2)). The solve ends when a
screen finds no violator, so at a converged solution every inactive
coordinate meets its KKT condition exactly and every active one to the
sweep tolerance.

The solver reads the Gram system only through the rows of its active
coordinates, so ``X'X`` is never formed whole: the ``LassoDesign`` forms
row j, ``x_j'X``, the first time column j enters a solve and keeps it for
every later solve on the same design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
        if self.n_loadings < 1:
            raise ValueError("n_loadings must be >= 1")
        if self.cd_max_iter < 1:
            raise ValueError("cd_max_iter must be >= 1")


@dataclass
class LassoFit:
    """Solution of one penalized regression.

    ``active_set`` holds the sorted positions of the nonzero coefficients.
    ``iterations`` counts the active-set sweeps of the final solve: passes
    of cyclic coordinate descent over the coordinates admitted so far by
    the KKT screen, not over all columns (the glmnet active-set scheme of
    Friedman, Hastie & Tibshirani 2010, screened as in Tibshirani et al.
    2012); a solve whose first screen admits nothing takes 0.
    ``converged`` means the last sweep moved no coefficient by more than
    ``cd_tol`` and the screen after it found no inactive coordinate
    violating its KKT condition.
    """

    coefficients: np.ndarray
    active_set: np.ndarray
    lam: float
    loadings: np.ndarray
    iterations: int
    converged: bool
    perfect_fit: bool = False
    loadings_degenerate: bool = False


# Wichura's algorithm AS 241, rational approximations accurate to ~1e-16.
_A0 = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_B0 = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
_A1 = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_B1 = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
    6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9,
)
_A2 = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_B2 = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
    1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15,
)


def _poly(coefs, r: float) -> float:
    out = coefs[-1]
    for c in reversed(coefs[:-1]):
        out = out * r + c
    return out


def normal_quantile(p: float) -> float:
    """Standard normal quantile Phi^{-1}(p) for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _poly(_A0, r) / _poly(_B0, r)
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        val = _poly(_A1, r) / _poly(_B1, r)
    else:
        r -= 5.0
        val = _poly(_A2, r) / _poly(_B2, r)
    return -val if q < 0.0 else val


def default_gamma(n: int, n_targets: int, n_regressors: int) -> float:
    """Penalty slack 0.1 / log(max(n_targets * n_regressors, n))."""
    return 0.1 / math.log(max(n_targets * n_regressors, n))


def penalty_level(
    n: int,
    n_targets: int,
    n_regressors: int,
    config: LassoConfig | None = None,
) -> float:
    """Penalty level 2 c sqrt(n) Phi^{-1}(1 - gamma / (2 M)).

    ``M = n_targets * n_regressors`` counts the moment conditions being
    controlled: ``n_targets`` is the number of Lasso regressions run at this
    level (K for the first stage, 1 for a single equation) and
    ``n_regressors`` the regressor count per equation.
    """
    if n < 1 or n_targets < 1 or n_regressors < 1:
        raise ValueError("n, n_targets and n_regressors must be >= 1")
    cfg = config if config is not None else LassoConfig()
    gamma = cfg.gamma if cfg.gamma is not None else default_gamma(n, n_targets, n_regressors)
    tail = gamma / (2.0 * n_targets * n_regressors)
    if tail >= 1.0:
        raise ValueError("gamma / (2 M) must be below 1")
    return 2.0 * cfg.c * math.sqrt(n) * normal_quantile(1.0 - tail)


def _nonzero(loadings: np.ndarray, which: str) -> np.ndarray:
    if not loadings.any():
        raise DegenerateLoadingsError(f"all {which} loadings are zero")
    return loadings


def initial_loadings(design: LassoDesign, targets: np.ndarray) -> np.ndarray:
    """Conservative start psi_j = sqrt(mean(x_j^2 (t_i - tbar)^2)).

    ``targets`` is one target vector, or a (k, n) block with one target per
    row: the result then has one row of loadings per target, from one
    matrix product against ``design.sq``, and no row is checked for
    degeneracy here (``iterated_lasso`` checks the row it fits).
    """
    t = np.asarray(targets, dtype=float)
    dev2 = t - t.mean(axis=-1, keepdims=True)
    np.square(dev2, out=dev2)
    loadings = dev2 @ design.sq
    del dev2
    loadings /= t.shape[-1]
    np.sqrt(loadings, out=loadings)
    return loadings if t.ndim > 1 else _nonzero(loadings, "initial")


def refined_loadings(design: LassoDesign, residuals: np.ndarray) -> np.ndarray:
    """Residual-based loadings psi_j = sqrt(mean(x_j^2 e_i^2)).

    ``residuals`` is one residual vector, or a (k, n) block with one residual
    per row, as in ``initial_loadings``: ``TargetBank.of`` passes its targets,
    the Post-Lasso residuals of the empty set. A block gets one row of
    loadings per residual, from one matrix product against ``design.sq``, and
    no row is checked for degeneracy here.
    """
    e2 = np.asarray(residuals, dtype=float) ** 2
    n, block = e2.shape[-1], e2.ndim > 1
    loadings = e2 @ design.sq
    del e2
    loadings /= n
    np.sqrt(loadings, out=loadings)
    return loadings if block else _nonzero(loadings, "refined")


class LassoDesign:
    """One design ``X`` and what every Lasso on it shares.

    ``sq = X*X`` feeds both loadings formulas and ``diag``, the Gram
    diagonal, is its column sums. ``rows(idx)`` returns rows ``idx`` of
    ``X'X``. A row missing from the store is formed then, as ``x_j'X``, and
    kept, so each row is formed at most once however many solves on ``X``
    ask for it. Each row is formed on its own, so its bits depend only on
    ``X`` and j, not on which rows were asked for before or alongside it: a
    fit is the same on a fresh design and on one that earlier solves have
    filled. ``rows_formed`` counts the rows formed so far.
    """

    def __init__(self, X: np.ndarray):
        self.X = np.asarray(X, dtype=float)
        self.sq = self.X * self.X
        self.diag = self.sq.sum(axis=0)
        m = self.X.shape[1]
        self._slot = np.full(m, -1)  # row of _buf holding each column's row
        self._buf = np.empty((0, m))
        self._count = 0

    @property
    def rows_formed(self) -> int:
        return self._count

    def rows(self, idx) -> np.ndarray:
        """Rows ``idx`` of ``X'X``, as a (len(idx), m) array."""
        idx = np.asarray(idx, dtype=int)
        new = np.unique(idx[self._slot[idx] < 0])
        if new.size:
            m, need = self.X.shape[1], self._count + new.size
            if need > len(self._buf):
                # grow by doubling, to at most one row per column
                grown = np.empty((min(m, max(need, 2 * len(self._buf))), m))
                grown[:self._count] = self._buf[:self._count]
                self._buf = grown
            for j in new.tolist():
                np.matmul(self.X[:, j], self.X, out=self._buf[self._count])
                self._slot[j] = self._count
                self._count += 1
        return self._buf[self._slot[idx]]


@dataclass
class TargetBank:
    """Lasso targets on one ``LassoDesign``, each evaluated once.

    Row j of ``rows`` is one target, regressed on ``design``. Its cross
    products ``xty[j]`` (a row of ``T'X``) and initial loadings
    ``loadings0[j]`` come from one matrix product each for the whole bank,
    and ``memos[j]`` keeps its refined loadings by active set for every
    equation that regresses this target on the design. ``cols`` names the
    targets the bank stands for, in equation order: ``subset`` gives a bank
    of some of them that shares every array and memo, so a degree grid
    indexes each degree's equations into one bank instead of rebuilding its
    targets.

    The empty set's Post-Lasso residual is the target itself, so its refined
    loadings ``loadings1[j]`` are one more matrix product for the whole bank.
    Each memo starts with them under the empty-set key ``b""``, or with the
    flag ``_refine`` would return instead, which ``empty_flagged[j]`` marks.
    With both rounds' loadings at hand, ``settled_empty`` decides for every
    equation at once whether it ends with an empty active set.
    """

    design: LassoDesign
    rows: np.ndarray
    xty: np.ndarray
    loadings0: np.ndarray
    loadings1: np.ndarray
    empty_flagged: np.ndarray
    memos: list
    cols: tuple

    @classmethod
    def of(cls, rows, design: LassoDesign) -> TargetBank:
        """Bank of the targets in ``rows`` (one per row, or one vector)."""
        rows = np.ascontiguousarray(np.atleast_2d(rows), dtype=float)
        loadings1 = refined_loadings(design, rows)
        # _refine's flags, on the empty set's residual
        perfect = np.abs(rows).max(axis=1) < 1e-12 * rows.std(axis=1)
        degenerate = ~loadings1.any(axis=1)
        memos = [{b"": "perfect_fit" if p else "loadings_degenerate" if d else psi}
                 for p, d, psi in zip(perfect.tolist(), degenerate.tolist(), loadings1)]
        return cls(design=design, rows=rows, xty=rows @ design.X,
                   loadings0=initial_loadings(design, rows), loadings1=loadings1,
                   empty_flagged=perfect | degenerate, memos=memos,
                   cols=tuple(range(len(rows))))

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return len(self.cols)

    def subset(self, cols) -> TargetBank:
        """The targets ``cols`` of this bank, sharing its arrays and memos."""
        return replace(self, cols=tuple(int(j) for j in cols))

    def settled_empty(self, lam: float, config: LassoConfig | None = None) -> np.ndarray:
        """Which equations in ``cols`` end with an empty active set at ``lam``.

        Entry k is True when the first two solves of ``iterated_lasso(self,
        k, lam, config)`` admit nothing, so that the call would return an
        empty set without raising: a caller can take the empty set and skip
        the call. (An equation that ends empty after a round that selected
        something is not settled.) The first solve starts from t = 0 and
        admits nothing when no column has |x_j't| > lam psi0_j / 2, the first
        screen of ``_cd_solve``; this is the lam >= lam_max test behind the
        SAFE rules (El Ghaoui, Viallon & Rabbani 2012) and the strong rules
        (Tibshirani et al. 2012). The second solve, run when
        ``n_loadings > 1`` and the empty-set memo is not a flag, is the same
        test with ``loadings1``; a third would repeat the empty set and stop.
        Both are elementwise comparisons over the bank's ``xty`` with the
        solver's own thresholds, so they agree with the solves bit for bit.

        An equation whose loadings are not all positive is never settled:
        its ``iterated_lasso`` call raises. A positive loading needs a
        positive entry of ``X*X`` in its column, whose sum is the Gram
        diagonal, so the solver's screen skips no column of a settled
        equation.
        """
        cfg = config if config is not None else LassoConfig()
        j = list(self.cols)
        half = 0.5 * float(lam)
        abs_xty = self.xty[j]
        np.abs(abs_xty, out=abs_xty)

        def admits_none(loadings):
            thr = loadings[j]
            positive = (thr > 0.0).all(axis=1)
            thr *= half
            return positive & ~(abs_xty > thr).any(axis=1)

        settled = admits_none(self.loadings0)
        if cfg.n_loadings > 1:
            settled &= self.empty_flagged[j] | admits_none(self.loadings1)
        return settled


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
        rows = list(block)
        q_a = q[idx]
        c_a = coef[idx].tolist()
        d_a = np.diagonal(block).tolist()
        t_a = thr[idx].tolist()
        b_a = xty[idx].tolist()
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
                    q_a += delta * rows[k]
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
    config: LassoConfig | None = None,
) -> LassoFit:
    """Solve one weighted-penalty Lasso by active-set coordinate descent.

    ``xty`` is ``X'y`` for the design ``X`` of ``design``, whose Gram rows
    the solve reads, forming those of entering columns it does not hold
    yet. The fit reports ``converged = False`` when ``cd_max_iter`` sweeps
    were not enough; ``iterated_lasso`` turns that into a
    ``ConvergenceError``.
    """
    cfg = config if config is not None else LassoConfig()
    xty = np.asarray(xty, dtype=float)
    loadings = np.asarray(loadings, dtype=float)
    m = design.X.shape[1]
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if xty.shape != (m,):
        raise ValueError(f"xty has shape {xty.shape}, expected ({m},)")
    if loadings.shape[0] != m:
        raise ValueError("loadings length does not match column count")
    if np.any(loadings <= 0.0):
        raise ValueError("loadings must be positive; degenerate columns upstream")
    coef, sweeps, converged = _cd_solve(
        design, xty, 0.5 * float(lam) * loadings, cfg.cd_max_iter, cfg.cd_tol,
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
    X = design.X
    coef = post_lasso(X, y, active_set)
    resid = y - X[:, active_set] @ coef[active_set]
    if np.max(np.abs(resid)) < 1e-12 * float(y.std()):
        return "perfect_fit"
    try:
        return refined_loadings(design, resid)
    except DegenerateLoadingsError:
        return "loadings_degenerate"


def iterated_lasso(bank: TargetBank, k: int, lam: float,
                   config: LassoConfig | None = None) -> LassoFit:
    """Lasso of the bank's ``k``-th target with iterated penalty loadings.

    Solves once with the conservative initial loadings, then alternates
    Post-Lasso residuals and refined loadings, for at most ``n_loadings``
    solves in total. Stops early on a perfect Post-Lasso fit (max |residual|
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
    """
    cfg = config if config is not None else LassoConfig()
    j, design = bank.cols[k], bank.design
    y, xty, memo = bank.rows[j], bank.xty[j], bank.memos[j]
    fit = lasso_solve(design, xty, lam, _nonzero(bank.loadings0[j], "initial"), cfg)
    previous = None
    for _ in range(1, cfg.n_loadings):
        key = fit.active_set.tobytes()
        if key == previous:
            break
        previous = key
        if key not in memo:
            memo[key] = _refine(design, y, fit.active_set)
        loadings = memo[key]
        if isinstance(loadings, str):
            fit = replace(fit, **{loadings: True})
            break
        fit = lasso_solve(design, xty, lam, loadings, cfg)
    if not fit.converged:
        raise ConvergenceError(
            f"coordinate descent did not converge within cd_max_iter="
            f"{cfg.cd_max_iter} sweeps"
        )
    return fit
