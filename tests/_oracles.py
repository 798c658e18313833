"""Independent reference implementations used only by the tests.

Everything here is deliberately written from first principles, without
touching the library's own solver paths, so agreement is meaningful.
``cd_solve`` and ``_cd_solve`` are the library's former coordinate-descent
kernels, over every coordinate and over the active ones, kept as the
references for the exact path that replaced them: the set the path selects
is the one they converge to. They stop at their own tolerance ``CD_TOL``
and cap ``CD_MAX_ITER``, tight enough that their coefficients are the
exact ones to about 1e-10.
``iterated_lasso`` is the library's former loadings iteration: it stopped
when the refined loadings repeated the previous round's, which the
library's rule (stop when the active set repeats) must match in every
field of the returned fit. It reads its design as every Lasso does, each
column at unit root mean square: ``unit_columns`` is that matrix.
``bank_of`` banks the columns of a target matrix on a design, a
``LassoDesign`` such as the workspace ``build_design`` returns. ``build_design_sd`` is the
library's former workspace, which divided ``Q`` by its columns' standard
deviations and read the result as given (``design_as_given``), kept as
the reference for the workspace that reads ``Q`` in raw units.
``g_columns`` is the g dictionary as the estimators evaluate it: raw, and
standardized for the Lassos. ``hermite_tensor_design`` is
the library's former column-by-column tensor evaluation, kept unchanged as
the reference for the prefix-product evaluation that replaced it.
``kkt_max_violation`` measures how far a Lasso fit is from meeting its
subgradient (KKT) conditions on the design as given; it moved here from the
library, which never called it.
``toeplitz_column_loop`` is the library's former AR(1) draw, column by
column into a second array, kept unchanged as the reference for the
in-place draw that replaced it.
``hermite_eval`` and ``hermite_deriv`` are the library's former one-degree
Hermite evaluators, kept unchanged as the references for its design-matrix
evaluators. ``residualize_p`` is the library's former second least squares
of the g dictionary on [1, retained controls], kept unchanged as the
reference for the residualized dictionary that the final OLS returns.
``normal_quantile`` is the library's former hand-coded AS 241, kept
unchanged as the reference for ``statistics.NormalDist().inv_cdf``, which
replaced it: their bits must be the same.
``choose_k_bic_per_degree`` is the library's former BIC grid, which made one
``pds_fit`` projection per degree, kept as it was (its library names read
through the ``selection`` module) as the reference for the grid that
projects once per distinct control set; it finds each degree's equations
in the grid's bank by ``leading_cols``, the offset arithmetic the grid did
itself before ``TargetBank.leading`` took it over, written out pair by
pair from ``bank.pairs``. ``build_extended_fs`` is the library's former
extended first-stage dictionary, which concatenated its column blocks,
kept unchanged as the reference for the one the bank's routine forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from pdsseries import selection
from pdsseries.dictionary import (
    DictionarySpec,
    _coordinates,
    evaluate_dictionary,
    hermite_design,
    standardize_columns,
    tensor_index_set,
)
from pdsseries.lasso import (
    DegenerateLoadingsError,
    LassoConfig,
    LassoDesign,
    LassoFit,
    TargetBank,
    initial_loadings,
    lasso_solve,
    post_lasso,
    refined_loadings,
)


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


def hermite_monomial(x: float, k: int) -> float:
    """Probabilists' Hermite polynomial via its explicit monomial expansion.

    He_k(x) = k! * sum_m (-1)^m x^(k-2m) / (m! (k-2m)! 2^m), m = 0..floor(k/2).
    """
    total = 0.0
    for m in range(k // 2 + 1):
        coef = ((-1) ** m * math.factorial(k)
                / (math.factorial(m) * math.factorial(k - 2 * m) * 2**m))
        total += coef * x ** (k - 2 * m)
    return total


def hermite_eval(x, k: int):
    """Probabilists' Hermite polynomial He_k(x).

    Uses the three-term recurrence He_{k+1}(x) = x He_k(x) - k He_{k-1}(x)
    with He_0 = 1 and He_1 = x. Accepts scalars or arrays.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    prev = np.ones_like(arr)
    if k == 0:
        return float(prev[0]) if scalar else prev
    cur = arr.copy()
    for m in range(1, k):
        prev, cur = cur, arr * cur - m * prev
    return float(cur[0]) if scalar else cur


def hermite_deriv(x, k: int):
    """Derivative He_k'(x) = k He_{k-1}(x)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        arr = np.asarray(x, dtype=float)
        return 0.0 if arr.ndim == 0 else np.zeros_like(arr)
    out = hermite_eval(x, k - 1)
    return k * out


def residualize_p(P: np.ndarray, Q_sel: np.ndarray) -> np.ndarray:
    """Least-squares residuals of each g column on [1, retained controls]."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    Q_sel = np.asarray(Q_sel, dtype=float) if Q_sel is not None else np.empty((n, 0))
    if Q_sel.size == 0:
        Q_sel = Q_sel.reshape(n, 0)
    design = np.concatenate([np.ones((n, 1)), Q_sel], axis=1)
    coef, *_ = np.linalg.lstsq(design, P, rcond=None)
    return P - design @ coef


def hermite_tensor_design(Z: np.ndarray, kmax: int) -> np.ndarray:
    """Hermite tensor columns prod_j He_{m_j}(z_j), one column at a time,
    in ``tensor_index_set`` order."""
    n, d = Z.shape
    uni = np.empty((d, n, kmax + 1))
    for j in range(d):
        uni[j, :, 0] = 1.0
        uni[j, :, 1:] = hermite_design(Z[:, j], kmax)
    indices = tensor_index_set(d, kmax)
    out = np.empty((n, len(indices)))
    for c, mi in enumerate(indices):
        col = np.ones(n)
        for j, m in enumerate(mi):
            if m:
                col = col * uni[j, :, m]
        out[:, c] = col
    return out


def toeplitz_column_loop(n: int, d: int, rho: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Gaussian rows with correlation rho^|j-k| by the AR(1) map, one
    column at a time into a second array."""
    e = rng.standard_normal((n, d))
    out = np.empty_like(e)
    out[:, 0] = e[:, 0]
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, d):
        out[:, j] = rho * out[:, j - 1] + scale * e[:, j]
    return out


def lasso_objective(X: np.ndarray, y: np.ndarray, coef: np.ndarray,
                    lam: float, loadings: np.ndarray) -> float:
    """Unnormalized objective sum (y - X t)^2 + lam * sum |psi_j t_j|."""
    r = y - X @ coef
    return float(r @ r + lam * np.abs(loadings * coef).sum())


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


def lasso_sign_enumeration(X: np.ndarray, y: np.ndarray, lam: float,
                           loadings: np.ndarray) -> np.ndarray:
    """Exact weighted-Lasso solution by enumerating all sign patterns.

    Only viable for a handful of columns. For each pattern s in {-1,0,1}^M
    the stationarity conditions on the active block give a linear solve
        t_A = (X_A' X_A)^{-1} (X_A' y - lam psi_A s_A / 2),
    and the candidate is kept when the solved signs match the pattern and
    every inactive column satisfies |2 x_j' r| <= lam psi_j. The feasible
    candidate with the smallest objective is the minimizer.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    loadings = np.asarray(loadings, dtype=float)
    m = X.shape[1]
    if m > 6:
        raise ValueError("sign enumeration is exponential; keep m small")
    slack = 1e-9 * max(1.0, float(np.abs(2 * X.T @ y).max()))
    best = None
    best_obj = math.inf
    for signs in itertools.product((-1, 0, 1), repeat=m):
        s = np.array(signs, dtype=float)
        active = np.flatnonzero(s != 0)
        coef = np.zeros(m)
        if active.size:
            XA = X[:, active]
            rhs = XA.T @ y - lam * loadings[active] * s[active] / 2.0
            try:
                tA = np.linalg.solve(XA.T @ XA, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(tA) != s[active]):
                continue
            coef[active] = tA
        r = y - X @ coef
        grad = 2.0 * X.T @ r
        inactive = np.flatnonzero(s == 0)
        if np.any(np.abs(grad[inactive]) > lam * loadings[inactive] + slack):
            continue
        obj = lasso_objective(X, y, coef, lam, loadings)
        if obj < best_obj:
            best_obj = obj
            best = coef
    if best is None:
        raise RuntimeError("no feasible sign pattern found")
    return best


# the coordinate-descent references' stopping rule: the largest coefficient
# change in a sweep, and the cap on sweeps
CD_TOL = 1e-13
CD_MAX_ITER = 100_000


def cd_solve(gram, xty, lam, penalty, max_iter=CD_MAX_ITER, tol=CD_TOL):
    """Minimize the weighted-penalty Lasso objective via its Gram matrices.

    Cyclic coordinate descent over every coordinate on the Gram system of

        sum_i (y_i - x_i' t)^2 + lam * sum_j penalty_j |t_j|

    starting from t = 0, stopping when the largest coefficient change in a
    sweep is at most ``tol`` or after ``max_iter`` sweeps.

    Parameters
    ----------
    gram : (m, m) ndarray, X'X
    xty : (m,) ndarray, X'y
    lam : float, penalty level
    penalty : (m,) ndarray, per-coordinate penalty loadings
    max_iter : int, sweep cap
    tol : float, convergence threshold on the max coefficient change

    Returns
    -------
    (coef, n_sweeps, converged)
    """
    m = xty.shape[0]
    coef = np.zeros(m)
    q = np.zeros(m)  # gram @ coef, maintained incrementally
    thr = 0.5 * lam * np.asarray(penalty, dtype=float)
    diag = np.ascontiguousarray(np.diagonal(gram))
    n_sweeps = 0
    converged = False
    for sweep in range(max_iter):
        max_change = 0.0
        for j in range(m):
            dj = diag[j]
            if dj <= 0.0:
                continue
            z = xty[j] - q[j] + dj * coef[j]
            t = thr[j]
            if z > t:
                new = (z - t) / dj
            elif z < -t:
                new = (z + t) / dj
            else:
                new = 0.0
            delta = new - coef[j]
            if delta != 0.0:
                q += delta * gram[j]
                coef[j] = new
                ad = abs(delta)
                if ad > max_change:
                    max_change = ad
        n_sweeps = sweep + 1
        if max_change <= tol:
            converged = True
            break
    return coef, n_sweeps, converged


def _cd_solve(design: LassoDesign, xty: np.ndarray, thr: np.ndarray,
              max_iter: int = CD_MAX_ITER, tol: float = CD_TOL):
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


def random_instance(rng: np.random.Generator, n: int, m: int,
                    n_nonzero: int = 3, noise: float = 0.5):
    """Gaussian design with a sparse truth; returns (X, y)."""
    X = rng.standard_normal((n, m))
    beta = np.zeros(m)
    support = rng.choice(m, size=min(n_nonzero, m), replace=False)
    beta[support] = rng.standard_normal(support.size) * 2.0
    y = X @ beta + noise * rng.standard_normal(n)
    return X, y


def unit_columns(design: LassoDesign) -> np.ndarray:
    """The matrix a design's Lassos read: its blocks side by side, each
    column divided by the design's scale, with the bits of
    ``design.columns``."""
    return np.concatenate(design.blocks, axis=1) / design.scales


def design_as_given(X: np.ndarray) -> LassoDesign:
    """A one-block design that reads ``X`` as given, as every design did
    before designs read their columns at unit root mean square: its scales
    are 1, so each output keeps the bits of the product it divides, and its
    Gram diagonal is the column sums of ``X*X``. ``LassoDesign(*blocks)``
    over its block is the unit-RMS system again."""
    design = LassoDesign(X)
    design.scales = np.ones(design.shape[1])
    design.diag = np.add.reduce(design.squares[0], axis=0)
    return design


def build_design_sd(spec_q: DictionarySpec, Z) -> LassoDesign:
    """The workspace of the former ``build_design``: the dictionary divided
    by its columns' standard deviations (no centering), a constant column
    refused, and the result read as given. Its block holds standardized
    columns, which the final OLS then reads, so only its selections compare
    with the library's."""
    if spec_q.kind == "raw_coordinates":
        Q_raw = np.ascontiguousarray(_coordinates(spec_q, Z))
    else:
        Q_raw = evaluate_dictionary(spec_q, Z)
    Q, _ = standardize_columns(Q_raw, what="Q column")
    return design_as_given(Q)


def bank_of(T, design: LassoDesign) -> TargetBank:
    """A ``TargetBank`` of the columns of an (n, k) matrix, or of one vector,
    on ``design``."""
    return TargetBank.of(np.asarray(T, dtype=float).T, design)


def g_columns(x, k: int):
    """He_1..He_k of ``x``: the raw columns every final OLS reads, and the
    standardized ones that the first stage and Post-Single II select on."""
    raw = hermite_design(x, k)
    return raw, standardize_columns(raw, what="P column")[0]


def iterated_lasso(
    design: LassoDesign,
    y: np.ndarray,
    lam: float,
    config: LassoConfig | None = None,
) -> LassoFit:
    """Lasso with iterated penalty loadings.

    Solves once with the conservative initial loadings, then alternates
    Post-Lasso residuals and refined loadings, for ``n_loadings`` solves in
    total. Stops early on a perfect Post-Lasso fit (max |residual| below
    1e-12 sd(y), flagged), on degenerate refined loadings (flagged, last fit
    returned), or when the loadings reach a fixed point, after which every
    further round would reproduce the same solution.

    ``design`` is a one-block ``LassoDesign`` over the regressors, which
    it reads at unit root mean square, ``X``, as the solver does. A
    solve's ``ConvergenceError`` propagates.
    """
    cfg = config if config is not None else LassoConfig()
    X = unit_columns(design)
    y = np.asarray(y, dtype=float)
    xty = design.product(y)
    fit = lasso_solve(design, xty, lam, initial_loadings(design, y))
    sd_y = float(y.std())
    for _ in range(1, cfg.n_loadings):
        coef = post_lasso(X, y, fit.active_set)
        if fit.active_set.size:
            resid = y - X[:, fit.active_set] @ coef[fit.active_set]
        else:
            resid = y.copy()
        if np.max(np.abs(resid)) < 1e-12 * sd_y:
            fit = replace(fit, perfect_fit=True)
            break
        try:
            loadings = refined_loadings(design, resid)
        except DegenerateLoadingsError:
            fit = replace(fit, loadings_degenerate=True)
            break
        if np.array_equal(loadings, fit.loadings):
            break
        fit = lasso_solve(design, xty, lam, loadings)
    return fit


def build_extended_fs(P: np.ndarray) -> np.ndarray:
    """Extended first-stage dictionary: originals, pairwise sums, diffs.

    For K input columns the result has K + 2*C(K, 2) columns, ordered as
    [p_1..p_K, p_i + p_j (i < j), p_i - p_j (i < j)].
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] < 1:
        raise ValueError("P must be a 2-d matrix with at least one column")
    k = P.shape[1]
    blocks = [P]
    if k >= 2:
        ii, jj = np.triu_indices(k, 1)
        blocks.append(P[:, ii] + P[:, jj])
        blocks.append(P[:, ii] - P[:, jj])
    return np.concatenate(blocks, axis=1)


def leading_cols(bank: TargetBank, k: int) -> tuple:
    """The rows of ``bank`` that hold the first ``k`` given rows and every
    sum and difference of two of them: rows 0..k-1, then, for each pair p
    of ``bank.pairs`` with both rows below k, in pair order, the sum at
    k_given + p, then the difference at k_given + P + p, where k_given is
    the count of given rows and P that of pairs."""
    ii, jj = bank.pairs
    n_pairs = len(ii)
    k_given = len(bank.rows) - 2 * n_pairs
    within = [p for p in range(n_pairs) if ii[p] < k and jj[p] < k]
    return (*range(k), *(k_given + p for p in within),
            *(k_given + n_pairs + p for p in within))


def choose_k_bic_per_degree(data, design: LassoDesign, k_grid,
                            config: LassoConfig | None = None,
                            extended_fs: bool = False):
    """The BIC grid with one final-OLS projection per degree: each degree's
    selection on its rows of one bank, then its own ``pds_fit``."""
    cfg = config if config is not None else LassoConfig()
    k_grid = sorted(set(int(k) for k in k_grid))
    if not k_grid:
        raise ValueError("k_grid is empty")
    specs = {k: DictionarySpec("hermite_univariate", degree=k) for k in k_grid}
    bank, P_raw, refusal = selection._grid_bank(data, design, k_grid, extended_fs)
    k_ok = P_raw.shape[1]
    if k_ok < k_grid[0]:
        raise refusal
    y_bank = bank.subset([k_ok])
    fits, bics, errors = {}, {}, {}
    for k in k_grid:
        try:
            if k > k_ok:
                raise refusal
            sel = selection.post_double_select(bank.subset(leading_cols(bank, k)), y_bank, cfg)
            fit = selection.pds_fit(P_raw[:, :k], design.blocks[0], data.y, sel.union_set,
                                    spec_p=specs[k])
        except selection.FIT_ERRORS as exc:
            errors[k] = str(exc)
            continue
        fits[k] = fit
        bics[k] = selection._bic(fit)
    if not bics:
        raise selection.SelectionError("; ".join(f"K={k}: {errors[k]}" for k in k_grid))
    # ties break toward the smaller degree
    k_bic = min(bics, key=lambda k: (bics[k], k))
    k_hat = min(k_bic + 1, max(k_grid))
    if k_hat not in fits:
        k_hat = k_bic
    return selection.KGridResult(k_hat=k_hat, k_bic=k_bic, fits=fits, bics=bics,
                                 errors=errors)
