"""Weighted-penalty Lasso with data-driven penalty loadings.

The objective is kept in unnormalized sum-of-squares form,

    sum_i (y_i - x_i' t)^2 + lam * sum_j |psi_j t_j|,

so the penalty level lam = 2 c sqrt(n) Phi^{-1}(1 - gamma / (2 M)) and the
loadings psi_j = sqrt(mean(x_j^2 e^2)) carry their conventional scaling.
Loadings are refined iteratively from Post-Lasso residuals. Both loadings
formulas are one matrix-vector product against the squared design ``X*X``,
which callers sharing one design compute once and pass down.

The solver is active-set cyclic coordinate descent on the Gram system: the
covariance-update scheme of glmnet (Friedman, Hastie & Tibshirani 2010,
J. Stat. Softw. 33(1)), where sweeps run over the active coordinates only
and one vectorised check of the subgradient (KKT) conditions over the
inactive coordinates decides which enter, as in the strong rules of
Tibshirani et al. (2012, J. R. Stat. Soc. B 74(2)). The solve ends when a
screen finds no violator, so at a converged solution every inactive
coordinate meets its KKT condition exactly and every active one to the
sweep tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "LassoConfig",
    "LassoFit",
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
        if self.c <= 0:
            raise ValueError("c must be positive")
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
    stage: str = "reduced_form",
) -> float:
    """Penalty level 2 c sqrt(n) Phi^{-1}(1 - gamma / (2 M)).

    ``M = n_targets * n_regressors`` counts the moment conditions being
    controlled: ``n_targets`` is the number of Lasso regressions run at this
    level (K for the first stage, 1 for a single equation) and
    ``n_regressors`` the regressor count per equation.
    """
    if stage not in ("first_stage", "reduced_form"):
        raise ValueError(f"unknown stage {stage!r}")
    if stage == "reduced_form" and n_targets != 1:
        raise ValueError("reduced_form has a single target equation")
    if n < 1 or n_targets < 1 or n_regressors < 1:
        raise ValueError("n, n_targets and n_regressors must be >= 1")
    cfg = config if config is not None else LassoConfig()
    gamma = cfg.gamma if cfg.gamma is not None else default_gamma(n, n_targets, n_regressors)
    tail = gamma / (2.0 * n_targets * n_regressors)
    if tail >= 1.0:
        raise ValueError("gamma / (2 M) must be below 1")
    return 2.0 * cfg.c * math.sqrt(n) * normal_quantile(1.0 - tail)


def initial_loadings(X: np.ndarray, target: np.ndarray,
                     sq: np.ndarray | None = None) -> np.ndarray:
    """Conservative start psi_j = sqrt(mean(x_j^2 (t_i - tbar)^2)).

    ``sq`` is the squared design ``X*X``; pass it to reuse one copy across
    calls on the same design.
    """
    t = np.asarray(target, dtype=float)
    if sq is None:
        X = np.asarray(X, dtype=float)
        sq = X * X
    dev2 = (t - t.mean()) ** 2
    loadings = np.sqrt(dev2 @ sq / t.shape[0])
    if not loadings.any():
        raise DegenerateLoadingsError("all initial loadings are zero")
    return loadings


def refined_loadings(X: np.ndarray, residuals: np.ndarray,
                     sq: np.ndarray | None = None) -> np.ndarray:
    """Residual-based loadings psi_j = sqrt(mean(x_j^2 e_i^2)).

    ``sq`` is the squared design ``X*X``, as in ``initial_loadings``.
    """
    e2 = np.asarray(residuals, dtype=float) ** 2
    if sq is None:
        X = np.asarray(X, dtype=float)
        sq = X * X
    loadings = np.sqrt(e2 @ sq / e2.shape[0])
    if not loadings.any():
        raise DegenerateLoadingsError("all refined loadings are zero")
    return loadings


def _cd_solve(gram: np.ndarray, xty: np.ndarray, thr: np.ndarray,
              max_iter: int, tol: float):
    """Active-set cyclic coordinate descent on the Gram system.

    The covariance-update scheme of Friedman, Hastie & Tibshirani (2010),
    with each screen a full KKT check as in Tibshirani et al. (2012).
    Minimizes sum (y - X t)^2 + 2 sum_j thr_j |t_j| given ``gram = X'X`` and
    ``xty = X'y``, starting from t = 0. Each round screens the inactive
    coordinates at once: j enters when |xty_j - q_j| > thr_j, with
    q = gram @ t, which is exactly when its coordinate update would move it
    off zero. Columns with a zero diagonal never enter. Sweeps then run
    over the active coordinates only, updating q on the active block,
    until the largest coefficient change in a sweep is at most ``tol``;
    q is then refreshed in full from the active rows of ``gram`` and the
    next screen runs. The solve ends when a screen admits nothing.

    Returns (coef, sweeps, converged). ``sweeps`` counts active-set sweeps
    over all rounds and is capped at ``max_iter``; ``converged`` is False
    when the cap stopped a round before its sweeps met ``tol``.
    """
    m = xty.shape[0]
    coef = np.zeros(m)
    q = np.zeros(m)
    usable = np.diagonal(gram) > 0.0
    active = np.zeros(m, dtype=bool)
    sweeps = 0
    while True:
        entering = usable & ~active & (np.abs(xty - q) > thr)
        if not entering.any():
            return coef, sweeps, True
        active |= entering
        idx = np.flatnonzero(active)
        block = gram[np.ix_(idx, idx)]
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
        q = coef[idx] @ gram[idx]


def lasso_solve(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    loadings: np.ndarray,
    config: LassoConfig | None = None,
    gram: np.ndarray | None = None,
    xty: np.ndarray | None = None,
) -> LassoFit:
    """Solve one weighted-penalty Lasso by active-set coordinate descent.

    ``gram`` and ``xty`` may be supplied to reuse precomputed cross products
    (the Gram matrix of a shared regressor block in particular). The fit
    reports ``converged = False`` when ``cd_max_iter`` sweeps were not
    enough; ``iterated_lasso`` turns that into a ``ConvergenceError``.
    """
    cfg = config if config is not None else LassoConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    loadings = np.asarray(loadings, dtype=float)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if loadings.shape[0] != X.shape[1]:
        raise ValueError("loadings length does not match column count")
    if np.any(loadings <= 0.0):
        raise ValueError("loadings must be positive; degenerate columns upstream")
    if gram is None:
        gram = X.T @ X
    if xty is None:
        xty = X.T @ y
    coef, sweeps, converged = _cd_solve(
        np.asarray(gram, dtype=float), np.asarray(xty, dtype=float),
        0.5 * float(lam) * loadings, cfg.cd_max_iter, cfg.cd_tol,
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


def iterated_lasso(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    config: LassoConfig | None = None,
    gram: np.ndarray | None = None,
    sq: np.ndarray | None = None,
) -> LassoFit:
    """Lasso with iterated penalty loadings.

    Solves once with the conservative initial loadings, then alternates
    Post-Lasso residuals and refined loadings, for ``n_loadings`` solves in
    total. Stops early on a perfect Post-Lasso fit (max |residual| below
    1e-12 sd(y), flagged), on degenerate refined loadings (flagged, last fit
    returned), or when the loadings reach a fixed point, after which every
    further round would reproduce the same solution.

    ``gram`` (``X'X``) and ``sq`` (``X*X``) may be supplied to share them
    across calls on the same design; each is computed once when omitted.
    Raises ``ConvergenceError`` when the solve behind the returned fit hit
    ``cd_max_iter``.
    """
    cfg = config if config is not None else LassoConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if gram is None:
        gram = X.T @ X
    if sq is None:
        sq = X * X
    xty = X.T @ y
    fit = lasso_solve(X, y, lam, initial_loadings(X, y, sq), cfg, gram=gram, xty=xty)
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
            loadings = refined_loadings(X, resid, sq)
        except DegenerateLoadingsError:
            fit = replace(fit, loadings_degenerate=True)
            break
        if np.array_equal(loadings, fit.loadings):
            break
        fit = lasso_solve(X, y, lam, loadings, cfg, gram=gram, xty=xty)
    if not fit.converged:
        raise ConvergenceError(
            f"coordinate descent did not converge within cd_max_iter="
            f"{cfg.cd_max_iter} sweeps"
        )
    return fit
