"""Independent reference implementations used only by the tests.

Everything here is deliberately written from first principles, without
touching the library's own solver paths, so agreement is meaningful.
``cd_solve`` is the library's former full-sweep coordinate-descent kernel,
kept unchanged as the reference for the active-set kernel that replaced it.
``workspace_of`` builds the selection workspace by hand for a matrix that
``build_design`` would standardize or reject.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from pdsseries.dictionary import DesignMatrices


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


def lasso_objective(X: np.ndarray, y: np.ndarray, coef: np.ndarray,
                    lam: float, loadings: np.ndarray) -> float:
    """Unnormalized objective sum (y - X t)^2 + lam * sum |psi_j t_j|."""
    r = y - X @ coef
    return float(r @ r + lam * np.abs(loadings * coef).sum())


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


def cd_solve(gram, xty, lam, penalty, max_iter, tol):
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


def random_instance(rng: np.random.Generator, n: int, m: int,
                    n_nonzero: int = 3, noise: float = 0.5):
    """Gaussian design with a sparse truth; returns (X, y)."""
    X = rng.standard_normal((n, m))
    beta = np.zeros(m)
    support = rng.choice(m, size=min(n_nonzero, m), replace=False)
    beta[support] = rng.standard_normal(support.size) * 2.0
    y = X @ beta + noise * rng.standard_normal(n)
    return X, y


def workspace_of(Q: np.ndarray) -> DesignMatrices:
    """The selection workspace for a conditioning block used as given.

    ``build_design`` standardizes and rejects constant columns; this hands
    the selection layer any matrix, a degenerate one included, with unit
    scales and its own ``Q'Q`` and ``Q*Q``.
    """
    Q = np.asarray(Q, dtype=float)
    n, m = Q.shape
    return DesignMatrices(P=np.empty((n, 0)), Q=Q, p_scales=np.empty(0),
                          q_scales=np.ones(m), gram=Q.T @ Q, sq=Q * Q)
