"""Sandwich-variance inference for linear functionals of the g estimate.

A functional theta = integral of a known linear map of g is estimated by
theta_hat = A' beta_hat. Its variance uses the series sandwich

    V_hat = A' Omega^{-1} Sigma Omega^{-1} A,

where Omega averages outer products of the g dictionary residualized on the
retained controls and Sigma additionally weights by squared final-OLS
residuals. The residualized dictionary is the one the final OLS made: by
Frisch-Waugh-Lovell, ``pds_fit`` regresses y on it after the same
projection and keeps it as ``PdsFit.P_resid``, so inference runs no least
squares of its own. The sandwich reads each column, and its loading, in
units of that raw column's root mean square (``PdsFit.p_rms``): V_hat does
not change, but the test for a singular Omega no longer reads the raw
Hermite scales, which grow like sqrt(k!). The reported standard error is
sqrt(V_hat / n).

A functional is chosen by name (``avg_deriv``, ``quantile_contrast`` or
``point:VALUE``) through ``functional_by_name`` alone, by the command line
and the Monte Carlo harness alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import (
    DictionarySpec,
    evaluate_dictionary,
    hermite_deriv_design,
)
from .selection import PdsFit

__all__ = [
    "Z_CRITICAL",
    "FunctionalSpec",
    "InferenceResult",
    "SingularOmegaError",
    "empirical_quantile",
    "average_derivative",
    "quantile_contrast",
    "point_eval",
    "functional_by_name",
    "sandwich_variance",
    "functional_estimate",
    "rejection_test",
]

# two-sided 5 percent normal critical value, fixed at this precision
Z_CRITICAL = 1.959964


class SingularOmegaError(np.linalg.LinAlgError):
    """The residualized second-moment matrix is numerically singular."""


@dataclass(frozen=True)
class FunctionalSpec:
    """A linear functional of g represented by its loading vector A."""

    kind: str
    A: np.ndarray


@dataclass
class InferenceResult:
    theta_hat: float
    se: float
    t_stat: float
    ci_lower: float
    ci_upper: float
    V_hat: float
    n: int


def empirical_quantile(x: np.ndarray, q: float) -> float:
    """Order-statistic quantile: the ceil(q n)-th smallest value."""
    xv = np.sort(np.asarray(x, dtype=float).reshape(-1))
    n = xv.size
    if n == 0:
        raise ValueError("empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    rank = int(np.ceil(q * n))
    return float(xv[max(rank, 1) - 1])


def average_derivative(spec_p: DictionarySpec, x) -> FunctionalSpec:
    """Average-derivative loadings A_k = mean over the sample of p_k'(x)."""
    if spec_p.kind != "hermite_univariate":
        raise ValueError("average derivative needs the univariate Hermite dictionary")
    D = hermite_deriv_design(x, spec_p.degree)
    return FunctionalSpec(kind="avg_deriv", A=D.mean(axis=0))


def quantile_contrast(spec_p: DictionarySpec, x, q_lo: float = 0.25,
                      q_hi: float = 0.75) -> FunctionalSpec:
    """Loadings for g evaluated between two empirical quantiles of x."""
    x_lo = empirical_quantile(x, q_lo)
    x_hi = empirical_quantile(x, q_hi)
    pts = evaluate_dictionary(spec_p, np.array([x_hi, x_lo]))
    return FunctionalSpec(kind="quantile_contrast", A=pts[0] - pts[1])


def point_eval(spec_p: DictionarySpec, x0: float) -> FunctionalSpec:
    """Loadings for the level of g at one point (intercept excluded)."""
    return FunctionalSpec(
        kind="point_eval", A=evaluate_dictionary(spec_p, np.array([float(x0)]))[0]
    )


def functional_by_name(name: str, spec_p: DictionarySpec, x) -> FunctionalSpec:
    """The functional named ``avg_deriv``, ``quantile_contrast`` (between the
    quartiles of ``x``) or ``point:VALUE`` (g at VALUE), for the g
    dictionary ``spec_p`` fitted on the sample ``x``."""
    if name == "avg_deriv":
        return average_derivative(spec_p, x)
    if name == "quantile_contrast":
        return quantile_contrast(spec_p, x)
    if name.startswith("point:"):
        return point_eval(spec_p, float(name[6:]))
    raise ValueError(
        f"unknown functional {name!r}: expected avg_deriv, quantile_contrast or point:VALUE")


def sandwich_variance(P_resid: np.ndarray, residuals: np.ndarray,
                      A: np.ndarray):
    """Variance of A' beta_hat on the per-observation scale.

    Returns (V_hat, Omega, Sigma). V_hat is assembled as a sum of squares,
    so it cannot go negative in floating point. Raises
    ``SingularOmegaError`` when Omega is numerically singular, naming the
    offending eigenvalue.
    """
    U = np.asarray(P_resid, dtype=float)
    r = np.asarray(residuals, dtype=float)
    A = np.asarray(A, dtype=float)
    n = U.shape[0]
    omega = U.T @ U / n
    omega = (omega + omega.T) / 2.0
    sigma = (U * r[:, None] ** 2).T @ U / n
    sigma = (sigma + sigma.T) / 2.0
    eigvals = np.linalg.eigvalsh(omega)
    min_eig = float(eigvals[0])
    if min_eig <= 1e-12 * max(1.0, float(eigvals[-1])):
        raise SingularOmegaError(
            f"residualized second-moment matrix is singular: "
            f"smallest eigenvalue {min_eig:.6e}"
        )
    w = np.linalg.solve(omega, A)
    v_hat = float(np.mean((U @ w) ** 2 * r**2))
    return v_hat, omega, sigma


def functional_estimate(fit: PdsFit, functional: FunctionalSpec) -> InferenceResult:
    """Point estimate, standard error and 95 percent interval for A' beta."""
    A = np.asarray(functional.A, dtype=float)
    if A.shape[0] != fit.beta_hat.shape[0]:
        raise ValueError("functional loadings do not match the g dictionary")
    theta = float(A @ fit.beta_hat)
    rms = fit.p_rms
    zero = np.flatnonzero(rms == 0.0)
    if zero.size:
        raise SingularOmegaError(
            f"residualized second-moment matrix is singular: "
            f"g column {zero[0]} is zero on this sample"
        )
    # unit-RMS raw columns: V_hat is unchanged, Omega's scales are not sqrt(k!)
    v_hat, _, _ = sandwich_variance(fit.P_resid / rms, fit.residuals, A / rms)
    n = fit.n
    se = float(np.sqrt(v_hat / n))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stat = theta / se if se > 0 else float("inf") * np.sign(theta or 1.0)
    return InferenceResult(
        theta_hat=theta,
        se=se,
        t_stat=float(t_stat),
        ci_lower=theta - Z_CRITICAL * se,
        ci_upper=theta + Z_CRITICAL * se,
        V_hat=v_hat,
        n=n,
    )


def rejection_test(result: InferenceResult, theta0: float) -> bool:
    """Two-sided 5 percent test of theta = theta0."""
    if not result.se > 0:
        raise ValueError("standard error is zero; the test is undefined")
    return bool(abs(result.theta_hat - theta0) / result.se > Z_CRITICAL)
