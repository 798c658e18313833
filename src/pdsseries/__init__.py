"""Post-double-selection series estimation for partially additive models.

Estimates E[y | x, z] = g(x) + h(z) where only the smooth univariate g is of
interest and z may have many more dimensions than observations. Both g and h
are expanded in series dictionaries; the terms of h's dictionary that matter
for either x's dictionary (first stage) or y (reduced form) are picked by a
weighted-penalty Lasso with iterated, data-driven loadings, and the final
step is ordinary least squares with heteroskedasticity-robust sandwich
inference for linear functionals of g.
"""

from .data import Dataset
from .dictionary import (
    DegenerateColumnError,
    DictionarySpec,
    build_design,
    build_extended_fs,
    tensor_index_set,
)
from .inference import (
    InferenceResult,
    SingularOmegaError,
    Z_CRITICAL,
    average_derivative,
    functional_by_name,
    functional_estimate,
    point_eval,
    quantile_contrast,
    rejection_test,
    sandwich_variance,
)
from .lasso import (
    ConvergenceError,
    DegenerateLoadingsError,
    LassoConfig,
    LassoDesign,
    LassoFit,
    TargetBank,
    initial_loadings,
    iterated_lasso,
    lasso_solve,
    normal_quantile,
    penalty_level,
    post_lasso,
    refined_loadings,
)
from .montecarlo import (
    DgpConfig,
    McReport,
    McRow,
    draw_toeplitz_gaussian,
    generate_sample,
    run_monte_carlo,
    true_theta,
)
from .selection import (
    ESTIMATORS,
    PdsFit,
    SelectionResult,
    choose_k_bic,
    comparison_estimators,
    first_stage_select,
    pds_fit,
    post_double_select,
    reduced_form_select,
)

__version__ = "0.1.0"
