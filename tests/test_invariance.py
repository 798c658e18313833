"""Invariances of the selection estimators: changes to a sample that must
leave every selected set as it is, and theta and se as they are (or scaled
with the outcome).

Each case transforms one simulated sample (n = 500, seeds 0-4) and fits
``post_double``, ``post_double_set_ext``, ``post_single_1`` and
``post_single_2`` on it, for the average derivative:

- ``rows``: the rows of the sample permuted (both designs);
- ``z_columns``: the columns of ``Z`` permuted (high_dim, whose controls are
  the raw coordinates); the sets are compared through the permutation;
- ``z_scales``: each column of ``Z`` times its own positive factor
  (high_dim): every Lasso reads its columns at unit root mean square;
- ``y_scale``: ``y`` times a positive ``a`` (both designs): the reduced
  form's loadings and cross products scale with ``a``, its penalty with
  the loadings, so its set stays and theta and se scale by ``a``.
"""

import functools

import numpy as np
import pytest

from pdsseries.data import Dataset
from pdsseries.inference import average_derivative, functional_estimate
from pdsseries.montecarlo import DgpConfig, default_specs, generate_sample
from pdsseries.selection import comparison_estimators

ESTIMATORS = ("post_double", "post_double_set_ext", "post_single_1", "post_single_2")
CASES = [("low_dim", "rows"), ("low_dim", "y_scale"), ("high_dim", "rows"),
         ("high_dim", "z_columns"), ("high_dim", "z_scales"), ("high_dim", "y_scale")]
N = 500
Y_SCALE = 3.7
RTOL = 1e-9


def fit(design, data):
    """Selected set, theta and se of each estimator on ``data``."""
    spec_p, spec_q = default_specs(DgpConfig(design, N))
    fits, failures = comparison_estimators(data, spec_p, spec_q, estimators=ESTIMATORS)
    assert not failures, failures
    out = {}
    for name, f in fits.items():
        est = functional_estimate(f, average_derivative(f.spec_p, data.x))
        out[name] = (f.selected, est.theta_hat, est.se)
    return out


@functools.lru_cache(maxsize=None)
def base(design, seed):
    data = generate_sample(DgpConfig(design, N), np.random.default_rng(seed))
    return data, fit(design, data)


def transformed(case, data, rng):
    """The sample under ``case``, the map from its controls to the original
    ones (None for the same), and the factor theta and se scale by."""
    columns = None
    y, x, Z, h = data.y, data.x, data.Z, data.h_true
    scale = 1.0
    if case == "rows":
        rows = rng.permutation(N)
        y, x, Z, h = y[rows], x[rows], Z[rows], h[rows]
    elif case == "z_columns":
        columns = rng.permutation(Z.shape[1])
        Z = Z[:, columns]
    elif case == "z_scales":
        Z = Z * np.exp(rng.uniform(-3.0, 3.0, Z.shape[1]))
    else:
        scale = Y_SCALE
        y = scale * y
    return Dataset(y=y, x=x, Z=Z, h_true=h), columns, scale


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("design, case", CASES)
def test_selection_is_invariant(design, case, seed):
    data, want = base(design, seed)
    moved, columns, scale = transformed(case, data, np.random.default_rng(100 + seed))
    got = fit(design, moved)
    assert set(got) == set(ESTIMATORS)
    for name in ESTIMATORS:
        selected, theta, se = got[name]
        want_selected, want_theta, want_se = want[name]
        if columns is not None:
            selected = np.sort(columns[selected])
        np.testing.assert_array_equal(selected, want_selected, err_msg=name)
        np.testing.assert_allclose(theta, scale * want_theta, rtol=RTOL, atol=0.0, err_msg=name)
        np.testing.assert_allclose(se, scale * want_se, rtol=RTOL, atol=0.0, err_msg=name)
