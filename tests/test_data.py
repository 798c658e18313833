"""The input rules of ``data``: one reader of whole numbers, and a sample of
finite numbers."""

import math

import numpy as np
import pytest

from pdsseries import selection
from pdsseries.data import Dataset
from pdsseries.dictionary import (
    DictionarySpec,
    hermite_deriv_design,
    hermite_design,
    tensor_index_set,
)
from pdsseries.lasso import LassoConfig
from pdsseries.montecarlo import DgpConfig, run_monte_carlo

GRID = np.linspace(-2.0, 2.0, 9)


def _monte_carlo(**counts):
    kwargs = {"n_reps": 2, **counts}
    return run_monte_carlo(DgpConfig("low_dim", 60), estimators=("oracle",), **kwargs)


# every reader of a count or a degree: (its name in the message, its minimum,
# a call that reads the value)
COUNT_SITES = {
    "LassoConfig.n_loadings": ("n_loadings", 1, lambda v: LassoConfig(n_loadings=v)),
    "DictionarySpec.input_dim": (
        "input_dim", 1, lambda v: DictionarySpec("raw_coordinates", input_dim=v)),
    "DictionarySpec.degree": (
        "degree", 1, lambda v: DictionarySpec("hermite_univariate", degree=v)),
    "DgpConfig.n": ("n", 2, lambda v: DgpConfig("low_dim", v)),
    "DgpConfig.dim_z": ("dim_z", 1, lambda v: DgpConfig("low_dim", 60, dim_z=v)),
    "k_grid": ("k_grid degree", 1, lambda v: selection._degree_grid([2, v])),
    "tensor_index_set.d": ("d", 1, lambda v: tensor_index_set(v, 2)),
    "tensor_index_set.kmax": ("kmax", 1, lambda v: tensor_index_set(2, v)),
    "hermite_design": ("kmax", 1, lambda v: hermite_design(GRID, v)),
    "hermite_deriv_design": ("kmax", 1, lambda v: hermite_deriv_design(GRID, v)),
    "run_monte_carlo.n_reps": ("n_reps", 1, lambda v: _monte_carlo(n_reps=v)),
    "run_monte_carlo.n_jobs": ("n_jobs", 1, lambda v: _monte_carlo(n_jobs=v)),
    "run_monte_carlo.base_seed": ("base_seed", 0, lambda v: _monte_carlo(base_seed=v)),
}


@pytest.mark.parametrize("site", COUNT_SITES)
@pytest.mark.parametrize("kind", ["fraction", "nan", "text", "below", "true", "false"])
def test_every_count_is_refused_with_one_message(site, kind):
    name, minimum, read = COUNT_SITES[site]
    value = {"fraction": 2.5, "nan": math.nan, "text": "3", "below": minimum - 1,
             "true": True, "false": False}[kind]
    with pytest.raises(ValueError) as err:
        read(value)
    assert str(err.value) == f"{name} must be a whole number >= {minimum}, got {value!r}"


@pytest.mark.parametrize("name", ["y", "x", "Z", "h_true"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_sample_refuses_a_value_that_is_not_finite(name, bad):
    arrays = {"y": np.ones(5), "x": np.ones(5), "Z": np.ones((5, 3)), "h_true": np.ones(5)}
    where = (3, 1) if name == "Z" else (3,)
    arrays[name][where] = bad
    arrays[name][-1] = math.nan  # a later bad entry is not the one named
    index = ", ".join(map(str, where))
    with pytest.raises(ValueError) as err:
        Dataset(**arrays)
    assert str(err.value) == f"{name} must hold finite numbers, got {bad!r} at {name}[{index}]"
