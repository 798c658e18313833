"""Shared sample container, and two input rules that several modules share.

``check_names`` is the one check of a list of estimator or functional
names, for ``selection.comparison_estimators``,
``montecarlo.run_monte_carlo`` and the command line alike.
``_whole_number`` is the one rule for a count or a degree (of
``LassoConfig``, ``DictionarySpec``, ``DgpConfig``, a BIC degree grid,
the Hermite builders and ``run_monte_carlo``): a whole number at or above
its minimum, where 3.0 is read as 3. ``_require_whole`` refuses any other
value by a ValueError that names the parameter.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """One estimation sample.

    ``h_true`` is the confounding component evaluated at the sample points;
    it is only available for simulated data and is required by the oracle
    estimator.
    """

    y: np.ndarray
    x: np.ndarray
    Z: np.ndarray
    h_true: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        self.x = np.asarray(self.x, dtype=float).reshape(-1)
        self.Z = np.asarray(self.Z, dtype=float)
        if self.Z.ndim == 1:
            self.Z = self.Z.reshape(-1, 1)
        n = self.y.size
        if self.x.size != n or self.Z.shape[0] != n:
            raise ValueError("y, x and Z must share the sample dimension")
        if self.h_true is not None:
            self.h_true = np.asarray(self.h_true, dtype=float).reshape(-1)
            if self.h_true.size != n:
                raise ValueError("h_true length does not match the sample")

    @property
    def n(self) -> int:
        return self.y.size


def _whole_number(value, minimum: int):
    """``value`` as an int when it is a whole number >= ``minimum`` (a float
    such as 3.0 too), else None: a fraction, NaN, infinity, a string or a
    number below ``minimum``."""
    if (isinstance(value, numbers.Real) and value >= minimum
            and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        return int(value)
    return None


def _require_whole(name: str, value, minimum: int) -> int:
    """``value`` by ``_whole_number``, or a ValueError naming ``name``."""
    whole = _whole_number(value, minimum)
    if whole is None:
        raise ValueError(f"{name} must be >= {minimum} and a whole number, got {value!r}")
    return whole


def check_names(names, valid, noun: str) -> list:
    """``names`` as a list, when it is non-empty, each name is one of
    ``valid`` and none repeats; otherwise a ValueError saying which rule
    fails."""
    names = list(names)
    if not names:
        raise ValueError(f"must list at least one {noun}")
    unknown = [s for s in names if s not in valid]
    if unknown:
        raise ValueError(f"unknown {noun} names: {unknown}; valid: {', '.join(valid)}")
    repeated = sorted({s for s in names if names.count(s) > 1})
    if repeated:
        raise ValueError(f"repeated {noun} names: {repeated}")
    return names
