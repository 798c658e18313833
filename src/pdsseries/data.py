"""Shared sample container, and two input rules that several modules share.

A ``Dataset`` holds only finite numbers: a NaN or an infinity in ``y``,
``x``, ``Z`` or ``h_true`` is refused when the sample is made, by a
ValueError that names the array and the first bad index.

``check_names`` is the one check of a list of estimator or functional
names, for ``selection.comparison_estimators``,
``montecarlo.run_monte_carlo`` and the command line alike; a bare string
is refused, not read letter by letter. ``_require_whole`` is the one
reader of a count or a degree (of ``LassoConfig``, ``DictionarySpec``,
``DgpConfig``, a BIC degree grid, ``tensor_index_set``, the Hermite
builders and ``run_monte_carlo``): a whole number at or above its minimum,
where 3.0 is read as 3 and a bool is not a number. Any other value is
refused by one message, ``{name} must be a whole number >= {minimum}, got
{value!r}``.
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
    estimator. Every entry of ``y``, ``x``, ``Z`` and ``h_true`` must be
    finite.
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
        for name in ("y", "x", "Z", "h_true"):
            arr = getattr(self, name)
            if arr is not None and not np.isfinite(arr).all():
                first = np.argwhere(~np.isfinite(arr))[0].tolist()
                raise ValueError(f"{name} must hold finite numbers, got "
                                 f"{float(arr[tuple(first)])!r} at {name}{first}")

    @property
    def n(self) -> int:
        return self.y.size


def _require_whole(name: str, value, minimum: int) -> int:
    """``value`` as an int when it is a whole number >= ``minimum`` (a float
    such as 3.0 too); a fraction, NaN, infinity, a string, a bool or a
    number below ``minimum`` is refused by a ValueError naming ``name``."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and value >= minimum
            and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        return int(value)
    raise ValueError(f"{name} must be a whole number >= {minimum}, got {value!r}")


def check_names(names, valid, noun: str) -> list:
    """``names`` as a list, when it is a non-empty collection (not a bare
    string), each name is one of ``valid`` and none repeats; otherwise a
    ValueError saying which rule fails."""
    if isinstance(names, str):
        raise ValueError(f"{noun} names must be a list of names, not the string {names!r}")
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
