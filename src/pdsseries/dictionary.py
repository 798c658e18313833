"""Series dictionaries: Hermite bases, tensor products, and design matrices.

Dictionaries never include a constant term; the estimation step adds a single
explicit intercept instead. Design columns handed to the selection machinery
are standardized to unit sample standard deviation, with the scales recorded
so coefficients can be mapped back to the raw basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DictionarySpec",
    "DesignMatrices",
    "DegenerateColumnError",
    "hermite_eval",
    "hermite_deriv",
    "hermite_design",
    "hermite_deriv_design",
    "tensor_index_set",
    "evaluate_dictionary",
    "dictionary_labels",
    "standardize_columns",
    "build_design",
    "build_extended_fs",
]

KINDS = (
    "hermite_univariate",
    "hermite_tensor",
    "raw_coordinates",
    "extended_sums_diffs",
)


class DegenerateColumnError(ValueError):
    """A dictionary column has zero variance on the given sample."""


@dataclass(frozen=True)
class DictionarySpec:
    """Description of an approximating dictionary.

    Parameters
    ----------
    kind : str
        One of:

        - ``"hermite_univariate"``: He_1, ..., He_K of a scalar input.
        - ``"hermite_tensor"``: products prod_j He_{m_j}(z_j) over all
          multi-indices m with 1 <= |m| <= K.
        - ``"raw_coordinates"``: the input coordinates themselves.
        - ``"extended_sums_diffs"``: a univariate Hermite base of K terms
          augmented with all pairwise sums and differences.
    degree : int
        Total-degree cap K. Ignored for ``raw_coordinates``.
    input_dim : int
        Dimension d of the input vector. Must be 1 for the univariate kinds.
    """

    kind: str
    degree: int = 0
    input_dim: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown dictionary kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.kind == "raw_coordinates":
            return
        if self.degree < 1:
            raise ValueError(f"{self.kind} requires degree >= 1")
        if self.kind in ("hermite_univariate", "extended_sums_diffs") and self.input_dim != 1:
            raise ValueError(f"{self.kind} takes a scalar input")

    @property
    def n_terms(self) -> int:
        """Number of dictionary columns (the constant is never counted)."""
        if self.kind == "hermite_univariate":
            return self.degree
        if self.kind == "hermite_tensor":
            return math.comb(self.degree + self.input_dim, self.input_dim) - 1
        if self.kind == "raw_coordinates":
            return self.input_dim
        k = self.degree
        return k + 2 * math.comb(k, 2)


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


def hermite_design(x, kmax: int) -> np.ndarray:
    """Design matrix with columns He_1(x), ..., He_kmax(x)."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    xv = np.asarray(x, dtype=float).reshape(-1)
    out = np.empty((xv.size, kmax))
    out[:, 0] = xv
    if kmax >= 2:
        prev = np.ones_like(xv)
        for k in range(1, kmax):
            nxt = xv * out[:, k - 1] - k * prev
            prev = out[:, k - 1]
            out[:, k] = nxt
    return out


def hermite_deriv_design(x, kmax: int) -> np.ndarray:
    """Matrix of derivatives He_1'(x), ..., He_kmax'(x)."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    xv = np.asarray(x, dtype=float).reshape(-1)
    out = np.empty((xv.size, kmax))
    out[:, 0] = 1.0
    if kmax >= 2:
        base = hermite_design(xv, kmax - 1)
        for k in range(2, kmax + 1):
            out[:, k - 1] = k * base[:, k - 2]
    return out


def _compositions(total: int, d: int):
    # descending lexicographic order within a fixed total degree
    if d == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, d - 1):
            yield (first,) + rest


def tensor_index_set(d: int, kmax: int) -> list[tuple[int, ...]]:
    """Multi-indices with 1 <= total degree <= kmax.

    Graded order: lower total degree first; within a grade, descending
    lexicographic. The zero index (constant term) is excluded.
    """
    if d < 1 or kmax < 1:
        raise ValueError("d and kmax must be >= 1")
    out: list[tuple[int, ...]] = []
    for deg in range(1, kmax + 1):
        out.extend(_compositions(deg, d))
    return out


def evaluate_dictionary(spec: DictionarySpec, data) -> np.ndarray:
    """Evaluate a dictionary on a sample, returning the raw (unscaled) matrix.

    ``data`` is a vector for scalar-input kinds and an (n, d) matrix
    otherwise.
    """
    if spec.kind == "hermite_univariate":
        return hermite_design(data, spec.degree)
    if spec.kind == "extended_sums_diffs":
        return build_extended_fs(hermite_design(data, spec.degree))
    Z = np.asarray(data, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != spec.input_dim:
        raise ValueError(
            f"expected an (n, {spec.input_dim}) matrix, got shape {Z.shape}"
        )
    if spec.kind == "raw_coordinates":
        return Z.copy()
    # hermite_tensor: per-coordinate univariate designs including He_0
    n, d = Z.shape
    uni = np.empty((d, n, spec.degree + 1))
    for j in range(d):
        uni[j, :, 0] = 1.0
        uni[j, :, 1:] = hermite_design(Z[:, j], spec.degree)
    indices = tensor_index_set(d, spec.degree)
    out = np.empty((n, len(indices)))
    for c, mi in enumerate(indices):
        col = np.ones(n)
        for j, m in enumerate(mi):
            if m:
                col = col * uni[j, :, m]
        out[:, c] = col
    return out


def dictionary_labels(spec: DictionarySpec, prefix: str = "q", names=None) -> list[str]:
    """Column labels for reporting.

    Tensor terms are named by their multi-index, e.g. ``q[2,0,1,0]``. Raw
    coordinates use ``names`` when given, else ``q1, q2, ...``.
    """
    if spec.kind == "hermite_univariate":
        return [f"{prefix}[{k}]" for k in range(1, spec.degree + 1)]
    if spec.kind == "hermite_tensor":
        idx = tensor_index_set(spec.input_dim, spec.degree)
        return [f"{prefix}[{','.join(map(str, mi))}]" for mi in idx]
    if spec.kind == "raw_coordinates":
        if names is not None:
            if len(names) != spec.input_dim:
                raise ValueError("names length does not match input_dim")
            return list(names)
        return [f"{prefix}{j + 1}" for j in range(spec.input_dim)]
    base = [f"{prefix}[{k}]" for k in range(1, spec.degree + 1)]
    sums = [f"{a}+{b}" for i, a in enumerate(base) for b in base[i + 1 :]]
    diffs = [f"{a}-{b}" for i, a in enumerate(base) for b in base[i + 1 :]]
    return base + sums + diffs


def standardize_columns(mat: np.ndarray, what: str = "column"):
    """Scale each column to unit sample standard deviation (no centering).

    Returns the scaled matrix and the vector of original scales. Raises
    ``DegenerateColumnError`` if any column is constant on the sample.
    """
    mat = np.asarray(mat, dtype=float)
    scales = mat.std(axis=0)
    bad = np.flatnonzero(scales == 0.0)
    if bad.size:
        raise DegenerateColumnError(
            f"{what} {bad[0]} has zero variance on this sample"
        )
    return mat / scales, scales


@dataclass
class DesignMatrices:
    """Per-sample design workspace, built once by ``build_design``.

    ``P`` (n, K) approximates g and ``Q`` (n, L) approximates h; both are
    unit-variance column-wise, and ``p_scales`` / ``q_scales`` map back to
    raw columns: raw = standardized * scale. Every Lasso of post-double
    selection runs on the same ``Q``, so its Gram ``gram = Q'Q`` and squared
    design ``sq = Q*Q`` (for the penalty loadings) are formed here once and
    shared by every equation, estimator and degree grid on the sample. No
    raw copy of ``Q`` is kept: ``q_raw(idx)`` rebuilds only the selected
    columns the final OLS needs.
    """

    P: np.ndarray
    Q: np.ndarray
    p_scales: np.ndarray
    q_scales: np.ndarray
    gram: np.ndarray
    sq: np.ndarray
    spec_p: DictionarySpec | None = None
    spec_q: DictionarySpec | None = None

    @property
    def n_p(self) -> int:
        return self.P.shape[1]

    @property
    def p_raw(self) -> np.ndarray:
        return self.P * self.p_scales

    def q_raw(self, idx) -> np.ndarray:
        """Columns ``idx`` of the conditioning dictionary in raw units."""
        idx = np.asarray(idx, dtype=int)
        return self.Q[:, idx] * self.q_scales[idx]


def build_design(spec_p: DictionarySpec, spec_q: DictionarySpec, x, Z) -> DesignMatrices:
    """Evaluate both dictionaries, standardize every column, form Q'Q and Q*Q.

    Raises ``DegenerateColumnError`` when any column is constant, naming the
    offending block and column.
    """
    P_raw = evaluate_dictionary(spec_p, x)
    Q_raw = evaluate_dictionary(spec_q, Z)
    if P_raw.shape[0] != Q_raw.shape[0]:
        raise ValueError("x and Z have different sample sizes")
    P, p_scales = standardize_columns(P_raw, what="P column")
    Q, q_scales = standardize_columns(Q_raw, what="Q column")
    # release the raw n x L block before the two workspace products
    del Q_raw
    return DesignMatrices(
        P=P,
        Q=Q,
        p_scales=p_scales,
        q_scales=q_scales,
        gram=Q.T @ Q,
        sq=Q * Q,
        spec_p=spec_p,
        spec_q=spec_q,
    )


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
