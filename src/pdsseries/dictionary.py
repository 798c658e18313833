"""Series dictionaries: Hermite bases, tensor products, and design matrices.

Dictionaries never include a constant term; the estimation step adds a single
explicit intercept instead. ``build_design`` returns the conditioning
dictionary ``Q`` as one per-sample workspace: the one-block ``LassoDesign``
that every Lasso on the sample shares, holding ``Q`` in raw units, with no
scaled copy, and reading each column at unit root mean square (the weighted
Lasso selects the same set on any positive rescaling of its columns). The
g dictionary is not part of it: its degree changes from fit to fit, so each
estimator builds its g block, He_1..He_K of ``x`` at the degree it fits, by
``g_block``. Both dictionaries refuse a column by one rule, ``_usable``: a
column is degenerate when it is constant, every entry equal to its first
(``_constant_columns``), or when its scale underflows to 0, and out of range
when its scale overflows.

A Hermite tensor column is the left-to-right product of its univariate
factors, and columns that share leading factors share those products: at
d = 4, K = 10 the 1000 columns come from 11, 66 and 286 distinct prefixes.
``evaluate_dictionary`` forms each level of prefixes with one gather and
one multiply, 64 rows at a time, straight into the (n, L) output, from an
index plan cached per (d, K).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import _require_whole
from .lasso import LassoDesign, _paired

__all__ = [
    "DictionarySpec",
    "DegenerateColumnError",
    "hermite_design",
    "hermite_deriv_design",
    "tensor_index_set",
    "evaluate_dictionary",
    "dictionary_labels",
    "standardize_columns",
    "build_design",
    "build_extended_fs",
    "g_block",
]

KINDS = ("hermite_univariate", "hermite_tensor", "raw_coordinates")
# rows per block of the tensor evaluation and of the constant-column check
_ROW_BLOCK = 64
# the largest L * d**2 of a Hermite tensor (L columns on d inputs) that is
# built: it caps the L * d entries of its index set, which the set and its
# plan take time in proportion to, at 1e8 / d; (d, K) = (10, 12), 6.5e6
# entries, takes about 3 s on a 2-vCPU host with Python 3.11
_TENSOR_WORK = 10**8


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
    degree : int
        Total-degree cap K. Ignored for ``raw_coordinates``.
    input_dim : int
        Dimension d of the input vector. Must be 1 for ``hermite_univariate``.
    """

    kind: str
    degree: int = 0
    input_dim: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown dictionary kind {self.kind!r}")
        object.__setattr__(self, "input_dim", _require_whole("input_dim", self.input_dim, 1))
        if self.kind == "raw_coordinates":
            return
        object.__setattr__(self, "degree", _require_whole("degree", self.degree, 1))
        if self.kind == "hermite_univariate" and self.input_dim != 1:
            raise ValueError(f"{self.kind} takes a scalar input")

    @property
    def n_terms(self) -> int:
        """Number of dictionary columns (the constant is never counted)."""
        if self.kind == "hermite_univariate":
            return self.degree
        if self.kind == "hermite_tensor":
            return math.comb(self.degree + self.input_dim, self.input_dim) - 1
        return self.input_dim


def hermite_design(x, kmax: int) -> np.ndarray:
    """Design matrix with columns He_1(x), ..., He_kmax(x).

    Raises ``ValueError`` naming the first degree whose column is not
    finite or has a sum of squares that overflows, as at a high degree:
    no fit can standardize or regress on such a column.
    """
    kmax = _require_whole("kmax", kmax, 1)
    out, k_ok = _hermite_columns(x, kmax)
    if k_ok < kmax:
        raise _out_of_range(f"Hermite term He_{k_ok + 1}")
    return out


def _out_of_range(name: str) -> ValueError:
    """The error of a column, such as Hermite term He_k, that no fit can use
    because it or its squares overflow."""
    return ValueError(f"{name} is out of floating-point range on this sample")


# an overflow is reported once, by the caller, not warned per degree
@np.errstate(over="ignore", invalid="ignore")
def _hermite_columns(x, kmax: int):
    """He_1(x), ..., He_kmax(x) as columns, and the count of columns before
    the first one that is not finite or whose sum of squares overflows
    (``kmax`` when there is none)."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    out = np.empty((xv.size, kmax))
    out[:, 0] = xv
    if kmax >= 2:
        prev = np.ones_like(xv)
        for k in range(1, kmax):
            nxt = xv * out[:, k - 1] - k * prev
            prev = out[:, k - 1]
            out[:, k] = nxt
    finite = np.isfinite(np.einsum("ij,ij->j", out, out))
    return out, kmax if finite.all() else int(np.argmin(finite))


def hermite_deriv_design(x, kmax: int) -> np.ndarray:
    """Matrix of derivatives He_1'(x), ..., He_kmax'(x)."""
    kmax = _require_whole("kmax", kmax, 1)
    xv = np.asarray(x, dtype=float).reshape(-1)
    out = np.empty((xv.size, kmax))
    out[:, 0] = 1.0
    if kmax >= 2:
        base = hermite_design(xv, kmax - 1)
        for k in range(2, kmax + 1):
            out[:, k - 1] = k * base[:, k - 2]
    return out


def _compositions(total: int, d: int) -> np.ndarray:
    """The compositions of ``total`` into ``d`` parts, one per row, in
    descending lexicographic order. By stars and bars, part i is the gap
    between bars i - 1 and i of d - 1 bars among total + d - 1 places, and
    the bars' places, in descending order, give the parts in that order."""
    bars = np.array(list(itertools.combinations(range(total + d - 1), d - 1)),
                    dtype=np.intp)[::-1]
    ends = np.full((len(bars), d + 1), -1, dtype=np.intp)
    ends[:, 1:-1], ends[:, -1] = bars, total + d - 1
    return np.diff(ends, axis=1) - 1


def _check_tensor_size(d: int, kmax: int) -> None:
    """Refuse, by a ``ValueError``, a Hermite tensor of degree ``kmax`` on
    ``d`` inputs whose L columns have L * d**2 above ``_TENSOR_WORK``."""
    n_terms = math.comb(kmax + d, d) - 1
    if n_terms * d * d > _TENSOR_WORK:
        raise ValueError(
            f"a Hermite tensor of degree K={kmax} on d={d} inputs has L={n_terms} "
            f"columns, and L*d^2 exceeds {_TENSOR_WORK:.0e}; "
            "use the raw coordinates as the conditioning dictionary")


def tensor_index_set(d: int, kmax: int) -> list[tuple[int, ...]]:
    """Multi-indices with 1 <= total degree <= kmax.

    Graded order: lower total degree first; within a grade, descending
    lexicographic. The zero index (constant term) is excluded. A set too
    large to build is refused by ``_check_tensor_size`` before any index is
    enumerated.
    """
    d, kmax = _require_whole("d", d, 1), _require_whole("kmax", kmax, 1)
    _check_tensor_size(d, kmax)
    grid = np.concatenate([_compositions(deg, d) for deg in range(1, kmax + 1)])
    return list(map(tuple, grid.tolist()))


@functools.lru_cache(maxsize=8)
def _tensor_plan(d: int, kmax: int):
    """How ``_hermite_tensor`` forms the columns of one (d, K).

    Column (m_1, ..., m_d) is the left-to-right product
    He_{m_1}(z_1) He_{m_2}(z_2) ... He_{m_d}(z_d). A j-prefix is the product
    of its first j factors; the 1-prefixes are He_0..He_K(z_1). Level j
    stacks He_0..He_K(z_j) under the ``n_prev`` (j-1)-prefixes and forms
    its j-prefixes with one gather and one multiply: the first half of
    ``gather`` picks each one's (j-1)-prefix, the second half its factor
    He_{m_j}(z_j) at ``n_prev + m_j``.

    Below the last level, the j-prefixes are every j-index of total degree
    at most K, in ascending lexicographic order: each (j-1)-prefix in its
    order, followed by each degree m up to K less its total, so one
    extended by m is at slot ``first[parent] + m``. The last level's
    j-prefixes are the columns, in ``indices`` order, and each column's
    (d-1)-prefix is found by following those slots along its index.

    Returns ``indices`` (``tensor_index_set`` as a tuple) and, for levels
    2..d, the pairs ``(n_prev, gather)``.
    """
    indices = tuple(tensor_index_set(d, kmax))
    grid = np.array(indices, dtype=np.intp)
    total = np.arange(kmax + 1)  # the total degree of each 1-prefix
    slot = grid[:, 0]  # each column's 1-prefix
    levels = []
    for j in range(2, d + 1):
        n_prev = total.size
        if j < d:
            width = kmax + 1 - total
            first = np.cumsum(width) - width
            parent = np.repeat(np.arange(n_prev), width)
            m = np.arange(parent.size) - first[parent]
            total = total[parent] + m
            slot = first[slot] + grid[:, j - 1]
        else:
            parent, m = slot, grid[:, -1]
        gather = np.concatenate([parent, n_prev + m])
        gather.setflags(write=False)
        levels.append((n_prev, gather))
    return indices, tuple(levels)


def _hermite_tensor(Z: np.ndarray, kmax: int) -> np.ndarray:
    """The Hermite tensor columns of Z by ``_tensor_plan``, ``_ROW_BLOCK``
    rows at a time.

    Each block's prefixes are held one per row, so every gather copies
    contiguous rows; the last multiply writes the block's rows of the
    (n, L) output. A factor He_0 = 1.0 is exact, so every column has the
    bits of its product over the nonzero degrees alone.
    """
    n, d = Z.shape
    if d == 1:
        return hermite_design(Z[:, 0], kmax)
    indices, levels = _tensor_plan(d, kmax)
    # the output before the temporaries: freed, they leave the room just
    # after it, where build_design's Q*Q then goes, so a loop of samples
    # reuses one region (allocated after them, a third n x L block of peak
    # RSS appeared at the second sample at n = L = 1000)
    out = np.empty((n, len(indices)))
    uni = np.empty((d, kmax + 1, n))  # uni[j, m] = He_m(z_j)
    for j in range(d):
        uni[j, 0] = 1.0
        uni[j, 1:] = hermite_design(Z[:, j], kmax).T
    block = max(1, min(_ROW_BLOCK, n))
    n_last, last = levels[-1]  # the largest level
    n_src, n_pairs = n_last + kmax + 1, len(last)
    src_buf, pairs_buf = np.empty(n_src * block), np.empty(n_pairs * block)
    for r0 in range(0, n, block):
        r1 = min(r0 + block, n)
        src = src_buf[:n_src * (r1 - r0)].reshape(n_src, r1 - r0)
        pairs = pairs_buf[:n_pairs * (r1 - r0)].reshape(n_pairs, r1 - r0)
        src[:kmax + 1] = uni[0, :, r0:r1]
        for j, (n_prev, gather) in enumerate(levels, start=2):
            src[n_prev:n_prev + kmax + 1] = uni[j - 1, :, r0:r1]
            w = len(gather) // 2
            # mode "clip": the default "raise" copies through a buffer
            np.take(src[:n_prev + kmax + 1], gather, axis=0, out=pairs[:2 * w], mode="clip")
            dest = out[r0:r1].T if j == d else src[:w]
            np.multiply(pairs[:w], pairs[w:2 * w], out=dest)
    return out


def evaluate_dictionary(spec: DictionarySpec, data) -> np.ndarray:
    """Evaluate a dictionary on a sample, returning the raw (unscaled) matrix.

    ``data`` is a vector for ``hermite_univariate`` and an (n, d) matrix
    otherwise. Raw coordinates are ``data`` itself when it is a C-ordered
    float array, and a C-ordered copy, so of one layout's bits, otherwise.
    """
    if spec.kind == "hermite_univariate":
        return hermite_design(data, spec.degree)
    Z = _coordinates(spec, data)
    if spec.kind == "raw_coordinates":
        return np.ascontiguousarray(Z)
    return _hermite_tensor(Z, spec.degree)


def _coordinates(spec: DictionarySpec, data) -> np.ndarray:
    """``data`` as the float (n, d) matrix ``spec`` takes, refused by a
    ``ValueError`` when it does not fit: d other than ``spec.input_dim``, or
    a Hermite tensor on it too large to build (``_check_tensor_size``). The
    refusals depend on the shapes only, not on the sample's values."""
    Z = np.asarray(data, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != spec.input_dim:
        raise ValueError(
            f"expected an (n, {spec.input_dim}) matrix, got shape {Z.shape}"
        )
    if spec.kind == "hermite_tensor":
        _check_tensor_size(spec.input_dim, spec.degree)
    return Z


def dictionary_labels(spec: DictionarySpec, prefix: str = "q", names=None,
                      columns=None) -> list[str]:
    """Column labels for reporting.

    Tensor terms are named by their multi-index, e.g. ``q[2,0,1,0]``. Raw
    coordinates use ``names`` when given, else ``q1, q2, ...``. With
    ``columns``, only those columns are labelled, in that order.
    """
    if spec.kind == "hermite_tensor":
        terms, _ = _tensor_plan(spec.input_dim, spec.degree)
        if columns is not None:
            terms = [terms[j] for j in columns]
        return [f"{prefix}[{','.join(map(str, mi))}]" for mi in terms]
    if spec.kind == "hermite_univariate":
        labels = [f"{prefix}[{k}]" for k in range(1, spec.degree + 1)]
    elif names is not None:
        if len(names) != spec.input_dim:
            raise ValueError("names length does not match input_dim")
        labels = list(names)
    else:
        labels = [f"{prefix}{j + 1}" for j in range(spec.input_dim)]
    return labels if columns is None else [labels[j] for j in columns]


def _constant_columns(mat: np.ndarray) -> np.ndarray:
    """Whether each column of ``mat`` is constant: every entry equal to its
    first.

    The test is exact, unlike ``std == 0``, which misses a constant column
    whose mean does not round-trip (a column of 0.1 in 500 rows has
    ``std(axis=0)`` 8.7e-16).
    It reads ``_ROW_BLOCK`` rows at a time, and stops as soon as no column
    can still be constant, so on most samples it reads one block.
    """
    same = np.ones(mat.shape[1], dtype=bool)
    for r0 in range(1, mat.shape[0], _ROW_BLOCK):
        if not same.any():
            break
        same &= (mat[r0:r0 + _ROW_BLOCK] == mat[0]).all(axis=0)
    return same


def _usable(mat: np.ndarray, scales: np.ndarray, what: str):
    """The count of columns of ``mat`` before the first that is constant
    (``_constant_columns``) or whose entry of ``scales`` is 0 or not finite,
    and the error naming that column, or None when there is none: the one
    rule by which every dictionary refuses a column. The error is a
    ``DegenerateColumnError`` for a constant column or a scale of 0, and
    ``_out_of_range``'s for a scale that overflows."""
    degenerate = _constant_columns(mat) | (scales == 0.0)
    bad = np.flatnonzero(degenerate | ~np.isfinite(scales))
    if not bad.size:
        return mat.shape[1], None
    j = int(bad[0])
    if degenerate[j]:
        return j, DegenerateColumnError(f"{what} {j} has zero variance on this sample")
    return j, _out_of_range(f"{what} {j}")


def standardize_columns(mat: np.ndarray, what: str = "column"):
    """Scale each column to unit sample standard deviation (no centering).

    Returns a new scaled matrix and the vector of original scales, the
    bits of ``mat.std(axis=0)``; ``mat`` is not written. Raises
    ``DegenerateColumnError``, naming the first, if any column is constant
    on the sample or its standard deviation is 0, and a ``ValueError``
    naming the first whose standard deviation overflows. No fit calls it: the
    workspace reads ``Q`` in raw units and the g dictionary is scaled where
    it is built.
    """
    mat = np.asarray(mat, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        scales = mat.std(axis=0)
    _, refusal = _usable(mat, scales, what)
    if refusal is not None:
        raise refusal
    return mat / scales, scales


def g_block(x, k: int):
    """He_1..He_k of ``x`` up to the first column no fit can use: the raw
    columns every final OLS reads, and the standardized columns (by the
    ``std(axis=0)`` scales) that the first stage and Post-Single II select
    on.

    Returns ``(P_raw, P, refusal)``, each block of the first ``k_ok``
    columns, those before the first degenerate column or the first that
    overflows (``hermite_design``'s test), whichever comes first. A column
    is degenerate by ``_usable`` on its standard deviation: constant, or
    with entries so close together that their centred squares underflow.
    ``refusal`` is the error that every degree above ``k_ok`` fails with,
    naming that column, or None when ``k_ok = k``.
    """
    P_raw, k_finite = _hermite_columns(x, k)
    P_raw = P_raw[:, :k_finite]
    scales = P_raw.std(axis=0)
    k_ok, refusal = _usable(P_raw, scales, "P column")
    if refusal is None and k_finite < k:
        refusal = _out_of_range(f"Hermite term He_{k_finite + 1}")
    return P_raw[:, :k_ok], P_raw[:, :k_ok] / scales[:k_ok], refusal


def build_design(spec_q: DictionarySpec, Z) -> LassoDesign:
    """Evaluate the conditioning dictionary, refuse a degenerate column, and
    return the sample's workspace: the ``LassoDesign`` whose one block,
    ``blocks[0]``, is ``Q`` in raw units.

    The design reads ``Q`` at unit root mean square without a scaled copy,
    holds ``Q*Q`` for the penalty loadings, and stores the rows of ``Q'Q``,
    each formed the first time its column enters any solve on the sample
    and kept for every later equation, estimator and degree grid, so
    ``Q'Q`` is never formed whole; the store starts empty. Post-Single II's
    ``LassoDesign(P, design)`` reads its g dictionary and this design as
    column blocks, reusing ``Q*Q``, the scales and the stored rows. Every
    final OLS is handed ``blocks[0]`` whole, with the selected indices.

    Raw coordinates are ``Z`` itself when ``Z`` is a C-ordered float array
    (``evaluate_dictionary``), and the workspace then reads ``Z``: a later
    change to ``Z`` changes it. Raises ``DegenerateColumnError``, naming
    the first, when a column is constant or its squares sum to zero
    (``_usable`` on the Gram diagonal), so that the design would read it
    as a zero column, and a ``ValueError`` naming the first column whose
    squares overflow, which the design gives a NaN diagonal.
    """
    Q = evaluate_dictionary(spec_q, Z)
    design = LassoDesign(Q)
    _, refusal = _usable(Q, design.diag, "Q column")
    if refusal is not None:
        raise refusal
    return design


def build_extended_fs(P: np.ndarray) -> np.ndarray:
    """Extended first-stage dictionary: originals, pairwise sums, diffs.

    For K input columns the result has K + 2*C(K, 2) columns: the columns
    of P and then those of every pair i < j, in the layout of
    ``TargetBank.of(P.T, design, paired=K)``, formed by the bank's own
    routine.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] < 1:
        raise ValueError("P must be a 2-d matrix with at least one column")
    return _paired(P.T, *np.triu_indices(P.shape[1], 1)).T
