"""Series dictionaries: Hermite bases, tensor products, and design matrices.

Dictionaries never include a constant term; the estimation step adds a single
explicit intercept instead. ``build_design`` returns the conditioning
dictionary ``Q`` as one per-sample workspace: the one-block ``LassoDesign``
that every Lasso on the sample shares, holding ``Q`` in raw units, with no
scaled copy, and reading each column at unit root mean square (the weighted
Lasso selects the same set on any positive rescaling of its columns). The
g dictionary is not part of it: its degree changes from fit to fit, so each
estimator evaluates He_1..He_K of ``x`` at the degree it fits. A column is
refused as degenerate when it is constant, every entry equal to its first
(``_constant_columns``, one exact rule for ``Q`` and for the g dictionary),
or when its scale underflows to 0.

A Hermite tensor column is the left-to-right product of its univariate
factors, and columns that share leading factors share those products: at
d = 4, K = 10 the 1000 columns come from 11, 66 and 286 distinct prefixes.
``evaluate_dictionary`` forms each level of prefixes with one gather and
one multiply, 64 rows at a time, straight into the (n, L) output, from an
index plan cached per (d, K). Raw coordinates are read straight from
``Z``, without the copy that ``evaluate_dictionary`` returns.
"""

from __future__ import annotations

import functools
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
]

KINDS = ("hermite_univariate", "hermite_tensor", "raw_coordinates")
# rows per block of the tensor evaluation and of the constant-column check
_ROW_BLOCK = 64
# the largest L * d**2 of a Hermite tensor (L columns on d inputs) that is
# built: its index plan takes about that many steps, about 2 s at the bound
# on a 2-vCPU host with Python 3.11
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
        raise _out_of_range(k_ok + 1)
    return out


def _out_of_range(k: int) -> ValueError:
    """The error of a Hermite column He_k that no fit can use."""
    return ValueError(f"Hermite term He_{k} is out of floating-point range on this sample")


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


def _compositions(total: int, d: int):
    # descending lexicographic order within a fixed total degree
    if d == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, d - 1):
            yield (first,) + rest


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
    out: list[tuple[int, ...]] = []
    for deg in range(1, kmax + 1):
        out.extend(_compositions(deg, d))
    return out


@functools.lru_cache(maxsize=8)
def _tensor_plan(d: int, kmax: int):
    """How ``_hermite_tensor`` forms the columns of one (d, K).

    Column (m_1, ..., m_d) is the left-to-right product
    He_{m_1}(z_1) He_{m_2}(z_2) ... He_{m_d}(z_d). A j-prefix is the product
    of its first j factors; the 1-prefixes are He_0..He_K(z_1). Level j
    stacks He_0..He_K(z_j) under the ``n_prev`` distinct (j-1)-prefixes and
    forms every distinct j-prefix with one gather and one multiply: the
    first half of ``gather`` picks each one's (j-1)-prefix, the second half
    its factor He_{m_j}(z_j) at ``n_prev + m_j``. The last level's
    j-prefixes are the columns, in ``indices`` order.

    Returns ``indices`` (``tensor_index_set`` as a tuple) and, for levels
    2..d, the pairs ``(n_prev, gather)``.
    """
    indices = tuple(tensor_index_set(d, kmax))
    slot = {(m,): m for m in range(kmax + 1)}  # level 1: the rows He_m(z_1)
    levels = []
    for j in range(2, d + 1):
        targets = indices if j == d else sorted({mi[:j] for mi in indices})
        n_prev = len(slot)
        gather = np.array([slot[t[:-1]] for t in targets]
                          + [n_prev + t[-1] for t in targets], dtype=np.intp)
        gather.setflags(write=False)
        levels.append((n_prev, gather))
        slot = {t: i for i, t in enumerate(targets)}
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
    otherwise.
    """
    if spec.kind == "hermite_univariate":
        return hermite_design(data, spec.degree)
    Z = _coordinates(spec, data)
    if spec.kind == "raw_coordinates":
        return Z.copy()
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


def standardize_columns(mat: np.ndarray, what: str = "column"):
    """Scale each column to unit sample standard deviation (no centering).

    Returns a new scaled matrix and the vector of original scales, the
    bits of ``mat.std(axis=0)``; ``mat`` is not written. Raises
    ``DegenerateColumnError``, naming the first, if any column is constant
    on the sample or its standard deviation is 0. No fit calls it: the
    workspace reads ``Q`` in raw units and the g dictionary is scaled where
    it is built.
    """
    mat = np.asarray(mat, dtype=float)
    scales = mat.std(axis=0)
    bad = np.flatnonzero(_constant_columns(mat) | (scales == 0.0))
    if bad.size:
        raise DegenerateColumnError(
            f"{what} {bad[0]} has zero variance on this sample"
        )
    return mat / scales, scales


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
    final OLS gathers its raw controls as ``blocks[0][:, idx]``.

    Raw coordinates are ``Z`` itself when ``Z`` is a C-ordered float array
    (a copy in C order otherwise, so the design's products have the bits of
    one layout), and the workspace then reads ``Z``: a later change to
    ``Z`` changes it. Raises ``DegenerateColumnError``, naming the first,
    when a column is constant (``_constant_columns``) or its squares sum to
    zero (entries so small that their squares underflow), so that the
    design reads it as a zero column.
    """
    if spec_q.kind == "raw_coordinates":
        Q = np.ascontiguousarray(_coordinates(spec_q, Z))
    else:
        Q = evaluate_dictionary(spec_q, Z)
    design = LassoDesign(Q)
    bad = np.flatnonzero(_constant_columns(Q) | (design.diag == 0.0))
    if bad.size:
        raise DegenerateColumnError(f"Q column {bad[0]} has zero variance on this sample")
    return design


def build_extended_fs(P: np.ndarray) -> np.ndarray:
    """Extended first-stage dictionary: originals, pairwise sums, diffs.

    For K input columns the result has K + 2*C(K, 2) columns: the columns
    of P and then those of every pair i < j, in the layout of a
    ``TargetBank`` with pairs ``np.triu_indices(K, 1)`` (``TargetBank.of``),
    formed by the bank's own routine.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] < 1:
        raise ValueError("P must be a 2-d matrix with at least one column")
    return _paired(P.T, *np.triu_indices(P.shape[1], 1)).T
