"""Series dictionaries: Hermite bases, tensor products, and design matrices.

Dictionaries never include a constant term; the estimation step adds a single
explicit intercept instead. Design columns handed to the selection machinery
are standardized to unit sample standard deviation, with the scales recorded
so coefficients can be mapped back to the raw basis. ``build_design``
returns the conditioning dictionary ``Q`` as one per-sample workspace,
``DesignMatrices``, with a single ``LassoDesign`` over ``Q`` that every
Lasso on the sample shares. The g dictionary is not part of it: its degree
changes from fit to fit, so each estimator evaluates He_1..He_K of ``x`` at
the degree it fits.

A Hermite tensor column is the left-to-right product of its univariate
factors, and columns that share leading factors share those products: at
d = 4, K = 10 the 1000 columns come from 11, 66 and 286 distinct prefixes.
``evaluate_dictionary`` forms each level of prefixes with one gather and
one multiply, 64 rows at a time, straight into the (n, L) output, from an
index plan cached per (d, K). The column scales have the bits of
``std(axis=0)``, but the centred squares are summed a row block at a time
in the rows of the output, so standardizing allocates no n x L array but
its output. Raw coordinates are standardized straight from ``Z``, without
the copy that ``evaluate_dictionary`` returns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import _require_whole, _whole_number
from .lasso import LassoDesign

__all__ = [
    "DictionarySpec",
    "DesignMatrices",
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
# rows per block of the tensor evaluation and of the column scales
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
        input_dim = _whole_number(self.input_dim, 1)
        if input_dim is None:
            raise ValueError(f"input_dim must be a whole number >= 1, got {self.input_dim!r}")
        object.__setattr__(self, "input_dim", input_dim)
        if self.kind == "raw_coordinates":
            return
        degree = _whole_number(self.degree, 1)
        if degree is None:
            raise ValueError(
                f"{self.kind} requires a degree that is a whole number >= 1, got {self.degree!r}")
        object.__setattr__(self, "degree", degree)
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


# an overflow is reported once, by the ValueError below, not warned per degree
@np.errstate(over="ignore", invalid="ignore")
def hermite_design(x, kmax: int) -> np.ndarray:
    """Design matrix with columns He_1(x), ..., He_kmax(x).

    Raises ``ValueError`` naming the first degree whose column is not
    finite or has a sum of squares that overflows, as at a high degree:
    no fit can standardize or regress on such a column.
    """
    kmax = _require_whole("kmax", kmax, 1)
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
    if not finite.all():
        k = int(np.argmin(finite)) + 1
        raise ValueError(
            f"Hermite term He_{k} is out of floating-point range on this sample")
    return out


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


def tensor_index_set(d: int, kmax: int) -> list[tuple[int, ...]]:
    """Multi-indices with 1 <= total degree <= kmax.

    Graded order: lower total degree first; within a grade, descending
    lexicographic. The zero index (constant term) is excluded. A set of L
    indices with L * d**2 above ``_TENSOR_WORK`` is refused by a
    ``ValueError`` before any index is enumerated.
    """
    whole = _whole_number(d, 1), _whole_number(kmax, 1)
    if None in whole:
        raise ValueError(f"d and kmax must be >= 1 and whole numbers, got d={d!r}, "
                         f"kmax={kmax!r}")
    d, kmax = whole
    n_terms = math.comb(kmax + d, d) - 1
    if n_terms * d * d > _TENSOR_WORK:
        raise ValueError(
            f"a Hermite tensor of degree K={kmax} on d={d} inputs has L={n_terms} "
            f"columns, and L*d^2 exceeds {_TENSOR_WORK:.0e}; "
            "use the raw coordinates as the conditioning dictionary")
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
    uni = np.empty((d, kmax + 1, n))  # uni[j, m] = He_m(z_j)
    for j in range(d):
        uni[j, 0] = 1.0
        uni[j, 1:] = hermite_design(Z[:, j], kmax).T
    out = np.empty((n, len(indices)))
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
    """``data`` as the float (n, d) matrix a multivariate ``spec`` takes."""
    Z = np.asarray(data, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != spec.input_dim:
        raise ValueError(
            f"expected an (n, {spec.input_dim}) matrix, got shape {Z.shape}"
        )
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


def _column_sd(mat: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``mat.std(axis=0)`` with its bits, summing in ``scratch`` (an array
    of ``mat``'s shape) instead of an n x L centred copy.

    NumPy's ``std`` sums the columns, divides by n, centres, squares and
    sums again; over axis 0 of a C-ordered matrix with two or more rows and
    columns, each sum adds the rows one by one in order. Here the squares
    are formed a row block at a time in ``scratch``, under a first row that
    holds the running sum, so each block's sum continues the same sequence.
    (The first block starts from 0.0, and 0.0 + s is s for every square s.)
    Other layouts sum in another order and go to ``std`` itself.
    """
    if mat.ndim != 2 or min(mat.shape) < 2 or not mat.flags.c_contiguous:
        return mat.std(axis=0)
    n = mat.shape[0]
    mean = np.add.reduce(mat, axis=0)
    np.true_divide(mean, n, out=mean)
    total = np.zeros(mat.shape[1])
    step = min(_ROW_BLOCK, n - 1)  # a block and its first row fit in scratch
    for r0 in range(0, n, step):
        rows = mat[r0:r0 + step]
        part = scratch[:len(rows) + 1]
        part[0] = total
        np.subtract(rows, mean, out=part[1:])
        np.square(part[1:], out=part[1:])
        np.add.reduce(part, axis=0, out=total)
    np.true_divide(total, n, out=total)
    return np.sqrt(total, out=total)


def standardize_columns(mat: np.ndarray, what: str = "column"):
    """Scale each column to unit sample standard deviation (no centering).

    Returns a new scaled matrix and the vector of original scales; ``mat``
    is not written. The scales have the bits of ``mat.std(axis=0)``, and
    the scaled matrix is the only n x L array allocated. Raises
    ``DegenerateColumnError`` if any column is constant on the sample.
    """
    mat = np.asarray(mat, dtype=float)
    out = np.empty_like(mat)
    scales = _column_sd(mat, out)
    bad = np.flatnonzero(scales == 0.0)
    if bad.size:
        raise DegenerateColumnError(
            f"{what} {bad[0]} has zero variance on this sample"
        )
    return np.divide(mat, scales, out=out), scales


@dataclass
class DesignMatrices:
    """Per-sample workspace of the conditioning dictionary, built once by
    ``build_design``.

    ``Q`` (n, L) approximates h, unit-variance column-wise, and
    ``q_scales`` maps back to raw columns: raw = standardized * scale.
    Every Lasso of post-double selection runs on the same ``Q``, so the
    workspace holds one ``LassoDesign`` over it, ``lasso_design``: ``Q*Q``
    for the penalty loadings, and a store of the rows of ``Q'Q``, each
    formed the first time its column enters any solve on the sample and
    kept for every later equation, estimator and degree grid, so ``Q'Q``
    is never formed whole. Post-Single II's design, ``LassoDesign(P,
    lasso_design)``, reads its standardized g dictionary ``P`` and this
    design as column blocks, reusing ``Q*Q`` and the stored rows. No raw
    copy of ``Q`` is kept: ``q_raw(idx)`` rebuilds only the selected
    columns the final OLS needs.
    """

    Q: np.ndarray
    q_scales: np.ndarray
    lasso_design: LassoDesign
    spec_q: DictionarySpec | None = None

    def q_raw(self, idx) -> np.ndarray:
        """Columns ``idx`` of the conditioning dictionary in raw units."""
        idx = np.asarray(idx, dtype=int)
        return self.Q[:, idx] * self.q_scales[idx]


def build_design(spec_q: DictionarySpec, Z) -> DesignMatrices:
    """Evaluate the conditioning dictionary, standardize its columns, and
    wrap the standardized ``Q`` in the workspace's ``LassoDesign``.

    Raw coordinates are standardized straight from ``Z``, which
    ``standardize_columns`` never writes, so no raw n x L copy is made. The
    design's Gram row store starts empty: its rows are formed as columns
    enter the solves that use it. Raises ``DegenerateColumnError`` when a
    column is constant, naming it.
    """
    if spec_q.kind == "raw_coordinates":
        # C order, as evaluate_dictionary's copy has, keeps the scales' bits
        Q_raw = np.ascontiguousarray(_coordinates(spec_q, Z))
    else:
        Q_raw = evaluate_dictionary(spec_q, Z)
    Q, q_scales = standardize_columns(Q_raw, what="Q column")
    # release the raw block, when it is not Z itself, before the design squares Q
    del Q_raw
    return DesignMatrices(Q=Q, q_scales=q_scales, lasso_design=LassoDesign(Q),
                          spec_q=spec_q)


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
