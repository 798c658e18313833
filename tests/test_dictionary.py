"""Dictionary construction: Hermite bases, tensor indices, standardization."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import (
    g_columns,
    hermite_deriv,
    hermite_eval,
    hermite_monomial,
    hermite_tensor_design,
)
from pdsseries import dictionary
from pdsseries.dictionary import (
    DegenerateColumnError,
    DictionarySpec,
    build_design,
    build_extended_fs,
    dictionary_labels,
    evaluate_dictionary,
    g_block,
    hermite_design,
    hermite_deriv_design,
    standardize_columns,
    tensor_index_set,
)
from pdsseries.lasso import LassoDesign

GRID = np.linspace(-3.0, 3.0, 41)


# ---------------------------------------------------------------- Hermite

def test_hermite_low_orders_closed_form():
    x = GRID
    np.testing.assert_allclose(hermite_eval(x, 0), np.ones_like(x))
    np.testing.assert_allclose(hermite_eval(x, 1), x)
    np.testing.assert_allclose(hermite_eval(x, 2), x**2 - 1.0, rtol=1e-12)
    np.testing.assert_allclose(hermite_eval(x, 3), x**3 - 3.0 * x, rtol=1e-12)
    np.testing.assert_allclose(
        hermite_eval(x, 4), x**4 - 6.0 * x**2 + 3.0, rtol=1e-12)


@pytest.mark.parametrize("k", range(9))
def test_hermite_matches_monomial_expansion(k):
    # independent oracle: explicit factorial expansion, k <= 8
    want = np.array([hermite_monomial(x, k) for x in GRID])
    got = hermite_eval(GRID, k)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_hermite_recurrence_identity():
    # He_{k+1}(x) = x He_k(x) - k He_{k-1}(x)
    x = GRID
    for k in range(1, 8):
        lhs = hermite_eval(x, k + 1)
        rhs = x * hermite_eval(x, k) - k * hermite_eval(x, k - 1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k", range(9))
def test_hermite_derivative_identity_and_fd(k):
    x = GRID
    want = k * hermite_eval(x, k - 1) if k > 0 else np.zeros_like(x)
    np.testing.assert_allclose(hermite_deriv(x, k), want, rtol=1e-12, atol=1e-12)
    h = 1e-6
    fd = (hermite_eval(x + h, k) - hermite_eval(x - h, k)) / (2.0 * h)
    scale = np.maximum(1.0, np.abs(want))
    assert np.max(np.abs(fd - want) / scale) < 1e-4


def test_hermite_scalar_input():
    assert hermite_eval(2.0, 3) == pytest.approx(2.0**3 - 6.0)
    assert hermite_deriv(2.0, 3) == pytest.approx(3.0 * (2.0**2 - 1.0))


def test_hermite_design_columns():
    x = GRID
    D = hermite_design(x, 5)
    assert D.shape == (x.size, 5)
    for k in range(1, 6):
        np.testing.assert_allclose(D[:, k - 1], hermite_eval(x, k))
    Dp = hermite_deriv_design(x, 5)
    for k in range(1, 6):
        np.testing.assert_allclose(Dp[:, k - 1], hermite_deriv(x, k))


def test_hermite_design_rejects_zero_degree():
    with pytest.raises(ValueError):
        hermite_design(GRID, 0)
    with pytest.raises(ValueError):
        hermite_eval(GRID, -1)


def test_hermite_design_names_the_first_degree_out_of_range():
    # He_k grows like sqrt(k!): on a standard normal sample of 500 the sum of
    # squares of a column overflows before K = 400, and then the recurrence
    x = np.random.default_rng(0).standard_normal(500)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="is out of floating-point range") as err:
            hermite_design(x, 400)
    assert caught == []
    k = int(str(err.value).split()[2][3:])
    assert 100 < k < 400
    assert np.isfinite(hermite_design(x, k - 1)).all()
    with pytest.raises(ValueError, match=f"He_{k} is out"):
        hermite_design(x, k)
    # a non-finite input fails at the first degree
    with pytest.raises(ValueError, match="He_1 is out"):
        hermite_design(np.array([0.0, np.nan]), 3)


@given(st.integers(min_value=0, max_value=8),
       st.floats(min_value=-4, max_value=4, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_hermite_property_matches_oracle(k, x):
    want = hermite_monomial(x, k)
    got = float(hermite_eval(x, k))
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "3", None])
def test_the_hermite_builders_refuse_a_degree_that_is_not_whole(bad):
    for build in (hermite_design, hermite_deriv_design):
        with pytest.raises(ValueError, match="kmax must be a whole number >= 1, got "):
            build(GRID, bad)


def test_the_hermite_builders_read_whole_floats_as_integers():
    for build in (hermite_design, hermite_deriv_design):
        assert build(GRID, 3.0).tobytes() == build(GRID, 3).tobytes()
        assert build(GRID, 1e1).shape == (GRID.size, 10)


# ---------------------------------------------------------------- tensor index

def test_tensor_index_set_small_case_exact():
    idx = tensor_index_set(2, 2)
    assert [tuple(i) for i in idx] == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_tensor_index_set_order_and_cardinality():
    for d, kmax in [(2, 3), (3, 2), (4, 3), (4, 10)]:
        idx = [tuple(i) for i in tensor_index_set(d, kmax)]
        want_count = math.comb(kmax + d, d) - 1
        assert len(idx) == want_count
        assert len(set(idx)) == want_count
        assert all(0 < sum(i) <= kmax for i in idx)
        grades = [sum(i) for i in idx]
        assert grades == sorted(grades)
        for g in range(1, kmax + 1):
            block = [i for i in idx if sum(i) == g]
            assert block == sorted(block, reverse=True)


@pytest.mark.parametrize("d, kmax", [(4, 2.5), (2.5, 3), (0, 2), (2, math.nan), ("2", 2)])
def test_a_tensor_index_set_needs_whole_counts(d, kmax):
    with pytest.raises(ValueError, match=r"^(d|kmax) must be a whole number >= 1, got "):
        tensor_index_set(d, kmax)


def test_a_tensor_index_set_reads_whole_floats_as_integers():
    assert tensor_index_set(2.0, 3.0) == tensor_index_set(2, 3)


@pytest.mark.parametrize("d, kmax", [(1000, 1), (400, 5), (465, 1), (150, 2)])
def test_an_oversized_tensor_is_refused_before_any_index(d, kmax):
    # the high_dim dumps at n = 500 and 200 (d = 1000 and 400), and the
    # first tensors past L * d^2 = 1e8: each entry point refuses at once,
    # naming d, K and L, with no index set or plan built
    L = math.comb(kmax + d, d) - 1
    spec = DictionarySpec("hermite_tensor", degree=kmax, input_dim=d)
    Z = np.zeros((3, d))
    message = f"degree K={kmax} on d={d} inputs has L={L} columns.*raw coordinates"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        for refused in (lambda: tensor_index_set(d, kmax), lambda: build_design(spec, Z),
                        lambda: evaluate_dictionary(spec, Z),
                        lambda: dictionary_labels(spec)):
            with pytest.raises(ValueError, match=message):
                refused()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 1e6


def test_the_largest_admitted_k1_tensor_builds():
    # d^3 <= 1e8 up to d = 464: the unit vectors, built without hitting the
    # recursion limit
    idx = tensor_index_set(464, 1)
    assert idx == [tuple(int(i == j) for i in range(464)) for j in range(464)]



@pytest.mark.parametrize("d, kmax", [
    (2, 15), (3, 8), (4, 7), (4, 10), (6, 4), (20, 3), (60, 2), (464, 1)])
def test_tensor_plan_matches_the_prefix_slicing_reference(d, kmax):
    indices, levels = dictionary._tensor_plan.__wrapped__(d, kmax)
    want_indices, want_levels = _oracles.tensor_plan_by_prefixes(d, kmax)
    assert indices == want_indices and len(levels) == len(want_levels) == d - 1
    for (n_prev, gather), (want_n, want_gather) in zip(levels, want_levels):
        assert n_prev == want_n and gather.dtype == want_gather.dtype
        np.testing.assert_array_equal(gather, want_gather)


def test_a_k1_tensor_on_many_inputs_plans_quickly():
    # the plan builds each level from the one before, so the largest K = 1
    # tensor admitted (d = 464) plans in linear time in its d^2 index entries
    start = time.perf_counter()
    dictionary._tensor_plan.__wrapped__(464, 1)
    assert time.perf_counter() - start < 0.2

def test_tensor_evaluation_is_product_of_univariates():
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((17, 3))
    spec = DictionarySpec("hermite_tensor", degree=3, input_dim=3)
    Q = evaluate_dictionary(spec, Z)
    idx = tensor_index_set(3, 3)
    assert Q.shape == (17, len(idx))
    for col, mi in enumerate(idx):
        manual = np.ones(17)
        for j, kj in enumerate(mi):
            manual *= hermite_eval(Z[:, j], kj)
        np.testing.assert_allclose(Q[:, col], manual, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n, d, kmax", [
    (1000, 4, 10), (500, 4, 7),  # the acceptance-8 and high_dim tensors
    (200, 1, 6), (150, 2, 9), (97, 5, 4),  # d = 1, 2 and 5
    (1, 4, 3), (3, 3, 5), (65, 4, 5), (64, 3, 1), (130, 3, 4),  # rows vs block
])
def test_tensor_matches_column_by_column_reference(n, d, kmax):
    Z = 1.5 * np.random.default_rng(n + d + kmax).standard_normal((n, d))
    Q = evaluate_dictionary(DictionarySpec("hermite_tensor", degree=kmax, input_dim=d), Z)
    assert Q.flags.c_contiguous
    np.testing.assert_array_equal(Q, hermite_tensor_design(Z, kmax))


# ---------------------------------------------------------------- specs

def test_spec_n_terms():
    assert DictionarySpec("hermite_univariate", degree=7).n_terms == 7
    assert DictionarySpec("hermite_tensor", degree=3, input_dim=4).n_terms == \
        math.comb(7, 4) - 1
    assert DictionarySpec("raw_coordinates", input_dim=9).n_terms == 9


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown dictionary kind"):
        DictionarySpec("fourier", degree=3)
    with pytest.raises(ValueError, match="degree"):
        DictionarySpec("hermite_univariate", degree=0)
    with pytest.raises(ValueError, match="input_dim"):
        DictionarySpec("raw_coordinates", input_dim=0)
    with pytest.raises(ValueError, match="scalar"):
        DictionarySpec("hermite_univariate", degree=2, input_dim=3)


@pytest.mark.parametrize("bad", [2.5, 0, 0.0, math.nan, math.inf, "3", None])
def test_spec_counts_are_whole_numbers(bad):
    with pytest.raises(ValueError, match="degree must be a whole number >= 1, got "):
        DictionarySpec("hermite_univariate", degree=bad)
    with pytest.raises(ValueError, match="input_dim must be a whole number >= 1"):
        DictionarySpec("hermite_tensor", degree=2, input_dim=bad)
    with pytest.raises(ValueError, match="input_dim must be a whole number >= 1"):
        DictionarySpec("raw_coordinates", input_dim=bad)


def test_spec_reads_whole_floats_as_integers():
    spec = DictionarySpec("hermite_tensor", degree=3.0, input_dim=2.0)
    assert spec == DictionarySpec("hermite_tensor", degree=3, input_dim=2)
    assert type(spec.degree) is int and type(spec.input_dim) is int
    Z = np.linspace(-1.0, 1.0, 14).reshape(7, 2)
    assert spec.n_terms == 9
    np.testing.assert_array_equal(
        evaluate_dictionary(spec, Z),
        evaluate_dictionary(DictionarySpec("hermite_tensor", degree=3, input_dim=2), Z))


def test_raw_coordinates_passthrough(rng):
    Z = rng.standard_normal((11, 5))
    spec = DictionarySpec("raw_coordinates", input_dim=5)
    np.testing.assert_array_equal(evaluate_dictionary(spec, Z), Z)


def test_evaluate_univariate_matches_design(rng):
    x = rng.standard_normal(13)
    spec = DictionarySpec("hermite_univariate", degree=4)
    np.testing.assert_array_equal(evaluate_dictionary(spec, x),
                                  hermite_design(x, 4))


# ---------------------------------------------------------------- labels

def test_labels_univariate_and_tensor():
    spec = DictionarySpec("hermite_univariate", degree=3)
    assert dictionary_labels(spec, prefix="p") == ["p[1]", "p[2]", "p[3]"]
    spec = DictionarySpec("hermite_tensor", degree=2, input_dim=2)
    assert dictionary_labels(spec) == \
        ["q[1,0]", "q[0,1]", "q[2,0]", "q[1,1]", "q[0,2]"]


def test_labels_raw_coordinates():
    spec = DictionarySpec("raw_coordinates", input_dim=3)
    assert dictionary_labels(spec) == ["q1", "q2", "q3"]
    assert dictionary_labels(spec, names=["a", "b", "c"]) == ["a", "b", "c"]
    with pytest.raises(ValueError, match="names length"):
        dictionary_labels(spec, names=["a"])


def test_labels_of_some_columns_are_read_off_the_full_list():
    cols = np.array([3, 0, 3])
    for spec, names in ((DictionarySpec("hermite_univariate", degree=5), None),
                        (DictionarySpec("hermite_tensor", degree=3, input_dim=3), None),
                        (DictionarySpec("raw_coordinates", input_dim=4), None),
                        (DictionarySpec("raw_coordinates", input_dim=4), list("abcd"))):
        full = dictionary_labels(spec, names=names)
        assert dictionary_labels(spec, names=names, columns=cols) == [full[j] for j in cols]
        assert dictionary_labels(spec, names=names, columns=[]) == []
    with pytest.raises(ValueError, match="names length"):
        dictionary_labels(spec, names=["a"], columns=[0])


# ---------------------------------------------------------------- scaling

def test_standardize_columns_unit_sd_no_centering(rng):
    M = rng.standard_normal((40, 4)) * np.array([0.1, 1.0, 10.0, 100.0]) + 2.0
    S, scales = standardize_columns(M)
    np.testing.assert_allclose(S.std(axis=0), np.ones(4), rtol=1e-12)
    np.testing.assert_allclose(S * scales, M, rtol=1e-12)
    # no centering: column means survive rescaling
    assert np.all(np.abs(S.mean(axis=0)) > 0.1)


def test_standardize_columns_names_offender(rng):
    M = rng.standard_normal((20, 3))
    M[:, 1] = 7.0
    with pytest.raises(DegenerateColumnError, match="Q column 1"):
        standardize_columns(M, what="Q column")
    # a standard deviation that overflows, with no RuntimeWarning
    M[:, 1] = 1e160 * rng.standard_normal(20)
    with pytest.raises(ValueError, match="^Q column 1 is out of floating-point range"):
        standardize_columns(M, what="Q column")


def scale_test_matrix(n, m, seed):
    """Columns from 1e-6 to 1e6 in size, offset from zero, so that the bits
    of their standard deviations depend on the order of the sums."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, m)) * np.geomspace(1e-6, 1e6, m) + rng.standard_normal(m)
    M[rng.random((n, m)) < 0.02] *= 1e4
    return M


@pytest.mark.parametrize("layout", ["C", "F", "strided rows", "strided columns"])
@pytest.mark.parametrize("n, m", [(1000, 40), (129, 7), (64, 3), (65, 1), (2, 5)])
def test_standardize_columns_has_the_bits_of_std(layout, n, m):
    M = scale_test_matrix(2 * n, 2 * m, seed=n + m)
    M = {"C": M[:n, :m].copy(), "F": np.asfortranarray(M[:n, :m]),
         "strided rows": M[::2, :m], "strided columns": M[:n, ::2]}[layout]
    before = M.copy()
    S, scales = standardize_columns(M)
    np.testing.assert_array_equal(scales, M.std(axis=0))
    np.testing.assert_array_equal(S, M / M.std(axis=0))
    assert not np.shares_memory(S, M)
    np.testing.assert_array_equal(M, before)


@pytest.mark.parametrize("x, k_ok, refusal", [
    # He_2 of entries near 1e100 is finite, but its sum of squares overflows
    (1e100 * np.linspace(1.0, 2.0, 50), 1,
     "Hermite term He_2 is out of floating-point range on this sample"),
    # He_3 = x^3 - 3x takes the same value, -0.734375, at both points
    (np.resize([0.25, 1.59346588560844, 0.25], 50), 2,
     "P column 2 has zero variance on this sample"),
    # He_1 = x is not constant, but its centred squares underflow: std 0
    (np.resize([1e-170, 2e-170], 50), 0, "P column 0 has zero variance on this sample"),
    (np.linspace(-2.0, 2.0, 50), 4, None),
])
def test_g_block_stops_at_the_first_column_no_fit_can_use(x, k_ok, refusal):
    P_raw, P, got = g_block(x, 4)
    assert P_raw.shape == P.shape == (50, k_ok)
    if refusal is None:
        assert got is None
    else:
        assert isinstance(got, DegenerateColumnError if "P column" in refusal else ValueError)
        assert str(got) == refusal
    if k_ok:
        raw, std = g_columns(x, k_ok)
        np.testing.assert_array_equal(P_raw, raw)
        np.testing.assert_array_equal(P, std)


# ---------------------------------------------------------------- designs

def test_build_design_shapes_and_scales(rng):
    n = 60
    Z = rng.standard_normal((n, 3))
    spec_q = DictionarySpec("hermite_tensor", degree=2, input_dim=3)
    d = build_design(spec_q, Z)
    # the workspace is one Lasso design over the conditioning dictionary
    # alone, in raw units, with no Gram row formed before a solve asks
    assert type(d) is LassoDesign and len(d.blocks) == 1 and d.rows_formed == 0
    assert d.shape == (n, spec_q.n_terms)
    Q_raw = evaluate_dictionary(spec_q, Z)
    np.testing.assert_array_equal(d.blocks[0], Q_raw)
    # it reads Q at unit root mean square
    np.testing.assert_array_equal(d.squares[0], Q_raw * Q_raw)
    np.testing.assert_allclose(d.scales, np.sqrt(np.mean(Q_raw * Q_raw, axis=0)), rtol=1e-14)
    U = Q_raw / d.scales
    np.testing.assert_allclose(d.rows(np.arange(spec_q.n_terms)), U.T @ U,
                               rtol=1e-13, atol=1e-13 * n)
    np.testing.assert_allclose(d.diag, n, rtol=1e-14)
    # on C-ordered float raw coordinates, its one block is Z itself
    raw = build_design(DictionarySpec("raw_coordinates", input_dim=3), Z)
    assert len(raw.blocks) == 1 and raw.blocks[0] is Z and raw.rows_formed == 0


@pytest.mark.parametrize("spec_q", [
    DictionarySpec("hermite_univariate", degree=5),
    DictionarySpec("hermite_tensor", degree=3, input_dim=3),
    DictionarySpec("raw_coordinates", input_dim=3),
], ids=lambda spec: spec.kind)
def test_build_design_leaves_its_inputs_unchanged(rng, spec_q):
    n = 150
    Z = rng.standard_normal((n, 3))
    if spec_q.kind == "hermite_univariate":
        Z = Z[:, 0].copy()
    Z0 = Z.copy()
    d = build_design(spec_q, Z)
    np.testing.assert_array_equal(Z, Z0)
    # raw coordinates are Z itself, read in place; a Hermite dictionary is new
    assert (d.blocks[0] is Z) == (spec_q.kind == "raw_coordinates")
    assert np.shares_memory(d.blocks[0], Z) == (spec_q.kind == "raw_coordinates")


def test_raw_coordinates_design_has_the_same_bits_for_any_layout(rng):
    # raw coordinates are read from Z, or from a C-ordered copy of a strided
    # or F-ordered Z, so every layout gives the bits of the C-ordered one
    n = 130
    Z = rng.standard_normal((n, 12)) * rng.uniform(0.5, 3.0, 12)
    spec_q = DictionarySpec("raw_coordinates", input_dim=6)
    want = build_design(spec_q, Z[:, ::2].copy())
    y = rng.standard_normal(n)
    for layout in (Z[:, ::2], np.asfortranarray(Z[:, ::2])):
        got = build_design(spec_q, layout)
        assert got.blocks[0].flags.c_contiguous
        np.testing.assert_array_equal(got.blocks[0], want.blocks[0])
        for name in ("scales", "diag"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        np.testing.assert_array_equal(got.product(y), want.product(y))


@pytest.mark.parametrize("spec_q", [
    DictionarySpec("raw_coordinates", input_dim=3),
    DictionarySpec("hermite_tensor", degree=2, input_dim=3),
], ids=lambda spec: spec.kind)
def test_build_design_refuses_a_constant_column_by_exact_comparison(rng, spec_q):
    # a column of 0.1 in 500 rows has std(axis=0) 8.7e-16, not 0: a
    # constant column is one whose every entry equals its first
    Z = rng.standard_normal((500, 3))
    for value in (0.1, 0.0, -3.0):
        Z[:, 1] = value
        with pytest.raises(DegenerateColumnError, match="^Q column 1 has zero variance"):
            build_design(spec_q, Z)
    # one entry off the constant is enough, in any row
    for row in (1, 33, 499):
        Z[:, 1] = 0.1
        Z[row, 1] = 0.2
        assert build_design(spec_q, Z).shape[1] == spec_q.n_terms


def test_build_design_refuses_a_column_whose_squares_underflow(rng):
    # not constant, but every square is 0: the design would read it as a
    # zero column that never enters a solve
    Z = rng.standard_normal((200, 3))
    Z[:, 2] = rng.choice([1e-170, 2e-170], size=200)
    spec_q = DictionarySpec("raw_coordinates", input_dim=3)
    with pytest.raises(DegenerateColumnError, match="^Q column 2 has zero variance"):
        build_design(spec_q, Z)
    # entries whose squares are subnormal but not all zero are read
    Z[:, 2] = rng.choice([1e-160, 2e-160], size=200)
    assert build_design(spec_q, Z).diag[2] > 0.0


def test_build_design_refuses_a_column_whose_squares_overflow(rng):
    # its scale is infinite: the refusal names the first such column and
    # is the only report, with no RuntimeWarning; a Hermite tensor on it
    # is refused by its first Hermite term out of range
    Z = rng.standard_normal((200, 4))
    Z[:, 1] *= 1e160
    Z[:, 3] *= 1e160
    Z[0, 1] = 0.0  # an exact zero times an infinite scale would read as NaN
    for spec_q, name in ((DictionarySpec("raw_coordinates", input_dim=4), "Q column 1"),
                         (DictionarySpec("hermite_tensor", degree=2, input_dim=4),
                          "Hermite term He_1")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=f"^{name} is out of floating-point range "
                                                 "on this sample$") as err:
                build_design(spec_q, Z)
        assert caught == [] and type(err.value) is ValueError
    # squares that stay finite, and their sum, are read
    Z[:, 1] = rng.standard_normal(200) * 1e150
    Z[:, 3] = rng.standard_normal(200)
    assert np.isfinite(build_design(DictionarySpec("raw_coordinates", input_dim=4), Z).diag).all()


def test_build_design_keeps_at_most_two_dictionary_sized_blocks():
    # the acceptance-8 shape: n = L = 1000. Q and Q*Q are alive together;
    # a third n x L block is not
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((1000, 4))
    spec_q = DictionarySpec("hermite_tensor", degree=10, input_dim=4)
    assert spec_q.n_terms == 1000
    tracemalloc.start()
    try:
        build_design(spec_q, Z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 1000 * 1000 * 8


def test_build_extended_fs_content(rng):
    P = rng.standard_normal((25, 4))
    E = build_extended_fs(P)
    k = 4
    n_pairs = math.comb(k, 2)
    assert E.shape == (25, k + 2 * n_pairs)
    np.testing.assert_array_equal(E[:, :k], P)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for c, (i, j) in enumerate(pairs):
        np.testing.assert_allclose(E[:, k + c], P[:, i] + P[:, j])
        np.testing.assert_allclose(E[:, k + n_pairs + c], P[:, i] - P[:, j])


@pytest.mark.parametrize("k", [1, 2, 5, 15])
def test_build_extended_fs_matches_the_concatenating_reference(rng, k):
    # the bank's routine forms every column as the former blocks did
    P = rng.standard_normal((40, k))
    E, ref = build_extended_fs(P), _oracles.build_extended_fs(P)
    assert E.shape == ref.shape == (40, k * k)
    np.testing.assert_array_equal(E, ref)
    assert not np.shares_memory(E, P)


def test_build_extended_fs_rejects_vector():
    with pytest.raises(ValueError):
        build_extended_fs(np.ones(10))
