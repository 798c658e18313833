"""Dictionary construction: Hermite bases, tensor indices, standardization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import hermite_monomial
from pdsseries.dictionary import (
    DegenerateColumnError,
    DictionarySpec,
    build_design,
    build_extended_fs,
    dictionary_labels,
    evaluate_dictionary,
    hermite_design,
    hermite_deriv,
    hermite_deriv_design,
    hermite_eval,
    standardize_columns,
    tensor_index_set,
)

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


@given(st.integers(min_value=0, max_value=8),
       st.floats(min_value=-4, max_value=4, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_hermite_property_matches_oracle(k, x):
    want = hermite_monomial(x, k)
    got = float(hermite_eval(x, k))
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


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


# ---------------------------------------------------------------- specs

def test_spec_n_terms():
    assert DictionarySpec("hermite_univariate", degree=7).n_terms == 7
    assert DictionarySpec("hermite_tensor", degree=3, input_dim=4).n_terms == \
        math.comb(7, 4) - 1
    assert DictionarySpec("raw_coordinates", input_dim=9).n_terms == 9
    k = 5
    assert DictionarySpec("extended_sums_diffs", degree=k).n_terms == \
        k + 2 * math.comb(k, 2)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown dictionary kind"):
        DictionarySpec("fourier", degree=3)
    with pytest.raises(ValueError, match="degree"):
        DictionarySpec("hermite_univariate", degree=0)
    with pytest.raises(ValueError, match="input_dim"):
        DictionarySpec("raw_coordinates", input_dim=0)
    with pytest.raises(ValueError, match="scalar"):
        DictionarySpec("hermite_univariate", degree=2, input_dim=3)


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


def test_labels_raw_and_extended():
    spec = DictionarySpec("raw_coordinates", input_dim=3)
    assert dictionary_labels(spec) == ["q1", "q2", "q3"]
    assert dictionary_labels(spec, names=["a", "b", "c"]) == ["a", "b", "c"]
    with pytest.raises(ValueError, match="names length"):
        dictionary_labels(spec, names=["a"])
    spec = DictionarySpec("extended_sums_diffs", degree=3)
    labels = dictionary_labels(spec)
    assert labels[:3] == ["q[1]", "q[2]", "q[3]"]
    assert "q[1]+q[2]" in labels and "q[2]-q[3]" in labels
    assert len(labels) == spec.n_terms


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


# ---------------------------------------------------------------- designs

def test_build_design_shapes_and_scales(rng):
    n = 60
    x = rng.standard_normal(n)
    Z = rng.standard_normal((n, 3))
    spec_p = DictionarySpec("hermite_univariate", degree=4)
    spec_q = DictionarySpec("hermite_tensor", degree=2, input_dim=3)
    d = build_design(spec_p, spec_q, x, Z)
    assert d.P.shape == (n, 4) and d.Q.shape == (n, spec_q.n_terms)
    np.testing.assert_allclose(d.P.std(axis=0), 1.0, rtol=1e-12)
    np.testing.assert_allclose(d.Q.std(axis=0), 1.0, rtol=1e-12)
    np.testing.assert_allclose(d.p_raw, evaluate_dictionary(spec_p, x), rtol=1e-12)
    Q_raw = evaluate_dictionary(spec_q, Z)
    np.testing.assert_allclose(d.q_raw(np.arange(spec_q.n_terms)), Q_raw, rtol=1e-12)
    np.testing.assert_allclose(d.q_raw([4, 1]), Q_raw[:, [4, 1]], rtol=1e-12)
    assert d.q_raw([]).shape == (n, 0)
    np.testing.assert_array_equal(d.gram, d.Q.T @ d.Q)
    np.testing.assert_array_equal(d.sq, d.Q * d.Q)
    assert d.n_p == 4
    assert d.spec_p == spec_p and d.spec_q == spec_q


def test_build_design_sample_size_mismatch(rng):
    spec_p = DictionarySpec("hermite_univariate", degree=2)
    spec_q = DictionarySpec("raw_coordinates", input_dim=2)
    with pytest.raises(ValueError, match="sample size"):
        build_design(spec_p, spec_q, rng.standard_normal(10),
                     rng.standard_normal((11, 2)))


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


def test_build_extended_fs_rejects_vector():
    with pytest.raises(ValueError):
        build_extended_fs(np.ones(10))
