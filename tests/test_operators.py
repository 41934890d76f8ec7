import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import einsum_oracle as eo
from helpers import commutator, creation
from photonfilter import operators as ops


def test_annihilation_dim1_is_zero():
    np.testing.assert_array_equal(ops.annihilation(1), np.zeros((1, 1)))


def test_annihilation_entries():
    a = ops.annihilation(4)
    assert a[2, 3] == pytest.approx(np.sqrt(3.0))
    assert a[0, 1] == pytest.approx(1.0)
    # strictly upper-bidiagonal
    assert np.count_nonzero(a) == 3


def test_annihilation_rejects_bad_dim():
    with pytest.raises(ValueError):
        ops.annihilation(0)


def test_creation_raises_vacuum():
    adag = creation(2)
    np.testing.assert_allclose(adag @ np.eye(2)[0], np.eye(2)[1])


def test_creation_is_adjoint_of_annihilation():
    np.testing.assert_array_equal(creation(5), ops.annihilation(5).conj().T)


def test_number_op_diagonal():
    np.testing.assert_array_equal(ops.number_op(3), np.diag([0.0, 1.0, 2.0]))
    np.testing.assert_array_equal(ops.number_op(2), np.diag([0.0, 1.0]))


def test_number_op_equals_adag_a():
    n = creation(4) @ ops.annihilation(4)
    np.testing.assert_allclose(ops.number_op(4), n, atol=1e-14)


def test_commutator_truncation_artifact():
    # [a, a^dag] = diag(1, ..., 1, -(D-1)) in a D-level truncation
    for dim in range(2, 6):
        comm = commutator(ops.annihilation(dim), creation(dim))
        expect = np.eye(dim)
        expect[-1, -1] = -(dim - 1)
        np.testing.assert_allclose(comm, expect, rtol=0, atol=1e-14)


def test_commutator_identity_vanishes():
    x = ops.annihilation(3) + 2.0 * ops.number_op(3)
    np.testing.assert_array_equal(commutator(np.eye(3), x), np.zeros((3, 3)))


def test_commutator_n_with_a():
    # [n, a] = -a on the retained levels
    n, a = ops.number_op(3), ops.annihilation(3)
    np.testing.assert_allclose(commutator(n, a), -a, atol=1e-14)


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError):
        commutator(ops.annihilation(2), ops.annihilation(3))


# Expectations <psi|X|psi> read from the filter state of a pure ket,
# pi11(X) = tr(|psi><psi| X).
def expectation(psi, x):
    return eo.init_filter(psi).pi("11", x)


def test_expectation_eigenstate():
    assert expectation(np.eye(2)[1], ops.number_op(2)) == pytest.approx(1.0)


def test_expectation_superposition():
    psi = (np.eye(2)[0] + np.eye(2)[1]) / np.sqrt(2.0)
    x = ops.annihilation(2) + creation(2)
    assert expectation(psi, x) == pytest.approx(1.0)


def test_expectation_shape_mismatch():
    with pytest.raises(ValueError):
        expectation(np.eye(2)[0], ops.number_op(3))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
def test_expectation_real_for_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    herm = m + m.conj().T
    val = expectation(psi, herm)
    assert abs(val.imag) <= 1e-12
