import numpy as np
import pytest

from qincompat.linalg import (
    check_basis,
    check_hermitian,
    partial_trace,
    vec,
)
from helpers import random_basis, random_hermitian, random_povm


def test_partial_trace_of_maximally_entangled():
    v = vec(np.eye(2))
    omega = np.outer(v, v.conj()) / 2.0
    out = partial_trace(omega, [2, 2], {0})
    assert np.abs(out - np.eye(2) / 2).max() < 1e-14


def test_partial_trace_of_kron(rng):
    for _ in range(10):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        out = partial_trace(np.kron(a, b), [2, 2], {0})
        assert np.abs(out - a * np.trace(b)).max() < 1e-12


def test_partial_trace_keep_all_is_identity_map(rng):
    m = random_hermitian(rng, 6)
    out = partial_trace(m, [2, 3], {0, 1})
    assert np.abs(out - m).max() < 1e-14


def test_partial_trace_preserves_trace(rng):
    m = random_hermitian(rng, 8)
    out = partial_trace(m, [2, 2, 2], {1})
    assert abs(np.trace(out) - np.trace(m)) < 1e-12


def test_partial_trace_dim_mismatch_message():
    with pytest.raises(ValueError, match="product of dims is 6"):
        partial_trace(np.eye(4), [2, 3], {0})


def test_partial_trace_composition(rng):
    # tracing out factor 2 then factor 3 equals tracing out both at once
    for _ in range(5):
        m = random_hermitian(rng, 8)
        once = partial_trace(m, [2, 2, 2], {0})
        stepwise = partial_trace(partial_trace(m, [2, 2, 2], {0, 1}), [2, 2], {0})
        assert np.abs(once - stepwise).max() < 1e-12


def test_vec_convention():
    e0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(vec(e0), [1, 0, 0, 0])
    e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(vec(e01), [0, 1, 0, 0])


def test_vec_of_projector_is_kron(rng):
    for d in (2, 3, 5):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        assert np.abs(vec(np.outer(v, v.conj())) - np.kron(v, v.conj())).max() < 1e-14


def test_vec_inner_product_is_trace(rng):
    for _ in range(10):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        lhs = np.vdot(vec(a), vec(b))
        assert abs(lhs - np.trace(a.conj().T @ b)) < 1e-12


def test_is_psd_g_minus_omega(rng):
    from qincompat.fisher import g_matrix_povm, omega

    for _ in range(10):
        p = random_povm(rng, 2, 3)
        g = g_matrix_povm(p)
        assert np.linalg.eigvalsh(g - omega(2))[0] >= -1e-9


def test_check_hermitian_rejects():
    with pytest.raises(ValueError, match="not Hermitian"):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_are_rejected(bad):
    # a NaN defect is never above a tolerance, so each check would pass it
    m = np.eye(2, dtype=complex)
    m[0, 0] = bad
    for check in (check_hermitian, check_basis):
        with pytest.raises(ValueError, match="non-finite entry"):
            check(m)


def test_check_basis(rng):
    check_basis(random_basis(rng, 4))
    with pytest.raises(ValueError, match="orthonormal"):
        check_basis(np.ones((2, 2)))
