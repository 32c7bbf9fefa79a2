import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qincompat import (
    Channel,
    adjoint_apply,
    beta,
    canonical_basis,
    fourier_basis,
    g_matrix,
    g_matrix_povm,
    induced_povm,
    make_depolarizing,
    make_identity,
    make_schur,
    mub_family,
    omega,
    orthogonal_modulo_omega,
    z_matrix,
)
from qincompat import Povm
from qincompat.linalg import partial_trace
from qincompat.fisher import _weyl_coordinates
from helpers import (
    random_basis,
    random_channel,
    random_povm,
    random_schur_matrix,
    to_vec_coordinates,
    weyl_unitary,
)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 11])
def test_weyl_coordinates_match_explicit_expansion(rng, d):
    u = weyl_unitary(d)
    # the X^a Z^b / sqrt(d) are orthonormal, member 0 is I / sqrt(d)
    assert np.abs(u @ u.conj().T - np.eye(d * d)).max() < 1e-12
    assert np.abs(_weyl_coordinates(np.eye(d)) - np.sqrt(d) * np.eye(d * d)[0]).max() < 1e-14
    a = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    assert np.abs(_weyl_coordinates(a) - a.reshape(3, -1) @ u.T).max() < 1e-13


def test_omega_entries():
    # the vec-basis reference (1/2)(|00> + |11>)(<00| + <11|) in Weyl coordinates
    expected = np.zeros((4, 4))
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[i, j] = 0.5
    u = weyl_unitary(2)
    assert np.abs(omega(2) - u @ expected @ u.conj().T).max() < 1e-14
    # the projector onto coordinate 0, I / sqrt(d)
    assert omega(2)[0, 0] == 1.0 and np.count_nonzero(omega(2)) == 1


def test_omega_trace_and_marginal():
    for d in range(2, 8):
        w = omega(d)
        assert abs(np.trace(w) - 1.0) < 1e-12
        marg = partial_trace(to_vec_coordinates(w), [d, d], {0})
        assert np.abs(marg - np.eye(d) / d).max() < 1e-12


def test_omega_is_projector():
    w = omega(4)
    assert np.abs(w @ w - w).max() < 1e-12


def test_z_matrix_canonical():
    z = z_matrix(canonical_basis(2))
    u = weyl_unitary(2)
    assert np.abs(z - u @ np.diag([1.0, 0.0, 0.0, 1.0]) @ u.conj().T).max() < 1e-14


def test_z_matrix_is_rank_d_projector(rng):
    for d in (2, 3, 5):
        e = random_basis(rng, d)
        z = z_matrix(e)
        assert np.abs(z @ z - z).max() < 1e-10
        assert abs(np.trace(z) - d) < 1e-12


def test_z_omega_overlap(rng):
    # unit overlap with the maximally entangled state for any basis
    for d in (2, 3, 4):
        for _ in range(5):
            z = z_matrix(random_basis(rng, d))
            assert abs(np.vdot(z, omega(d)) - 1.0) < 1e-10


def test_z_overlap_unbiased():
    for d in (2, 3, 5):
        zc = z_matrix(canonical_basis(d))
        zf = z_matrix(fourier_basis(d))
        assert abs(np.vdot(zc, zf) - 1.0) < 1e-10


def test_g_matrix_identity_channel(rng):
    for d in (2, 3):
        e = random_basis(rng, d)
        g = g_matrix(make_identity(d), e)
        assert np.abs(g - z_matrix(e)).max() < 1e-12


def test_g_matrix_fully_depolarizing(rng):
    for d in (2, 3):
        g = g_matrix(make_depolarizing(d, 0.0), random_basis(rng, d))
        assert np.abs(g - omega(d)).max() < 1e-12


def test_g_matrix_noise_scaling_depolarizing(rng):
    d = 3
    e = random_basis(rng, d)
    for t in (0.0, 0.3, 1.0):
        g = g_matrix(make_depolarizing(d, t), e)
        expected = t * t * z_matrix(e) + (1 - t * t) * omega(d)
        assert np.abs(g - expected).max() < 1e-12


def test_g_matrix_noise_scaling_schur(rng):
    # mixing toward the fully depolarizing channel scales G quadratically
    d = 3
    b = random_schur_matrix(rng, d)
    base = make_schur(b)
    e = random_basis(rng, d)
    g0 = g_matrix(base, e)
    for t in (0.0, 0.3, 1.0):
        mixed_choi = t * base.choi + (1 - t) * np.eye(d * d) / d
        from qincompat import Channel

        mixed = Channel(d, d, mixed_choi, label="mixed")
        g = g_matrix(mixed, e)
        expected = t * t * g0 + (1 - t * t) * omega(d)
        assert np.abs(g - expected).max() < 1e-12


def test_g_matrix_povm_trivial():
    p = Povm(2, (np.eye(2),))
    g = g_matrix_povm(p)
    assert np.abs(g - omega(2)).max() < 1e-12


def test_g_matrix_povm_canonical_projectors():
    p = Povm(2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    g = g_matrix_povm(p)
    assert np.abs(g - z_matrix(canonical_basis(2))).max() < 1e-12


def test_g_matrix_povm_coin_flip():
    p = Povm(2, (np.eye(2) / 2, np.eye(2) / 2))
    g = g_matrix_povm(p)
    assert np.abs(g - omega(2)).max() < 1e-12


def test_g_matrix_povm_agrees_with_channel_route(rng):
    from helpers import random_channel

    c = random_channel(rng, 3)
    e = random_basis(rng, 3)
    via_channel = g_matrix(c, e)
    via_povm = g_matrix_povm(induced_povm(c, e))
    assert np.abs(via_channel - via_povm).max() < 1e-12


def test_g_matrix_skips_zero_effects():
    p = Povm(2, (np.eye(2), np.zeros((2, 2))))
    g = g_matrix_povm(p)
    assert np.abs(g - omega(2)).max() < 1e-12


def test_g_dominates_omega_on_random_povms(rng):
    for _ in range(200):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        g = g_matrix_povm(random_povm(rng, d, k))
        assert np.linalg.eigvalsh(g - omega(d))[0] >= -1e-9
    for _ in range(100):
        d = int(rng.integers(2, 6))
        g = g_matrix(random_channel(rng, d), random_basis(rng, d))
        assert np.linalg.eigvalsh(g - omega(d))[0] >= -1e-9


def _reference_g_matrix(c, e):
    """Per-vector formula: A_s = Phi*(|e_s><e_s|), G = sum_s vec(A_s) vec(A_s)^dag / Tr A_s."""
    g = np.zeros((c.d * c.d,) * 2, dtype=np.complex128)
    for v in e:
        a = adjoint_apply(c, np.outer(v, v.conj()))
        tr = np.trace(a).real
        if tr > 1e-12:
            g += np.outer(a.reshape(-1), a.reshape(-1).conj()) / tr
    return g


def _replacement_channel(d):
    """rho -> |0><0|, whose Phi* sends every |e><e| to |<0|e>|^2 I."""
    zero = np.zeros((d, d))
    zero[0, 0] = 1.0
    return Channel(d, d, np.kron(np.eye(d), zero), label="replace-by-0")


def test_g_matrix_matches_per_vector_reference(rng):
    # the reference is written in vec coordinates, G-matrices in Weyl ones
    for d in (2, 3, 5):
        u = weyl_unitary(d)
        for _ in range(5):
            c, e = random_channel(rng, d), random_basis(rng, d)
            expected = u @ _reference_g_matrix(c, e) @ u.conj().T
            assert np.abs(g_matrix(c, e) - expected).max() < 1e-12
    for d in (2, 3):
        u = weyl_unitary(d)
        c = _replacement_channel(d)
        # the |1>, ..., |d-1> effects have zero trace and are skipped
        assert np.abs(adjoint_apply(c, np.diag(np.eye(d)[1]))).max() == 0.0
        g = g_matrix(c, canonical_basis(d))
        expected = u @ _reference_g_matrix(c, canonical_basis(d)) @ u.conj().T
        assert np.abs(g - expected).max() < 1e-12
        assert np.abs(g - omega(d)).max() < 1e-12


def test_g_matrix_rejects_dimension_below_two():
    c = make_identity(1)
    with pytest.raises(ValueError, match="at least 2"):
        g_matrix(c, np.eye(1))
    with pytest.raises(ValueError, match="at least 2"):
        g_matrix_povm(Povm(1, (np.eye(1),)))


def test_z_matrix_rejects_dimension_below_two():
    # z_matrix is the G-matrix of the basis projectors: d >= 2, like omega
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        z_matrix(np.eye(1))


def test_g_matrix_rejects_basis_of_wrong_dimension():
    with pytest.raises(ValueError, match=r"basis dimension 3 .* output dimension 2"):
        g_matrix(make_identity(2), canonical_basis(3))


def test_beta_identity_and_all_ones():
    assert beta(np.eye(4)) == 0.0
    for d in (2, 3, 5):
        assert abs(beta(np.ones((d, d))) - 1.0) < 1e-12


def test_beta_figure_matrix():
    # off-diagonal weight 2 * 0.25 over d(d-1) = 2
    assert abs(beta(np.array([[1.0, 0.5], [0.5, 1.0]])) - 0.25) < 1e-15


def test_beta_right_panel_matrix():
    r = np.sqrt(0.75)
    assert abs(beta(np.array([[1.0, r], [r, 1.0]])) - 0.75) < 1e-12


def test_beta_requires_unit_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        beta(np.diag([2.0, 1.0]))


def test_beta_bounds_on_random_schur_matrices(rng):
    for _ in range(200):
        d = int(rng.integers(2, 6))
        b = random_schur_matrix(rng, d)
        val = beta(b)
        assert -1e-12 <= val <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_beta_diagonal_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    b = random_schur_matrix(rng, 4)
    phases = np.exp(2j * np.pi * rng.uniform(size=4))
    d_mat = np.diag(phases)
    rotated = d_mat @ b @ d_mat.conj().T
    assert abs(beta(rotated) - beta(b)) < 1e-10


def test_fourier_basis_d2():
    f = fourier_basis(2)
    s = 1 / np.sqrt(2)
    assert np.abs(f - np.array([[s, s], [s, -s]])).max() < 1e-14


def test_fourier_unbiased_to_canonical():
    for d in range(2, 8):
        # |<e_i, f_j>| for every pair of rows
        overlaps = np.abs(canonical_basis(d).conj() @ fourier_basis(d).T)
        assert np.abs(overlaps - 1.0 / np.sqrt(d)).max() < 1e-12


def test_fourier_gram():
    f = fourier_basis(5)
    gram = f.conj() @ f.T
    assert np.abs(gram - np.eye(5)).max() < 1e-12


def test_mub_family_sizes():
    assert len(mub_family(2)) == 3
    assert len(mub_family(3)) == 4
    assert len(mub_family(5)) == 6
    assert len(mub_family(7)) == 8


def test_mub_family_pairwise_unbiased():
    for d in (2, 3, 5):
        fam = mub_family(d)
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                overlaps = np.abs(fam[i].conj() @ fam[j].T)
                assert np.abs(overlaps - 1.0 / np.sqrt(d)).max() < 1e-9


def test_mub_family_nonprime_error():
    with pytest.raises(ValueError, match="prime"):
        mub_family(4)


def test_mub_second_member_is_fourier():
    for d in (2, 3, 5):
        fam = mub_family(d)
        assert np.abs(fam[1] - fourier_basis(d)).max() < 1e-12


def test_orthogonal_modulo_omega_schur(rng):
    b = random_schur_matrix(rng, 3)
    c = random_schur_matrix(rng, 3)
    g1 = g_matrix(make_schur(b), canonical_basis(3))
    g2 = g_matrix(make_schur(c), fourier_basis(3))
    assert orthogonal_modulo_omega(g1, g2, 1e-10)


def test_orthogonal_modulo_omega_self_is_false():
    g = g_matrix(make_identity(3), canonical_basis(3))
    # squared distance of Z - omega from zero is d - 1 > 0
    assert not orthogonal_modulo_omega(g, g, 1e-10)


def test_orthogonal_modulo_omega_mub_scaled():
    d = 3
    fam = mub_family(d)
    gs = [
        g_matrix(make_depolarizing(d, t), e)
        for t, e in zip((0.9, 0.5, 0.7), fam)
    ]
    for i in range(len(gs)):
        for j in range(i + 1, len(gs)):
            assert orthogonal_modulo_omega(gs[i], gs[j], 1e-10)


def test_z_minus_omega_orthogonality_for_unbiased_pairs():
    for d in (2, 3, 5):
        w = omega(d)
        za = z_matrix(canonical_basis(d)) - w
        zb = z_matrix(fourier_basis(d)) - w
        assert abs(np.vdot(za, zb)) < 1e-10
