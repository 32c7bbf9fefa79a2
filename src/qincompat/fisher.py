"""Fisher-information geometry at the maximally mixed state.

Each measurement (or channel combined with a measurement basis) gets its
G-matrix, a PSD operator on the d^2-dimensional space of d x d operators,
held as a d^2 x d^2 array in Weyl coordinates: entry a d + b is the
coefficient on X^a Z^b / sqrt(d), with X|j> = |j + 1 mod d> and Z|j> =
exp(2 pi i j / d)|j>, an orthonormal basis whose member 0 is I / sqrt(d).
Every basis ``mub_family`` builds, and the canonical and Fourier bases of
any d, is an eigenbasis of Weyl operators (Wootters & Fields, Ann. Phys.
191, 363 (1989)), so its G-matrices are diagonal there.  The trace of a
common dominator of these matrices, in excess of the dimension, is what
the incompatibility criterion thresholds on, and their overlap structure
decides when the criterion has an analytic value; both, like every
relation the library reads off G-matrices, hold in any orthonormal
coordinates.  Every G-matrix dominates omega(d) by Cauchy-Schwarz over
the effects, so that bound is not checked at run time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .channels import VALIDATION_TOL, Channel, Povm, induced_effects
from .linalg import check_basis, check_hermitian

# Effects below this trace carry no statistics and would divide by dust.
ZERO_EFFECT_TOL = 1e-12


def canonical_basis(d: int) -> np.ndarray:
    """Standard basis, one vector per row."""
    return np.eye(d, dtype=np.complex128)


def fourier_basis(d: int) -> np.ndarray:
    """Fourier basis f_j(s) = exp(2*pi*i*j*s/d)/sqrt(d), rows f_j.

    The 1/sqrt(d) normalization keeps the rows orthonormal; it is unbiased
    to the canonical basis for every d >= 2.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    j, s = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * s / d) / np.sqrt(d)


def omega(d: int) -> np.ndarray:
    """G-matrix of the trivial measurement, the projector onto I / sqrt(d).

    In Weyl coordinates that is entry [0, 0] = 1 and zeros elsewhere (the
    maximally entangled state (1/d) sum_{ij} |ii><jj| in row-major vec
    coordinates).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    w = np.zeros((d * d, d * d), dtype=np.complex128)
    w[0, 0] = 1.0
    return w


def z_matrix(e) -> np.ndarray:
    """Rank-d projector sum_i |P_i><P_i| onto the span of the P_i = |e_i><e_i|.

    The G-matrix of the identity channel measured in basis ``e``, built
    from the basis projectors, which have unit trace; diagonal in Weyl
    coordinates when ``e`` is an eigenbasis of a Weyl operator.
    """
    basis = check_basis(e)
    return _g_from_effects(basis[:, :, None] * basis.conj()[:, None, :])


@functools.cache
def _weyl_table(d: int):
    """Read-only gather indices ((j + a) mod d, j) and F[j, b] = exp(-2 pi i j b / d) / sqrt(d)."""
    j = np.arange(d)
    out = ((j[:, None] + j) % d, j, np.exp(-2j * np.pi * np.outer(j, j) / d) / np.sqrt(d))
    for x in out:
        x.setflags(write=False)
    return out


def _weyl_coordinates(a: np.ndarray) -> np.ndarray:
    """w[..., a d + b] = tr((X^a Z^b)^+ A) / sqrt(d) of a stack of d x d matrices A.

    tr((X^a Z^b)^+ A) = sum_j A[j + a, j] exp(-2 pi i j b / d): one gather
    D[..., a, j] = A[(j + a) mod d, j] and one product with the d x d table
    F[j, b], which at d <= 4 costs less per call than an FFT.  The indices
    and table are built once per d: building them took two thirds of the
    call at d = 2.
    """
    d = a.shape[-1]
    rows, j, table = _weyl_table(d)
    return (a[..., rows, j] @ table).reshape(a.shape[:-2] + (d * d,))


def _g_from_effects(effects: np.ndarray) -> np.ndarray:
    """G = sum_s |w_s><w_s| / Tr(A_s) over a stack of effects A_s, w_s their Weyl coordinates.

    Effects whose trace is at most ``ZERO_EFFECT_TOL`` are skipped.
    """
    d = effects.shape[-1]
    if d < 2:
        raise ValueError("dimension must be at least 2")
    tr = np.trace(effects, axis1=1, axis2=2).real
    keep = tr > ZERO_EFFECT_TOL
    w = _weyl_coordinates(effects[keep])
    return (w.T / tr[keep]) @ w.conj()


def g_matrix_povm(p: Povm) -> np.ndarray:
    """G-matrix of a validated POVM, a d^2 x d^2 array in Weyl coordinates."""
    return _g_from_effects(np.array(p.effects))


def g_matrix(c: Channel, e) -> np.ndarray:
    """G-matrix of the measurement induced by channel ``c`` and basis ``e``.

    One contraction of the Choi matrix gives the d effects, and one product
    of their Weyl coordinates the d^2 x d^2 array.  Raises ``ValueError``
    for a non-square channel, a basis of another dimension, or d < 2.
    """
    c.d  # raises for a non-square channel
    return _g_from_effects(induced_effects(c, e))


def beta(b) -> float:
    """Normalized off-diagonal weight of a unit-diagonal matrix.

    beta(B) = sum_{i != j} |B_ij|^2 / (d (d - 1)), which lies in [0, 1]
    for PSD B with unit diagonal: 0 exactly at the identity, 1 exactly at
    rank-one matrices of unimodular entries.
    """
    a = check_hermitian(b)
    d = a.shape[0]
    if d < 2:
        raise ValueError("dimension must be at least 2")
    diag_defect = np.abs(np.diag(a) - 1.0).max()
    if diag_defect > VALIDATION_TOL:
        raise ValueError(
            f"matrix diagonal deviates from 1 by {diag_defect:.3e}; "
            "beta is defined for unit-diagonal matrices"
        )
    off = (np.abs(a) ** 2).sum() - (np.abs(np.diag(a)) ** 2).sum()
    return float(off / (d * (d - 1)))


# ---------------------------------------------------------------------------
# mutually unbiased bases
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def mub_family(d: int) -> tuple:
    """The d + 1 pairwise unbiased bases of a prime dimension, one vector per row.

    For d = 2 these are the three Pauli eigenbases.  For odd prime d the
    k-th basis has vectors e_j(s) = exp(2*pi*i*(k*s^2 + j*s)/d)/sqrt(d),
    preceded by the canonical basis.  The second member is always the
    Fourier basis.
    """
    if not is_prime(d):
        raise ValueError(f"MUB construction supported only for prime d, got {d}")
    bases = [canonical_basis(d)]
    if d == 2:
        s = 1.0 / np.sqrt(2.0)
        bases.append(np.array([[s, s], [s, -s]], dtype=np.complex128))
        bases.append(np.array([[s, 1j * s], [s, -1j * s]], dtype=np.complex128))
    else:
        j, s = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        for k in range(d):
            phase = (k * s * s + j * s) % d
            bases.append(np.exp(2j * np.pi * phase / d) / np.sqrt(d))
    return tuple(bases)


def orthogonal_modulo_omega(g1, g2, tol: float) -> bool:
    """True iff <g1 - omega, g2 - omega> vanishes within ``tol``.

    ``g1`` and ``g2`` are d^2 x d^2 G-matrices of one dimension d.
    """
    g1, g2 = np.asarray(g1), np.asarray(g2)
    if g1.shape != g2.shape:
        raise ValueError(f"shape mismatch: {g1.shape} vs {g2.shape}")
    w = omega(math.isqrt(g1.shape[0]))
    return abs(np.vdot(g1 - w, g2 - w)) <= tol
