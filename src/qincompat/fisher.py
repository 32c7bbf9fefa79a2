"""Fisher-information geometry at the maximally mixed state.

Each measurement (or channel combined with a measurement basis) gets a PSD
matrix on the doubled space H_d (x) H_d.  The trace of that matrix, in
excess of the dimension, is what the incompatibility criterion thresholds
on, and its overlap structure decides when the criterion has an analytic
value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, Povm, induced_povm
from .linalg import check_basis, check_hermitian, min_eigenvalue, vec

# Effects below this trace carry no statistics and would divide by dust.
ZERO_EFFECT_TOL = 1e-12
GMATRIX_PSD_TOL = 1e-9


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
    """Maximally entangled state (1/d) sum_{ij} |ii><jj| on H_d (x) H_d."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    v = vec(np.eye(d))
    return np.outer(v, v.conj()) / d


def z_matrix(e) -> np.ndarray:
    """Rank-d projector sum_i |e_i (x) conj(e_i)><e_i (x) conj(e_i)|.

    Equals the G-matrix of the identity channel measured in basis ``e``.
    """
    basis = check_basis(e)
    z = np.zeros((basis.shape[0] ** 2,) * 2, dtype=np.complex128)
    for row in basis:
        w = np.kron(row, row.conj())
        z += np.outer(w, w.conj())
    return z


@dataclass(frozen=True)
class GMatrix:
    """Fisher-information matrix of a measurement at the maximally mixed state.

    Dominates omega(d) in the PSD order for every POVM; that bound is
    checked on construction.
    """

    d: int
    m: np.ndarray

    def __post_init__(self):
        a = check_hermitian(self.m)
        if a.shape != (self.d * self.d,) * 2:
            raise ValueError(
                f"G-matrix has shape {a.shape}, expected dimension {self.d ** 2}"
            )
        lam = min_eigenvalue(a - omega(self.d))
        if lam < -GMATRIX_PSD_TOL:
            raise ValueError(
                f"G-matrix does not dominate the maximally entangled state: "
                f"min eigenvalue of G - omega is {lam:.3e}"
            )
        frozen = np.array(a)
        frozen.setflags(write=False)
        object.__setattr__(self, "m", frozen)


def g_matrix_povm(p: Povm) -> GMatrix:
    """G = sum_s |vec(A_s)><vec(A_s)| / Tr(A_s) over the nonzero effects."""
    g = np.zeros((p.d * p.d,) * 2, dtype=np.complex128)
    for eff in p.effects:
        tr = float(np.trace(eff).real)
        if tr <= ZERO_EFFECT_TOL:
            continue
        v = vec(eff)
        g += np.outer(v, v.conj()) / tr
    return GMatrix(p.d, g)


def g_matrix(c: Channel, e) -> GMatrix:
    """G-matrix of the measurement induced by channel ``c`` and basis ``e``."""
    c.d  # raises for a non-square channel
    return g_matrix_povm(induced_povm(c, e))


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
    if diag_defect > 1e-9:
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


@dataclass(frozen=True)
class MubFamily:
    """A family of pairwise unbiased orthonormal bases."""

    d: int
    bases: tuple = ()

    def __post_init__(self):
        bases = tuple(np.array(check_basis(b)) for b in self.bases)
        for b in bases:
            b.setflags(write=False)
        target = 1.0 / np.sqrt(self.d)
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                overlaps = np.abs(bases[i].conj() @ bases[j].T)
                defect = np.abs(overlaps - target).max()
                if defect > 1e-9:
                    raise ValueError(
                        f"bases {i} and {j} are not unbiased: "
                        f"overlap defect {defect:.3e}"
                    )
        object.__setattr__(self, "bases", bases)

    def __len__(self) -> int:
        return len(self.bases)


def mub_family(d: int) -> MubFamily:
    """The d + 1 pairwise unbiased bases of a prime dimension.

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
    return MubFamily(d, tuple(bases))


def orthogonal_modulo_omega(g1: GMatrix, g2: GMatrix, tol: float) -> bool:
    """True iff <g1 - omega, g2 - omega> vanishes within ``tol``."""
    if g1.d != g2.d:
        raise ValueError(f"dimension mismatch: {g1.d} vs {g2.d}")
    w = omega(g1.d)
    return abs(np.vdot(g1.m - w, g2.m - w)) <= tol
