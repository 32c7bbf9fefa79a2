"""Dense complex matrix primitives.

Shape, finiteness, Hermiticity and orthonormal-basis checks, row-major
vectorization and partial traces.  Every function is pure.  ``vec`` and
``partial_trace`` return fresh arrays; ``as_matrix``, ``check_square``,
``check_hermitian`` and ``check_basis`` return their input itself when it
is already a complex128 matrix, so a caller that keeps the result copies
it first.

Vectorization is row-major: ``vec(m)[d*i + j] == m[i, j]``.  With this
choice ``vec(|e><e|) == kron(e, conj(e))`` and ``vec(I)`` is the
unnormalized maximally entangled vector, which the channel module's Choi
matrices rely on; G-matrices are written in Weyl coordinates instead
(``qincompat.fisher``).
"""

from __future__ import annotations

import numpy as np

# Inputs are constructed analytically; Hermiticity drift beyond this is a bug.
HERMITICITY_RTOL = 1e-10

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    return a


def check_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_hermitian(m) -> np.ndarray:
    """Return ``m`` as a complex array, raising if it is not Hermitian or not finite."""
    a = check_square(m)
    scale = np.linalg.norm(a)
    # NaN passes every "defect > tol" test; a finite norm rules it out unscanned
    if not np.isfinite(scale) and not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry (NaN or infinity)")
    defect = np.linalg.norm(a - a.conj().T)
    if defect > HERMITICITY_RTOL * max(1.0, scale):
        raise ValueError(
            f"matrix is not Hermitian: ||M - M^dag|| = {defect:.3e} exceeds "
            f"tolerance {HERMITICITY_RTOL:.1e} (relative)"
        )
    return a


def check_basis(e) -> np.ndarray:
    """Validate an orthonormal basis of finite entries given as rows of a d x d array."""
    a = check_square(e)
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry (NaN or infinity)")
    gram = a.conj() @ a.T
    defect = np.abs(gram - np.eye(a.shape[0])).max()
    if defect > HERMITICITY_RTOL:
        raise ValueError(
            f"rows do not form an orthonormal basis: Gram defect {defect:.3e}"
        )
    return a


def vec(m) -> np.ndarray:
    """Row-major vectorization of a square matrix."""
    a = check_square(m)
    return a.reshape(-1).copy()


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    Parameters
    ----------
    m : array
        Square matrix on the tensor product of subsystems with dimensions
        ``dims`` (subsystem 0 first).
    dims : sequence of int
        Dimension of each tensor factor; their product must match ``m``.
    keep : iterable of int
        Zero-based indices of the subsystems to keep (nonempty).
    """
    a = check_square(m)
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if total != a.shape[0]:
        raise ValueError(
            f"dimension mismatch: product of dims is {total}, "
            f"but the matrix has dimension {a.shape[0]}"
        )
    k = len(dims)
    if k > len(_LETTERS) // 2:
        raise ValueError(f"too many subsystems ({k})")
    kept = sorted(set(int(i) for i in keep))
    if not kept:
        raise ValueError("keep must name at least one subsystem")
    if kept[0] < 0 or kept[-1] >= k:
        raise ValueError(f"keep indices {kept} out of range for {k} subsystems")

    row = list(_LETTERS[:k])
    col = list(_LETTERS[k:2 * k])
    for i in range(k):
        if i not in kept:
            col[i] = row[i]
    out = "".join(row[i] for i in kept) + "".join(col[i] for i in kept)
    expr = "".join(row) + "".join(col) + "->" + out
    t = a.reshape(dims + dims)
    reduced = np.einsum(expr, t)
    dk = int(np.prod([dims[i] for i in kept]))
    return np.ascontiguousarray(reduced.reshape(dk, dk))
