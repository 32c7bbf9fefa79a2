"""Random object generators and a solver fault shared across the test modules."""

import numpy as np

from qincompat import Channel, Povm, marginal_channel, sdp
from qincompat.linalg import partial_trace

_inv_chol = sdp._inv_chol


def fail_cholesky_after_first_call(monkeypatch):
    """Every ``sdp._inv_chol`` call after a solver's first, the Cholesky of
    each line search's accepted slack, fails, so no line search finds a step."""
    calls = []

    def first_call_only(s):
        calls.append(None)
        return _inv_chol(s) if len(calls) == 1 else None

    monkeypatch.setattr(sdp, "_inv_chol", first_call_only)


def random_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (a + a.conj().T) / 2.0


def random_psd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (a @ a.conj().T)


def random_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_basis(rng, d):
    # rows are the basis vectors
    return random_unitary(rng, d).T


def random_povm(rng, d, n_outcomes):
    raw = [random_psd(rng, d) for _ in range(n_outcomes)]
    total = sum(raw)
    w, v = np.linalg.eigh(total)
    root_inv = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Povm(d, tuple(root_inv @ a @ root_inv for a in raw))


def random_channel(rng, d_in, d_out=None, label="random"):
    d_out = d_in if d_out is None else d_out
    dim = d_in * d_out
    w = random_psd(rng, dim)
    marg = partial_trace(w, [d_in, d_out], {0})
    ev, v = np.linalg.eigh(marg)
    root_inv = v @ np.diag(1.0 / np.sqrt(ev)) @ v.conj().T
    lift = np.kron(root_inv, np.eye(d_out))
    return Channel(d_in, d_out, lift @ w @ lift.conj().T, label=label)


def random_schur_matrix(rng, d):
    a = random_psd(rng, d) + 0.05 * np.eye(d)
    scale = np.diag(1.0 / np.sqrt(np.diag(a).real))
    return scale @ a @ scale


def random_compatible_pair(rng, d):
    """Marginals of one random joint channel, so compatible by construction."""
    joint = random_channel(rng, d, d * d, label="joint")
    return (
        marginal_channel(joint, [d, d], 0),
        marginal_channel(joint, [d, d], 1),
    )
