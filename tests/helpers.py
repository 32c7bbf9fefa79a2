"""Random objects, noise scaling, a solver fault and a reference root finder shared by the tests."""

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


def mix_toward_depolarizing(channel, s: float):
    """Noise-scale a channel: s * Phi + (1 - s) * Delta as a Choi mixture."""
    d = channel.d
    delta_choi = np.eye(d * d) / d
    return Channel(d, d, s * channel.choi + (1.0 - s) * delta_choi,
                   label=f"{channel.label}*{s:.6f}")


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


def bisect_boundary(inside, r_max: float, tol: float) -> float:
    """Largest certified-inside radius along a ray, by bisection.

    ``inside`` must be monotone (single crossing) and true at 0, which is
    assumed, not probed.  For the criterion it always holds: each G_i(r)
    is a sum of x x^+ / tau with x and tau > 0 affine in r, so it is
    operator-convex, the criterion value is convex, and at r = 0 (every
    channel Delta, every G-matrix omega) it is 1 < d, so the radii the
    criterion does not certify form [0, r*] up to the solver gap.
    Returns a radius r with inside(r) true and inside(r') false for some
    r' <= r + tol, or r_max when the whole segment is inside.
    """
    if inside(r_max):
        return r_max
    lo, hi = 0.0, r_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo
