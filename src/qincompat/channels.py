"""Quantum channels in the Choi representation, plus POVMs.

Choi convention: the input factor comes first,

    choi = sum_{ij} |i><j| (x) Phi(|i><j|),

so a channel d_in -> d_out is stored as a Hermitian matrix of size
d_in * d_out with tensor factors ordered (input, output).  Complete
positivity is positive semidefiniteness of the Choi matrix and trace
preservation is Tr_out(choi) = I_in.

Channel maps are square (d_in == d_out) in all criterion workflows, but
the type supports rectangular channels so joint channels returned by the
feasibility oracle fit the same container.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import check_basis, check_hermitian, partial_trace, vec

# Constructors are exact in exact arithmetic; this only absorbs float noise.
VALIDATION_TOL = 1e-9


class ChannelValidationError(ValueError):
    pass


class PovmValidationError(ValueError):
    pass


def _psd_matrix(m, size, error, name: str) -> np.ndarray:
    """``m`` as a read-only finite Hermitian PSD complex128 copy, else ``error``.

    ``size`` is the expected dimension, or None for any non-empty square
    matrix.  Shape and positivity messages name the matrix ``name``.  A
    channel has one matrix, so ``check_hermitian``'s messages go out bare;
    those of a POVM's effects start with the effect's name.
    """
    try:
        a = check_hermitian(np.array(m, dtype=np.complex128))
    except ValueError as exc:
        raise error(str(exc) if error is ChannelValidationError else f"{name}: {exc}") from exc
    if not len(a) or size is not None and len(a) != size:  # square by check_hermitian
        expected = "a non-empty square matrix" if size is None else f"({size}, {size})"
        raise error(f"{name} has shape {a.shape}, expected {expected}")
    lam = float(np.linalg.eigvalsh(a)[0])
    if lam < -VALIDATION_TOL:
        raise error(f"{name} is not positive semidefinite: eigenvalue {lam:.3e}")
    a.setflags(write=False)
    return a


def validate_channel(choi, d_in: int, d_out: int) -> np.ndarray:
    """``choi`` as a checked read-only array; ChannelValidationError unless CP + TP."""
    if d_in < 1 or d_out < 1:
        raise ChannelValidationError(
            f"dimensions must be at least 1, got {d_in} -> {d_out}"
        )
    a = _psd_matrix(choi, d_in * d_out, ChannelValidationError,
                    f"Choi matrix of a {d_in} -> {d_out} channel")
    marg = partial_trace(a, [d_in, d_out], keep={0})
    defect = np.abs(marg - np.eye(d_in)).max()
    if defect > VALIDATION_TOL:
        raise ChannelValidationError(
            f"not trace preserving: Tr_out(choi) deviates from identity by {defect:.3e}"
        )
    return a


@dataclass(frozen=True)
class Channel:
    """A completely positive trace-preserving map stored as its Choi matrix."""

    d_in: int
    d_out: int
    choi: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "choi", validate_channel(self.choi, self.d_in, self.d_out))

    @property
    def d(self) -> int:
        """Common dimension of a square channel."""
        if self.d_in != self.d_out:
            raise ValueError(
                f"channel {self.label!r} is {self.d_in} -> {self.d_out}, not square"
            )
        return self.d_in

    def as_tensor(self) -> np.ndarray:
        """Choi matrix reshaped to (in, out, in, out) axes."""
        return self.choi.reshape(self.d_in, self.d_out, self.d_in, self.d_out)


@dataclass(frozen=True)
class Povm:
    """A finite list of positive effects summing to the identity."""

    d: int
    effects: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "effects", validate_povm(self.effects, self.d))

    def __len__(self) -> int:
        return len(self.effects)


def validate_povm(effects, d: int) -> tuple:
    """The effects as checked read-only arrays; PovmValidationError unless a POVM."""
    if d < 1:
        raise PovmValidationError(f"dimension must be at least 1, got {d}")
    effects = tuple(_psd_matrix(e, d, PovmValidationError, f"effect {k}")
                    for k, e in enumerate(effects))
    if not effects:
        raise PovmValidationError("a POVM needs at least one effect")
    defect = np.abs(sum(effects) - np.eye(d)).max()
    if defect > VALIDATION_TOL:
        raise PovmValidationError(
            f"effects do not sum to the identity: max deviation {defect:.3e}"
        )
    return effects


def shared_dimension(items, kind: str = "channel") -> int:
    """Dimension d of a non-empty tuple of square channels, or of POVMs."""
    if not items:
        raise ValueError(f"at least one {kind} is required")
    d = items[0].d
    if any(x.d != d for x in items):
        shape = "square dimension" if kind == "channel" else "dimension"
        raise ValueError(f"all {kind}s must share one {shape}")
    return d


# ---------------------------------------------------------------------------
# named channel families
# ---------------------------------------------------------------------------

def _identity_choi(d: int) -> np.ndarray:
    v = vec(np.eye(d))
    return np.outer(v, v.conj())


def make_identity(d: int) -> Channel:
    return Channel(d, d, _identity_choi(d), label=f"identity(d={d})")


def make_depolarizing(d: int, t: float) -> Channel:
    """Mixture t * id + (1 - t) * Delta, Delta(X) = Tr(X) I/d."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(
            f"depolarizing parameter t={t} outside [0, 1]; the map is not "
            "completely positive there"
        )
    choi = t * _identity_choi(d) + (1.0 - t) * np.eye(d * d) / d
    return Channel(d, d, choi, label=f"depolarizing(d={d},t={t:g})")


def make_schur(b) -> Channel:
    """Entrywise multiplication X -> b o X for PSD b with unit diagonal."""
    a = _psd_matrix(b, None, ChannelValidationError, "Schur matrix")
    d = len(a)
    diag_defect = np.abs(np.diag(a) - 1.0).max()
    if diag_defect > VALIDATION_TOL:
        raise ChannelValidationError(
            f"Schur matrix diagonal deviates from 1 by {diag_defect:.3e}; "
            "the map would not be trace preserving"
        )
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    diag_pos = np.arange(d) * d + np.arange(d)
    choi[np.ix_(diag_pos, diag_pos)] = a
    return Channel(d, d, choi, label=f"schur(d={d})")


# ---------------------------------------------------------------------------
# channel action
# ---------------------------------------------------------------------------

def adjoint_apply(c: Channel, a) -> np.ndarray:
    """Heisenberg-picture action, <A, Phi(rho)> = <Phi*(A), rho>.

    ``a`` is one operator or a stack of them, shape (..., d_out, d_out).
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.shape[-2:] != (c.d_out, c.d_out):
        raise ValueError(
            f"operator has shape {m.shape}, channel output dimension is {c.d_out}"
        )
    return np.tensordot(m, c.as_tensor().conj(), axes=([-2, -1], [1, 3]))


def induced_effects(c: Channel, e) -> np.ndarray:
    """Stack of the effects Phi*(|e_s><e_s|) for the rows e_s of ``e``."""
    basis = check_basis(e)
    if basis.shape[0] != c.d_out:
        raise ValueError(
            f"basis dimension {basis.shape[0]} does not match output dimension {c.d_out}"
        )
    return adjoint_apply(c, basis[:, :, None] * basis[:, None, :].conj())


def induced_povm(c: Channel, e) -> Povm:
    """POVM with effects Phi*(|e_i><e_i|) for the rows e_i of ``e``."""
    return Povm(c.d_in, tuple(induced_effects(c, e)))


def marginal_channel(joint: Channel, dims, keep: int) -> Channel:
    """Marginal of a joint channel whose output factors as ``dims``."""
    dims = [int(d) for d in dims]
    if int(np.prod(dims)) != joint.d_out:
        raise ValueError(
            f"output dimension {joint.d_out} does not factor as {dims} "
            f"(product {int(np.prod(dims))})"
        )
    keep = int(keep)
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep={keep} out of range for {len(dims)} output factors")
    choi = partial_trace(joint.choi, [joint.d_in] + dims, keep={0, keep + 1})
    return Channel(
        joint.d_in, dims[keep], choi, label=f"{joint.label}[marginal {keep}]"
    )


# ---------------------------------------------------------------------------
# JSON channel specs (consumed by the CLI)
# ---------------------------------------------------------------------------

def _pair_to_complex(p) -> complex:
    re, im = p
    return complex(float(re), float(im))


def _matrix_from_pairs(rows) -> np.ndarray:
    return np.array(
        [[_pair_to_complex(p) for p in row] for row in rows], dtype=np.complex128
    )


def _spec_number(spec: dict, key: str, kind=float):
    """``spec[key]`` as a JSON number, not a bool or a string; integral for ``kind=int``."""
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        kind is int and not float(value).is_integer()
    ):
        rule = "dimension {!r} must be an integer" if kind is int else "{!r} must be a number"
        raise ValueError(f"{rule.format(key)}, got {value!r}")
    return kind(value)


def channel_from_spec(spec: dict) -> Channel:
    """Build a channel from its JSON description.

    Recognized kinds::

        {"kind": "depolarizing", "d": 2, "t": 0.8}
        {"kind": "schur", "B": [[[re, im], ...], ...]}
        {"kind": "choi", "d_in": 2, "d_out": 2, "entries": [[re, im], ...]}

    ``entries`` is the row-major flattening of the Choi matrix.  An optional
    ``label`` overrides the generated one.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("channel spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "depolarizing":
        c = make_depolarizing(_spec_number(spec, "d", int), _spec_number(spec, "t"))
    elif kind == "schur":
        c = make_schur(_matrix_from_pairs(spec["B"]))
    elif kind == "choi":
        d_in, d_out = _spec_number(spec, "d_in", int), _spec_number(spec, "d_out", int)
        entries = [_pair_to_complex(p) for p in spec["entries"]]
        dim = d_in * d_out
        if len(entries) != dim * dim:
            raise ValueError(
                f"choi spec has {len(entries)} entries, expected {dim * dim}"
            )
        choi = np.array(entries, dtype=np.complex128).reshape(dim, dim)
        c = Channel(d_in, d_out, choi, label=f"choi({d_in}->{d_out})")
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    if "label" in spec:  # c is checked and not yet shared, so relabel it in place
        object.__setattr__(c, "label", str(spec["label"]))
    return c


def povm_from_spec(spec: dict) -> Povm:
    """Build a POVM from ``{"kind": "povm", "d": 2, "effects": [matrix, ...]}``."""
    if not isinstance(spec, dict) or spec.get("kind") != "povm":
        raise ValueError("povm spec must be an object with kind 'povm'")
    d = _spec_number(spec, "d", int)
    effects = tuple(_matrix_from_pairs(rows) for rows in spec["effects"])
    return Povm(d, effects)
