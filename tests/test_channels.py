import json

import numpy as np
import pytest

from qincompat import (
    Channel,
    ChannelValidationError,
    Povm,
    PovmValidationError,
    adjoint_apply,
    canonical_basis,
    channel_from_spec,
    induced_povm,
    make_depolarizing,
    make_identity,
    make_schur,
    marginal_channel,
    povm_from_spec,
)
from qincompat.channels import validate_channel
from qincompat.linalg import vec
from helpers import random_basis, random_channel, random_hermitian, random_schur_matrix


def test_depolarizing_extremes():
    d = 3
    ident = make_depolarizing(d, 1.0)
    v = vec(np.eye(d))
    assert np.abs(ident.choi - np.outer(v, v.conj())).max() < 1e-12
    delta = make_depolarizing(d, 0.0)
    assert np.abs(delta.choi - np.eye(d * d) / d).max() < 1e-12


def test_depolarizing_mid_is_valid():
    c = make_depolarizing(2, 0.5)
    validate_channel(c.choi, 2, 2)


def test_depolarizing_range_error():
    with pytest.raises(ValueError, match="outside"):
        make_depolarizing(2, 1.2)
    with pytest.raises(ValueError, match="outside"):
        make_depolarizing(2, -0.1)


def test_schur_all_ones_is_identity(rng):
    c = make_schur(np.ones((3, 3)))
    x = random_hermitian(rng, 3)
    assert np.abs(adjoint_apply(c, x) - x).max() < 1e-12


def test_schur_identity_matrix_is_dephasing(rng):
    c = make_schur(np.eye(3))
    x = random_hermitian(rng, 3)
    assert np.abs(adjoint_apply(c, x) - np.diag(np.diag(x))).max() < 1e-12


def test_schur_figure_matrix_valid():
    make_schur(np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_schur_errors_are_distinct():
    # the PSD message reports the least eigenvalue
    with pytest.raises(ChannelValidationError, match=r"positive semidefinite: eigenvalue -1\.000e\+00"):
        make_schur(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ChannelValidationError, match="diagonal"):
        make_schur(np.array([[2.0, 0.1], [0.1, 2.0]]))


def test_apply_identity_and_delta(rng):
    # both maps are self-adjoint: id* = id, Delta*(A) = Tr(A) I/d
    x = random_hermitian(rng, 2)
    assert np.abs(adjoint_apply(make_identity(2), x) - x).max() < 1e-12
    out = adjoint_apply(make_depolarizing(2, 0.0), x)
    assert np.abs(out - np.trace(x) * np.eye(2) / 2).max() < 1e-12


def test_apply_schur_is_hadamard_product(rng):
    b = random_schur_matrix(rng, 4)
    c = make_schur(b)
    for _ in range(5):
        x = random_hermitian(rng, 4)
        # Phi*(A) = conj(B) o A
        assert np.abs(adjoint_apply(c, x) - b.conj() * x).max() < 1e-12


def test_apply_preserves_trace(rng):
    c = random_channel(rng, 3)
    x = random_hermitian(rng, 3)
    # Tr Phi(X) = <I, Phi(X)> = Tr(Phi*(I) X)
    assert abs(np.trace(adjoint_apply(c, np.eye(3)) @ x) - np.trace(x)) < 1e-9


def test_adjoint_fixes_identity_of_trace_preserving_channel(rng):
    # Tr Phi(X) = Tr X for all X is Phi*(I) = I; it holds for every channel,
    # unital (Phi(I) = I) or not, such as a random one
    for c in (make_depolarizing(3, 0.7), random_channel(rng, 3)):
        out = adjoint_apply(c, np.eye(3))
        assert np.abs(out - np.eye(3)).max() < 1e-9


def test_adjoint_of_delta():
    c = make_depolarizing(3, 0.0)
    p = np.zeros((3, 3), dtype=complex)
    p[0, 0] = 1.0
    assert np.abs(adjoint_apply(c, p) - np.eye(3) / 3).max() < 1e-12


def test_adjoint_duality(rng):
    c = random_channel(rng, 3)
    for _ in range(100):
        rho = random_hermitian(rng, 3)
        a = random_hermitian(rng, 3)
        # <A, Phi(rho)> = Tr(choi (rho^T (x) A)) for Hermitian A
        lhs = np.trace(c.choi @ np.kron(rho.T, a))
        rhs = np.vdot(adjoint_apply(c, a), rho)
        assert abs(lhs - rhs) < 1e-9


def test_induced_povm_identity(rng):
    e = random_basis(rng, 3)
    p = induced_povm(make_identity(3), e)
    for i, eff in enumerate(p.effects):
        proj = np.outer(e[i], e[i].conj())
        assert np.abs(eff - proj).max() < 1e-12


def test_induced_povm_delta():
    p = induced_povm(make_depolarizing(3, 0.0), canonical_basis(3))
    assert len(p) == 3
    for eff in p.effects:
        assert np.abs(eff - np.eye(3) / 3).max() < 1e-12


def test_induced_povm_schur_canonical(rng):
    b = random_schur_matrix(rng, 3)
    p = induced_povm(make_schur(b), canonical_basis(3))
    for i, eff in enumerate(p.effects):
        expected = np.zeros((3, 3))
        expected[i, i] = 1.0
        assert np.abs(eff - expected).max() < 1e-10


def test_induced_povm_sums_to_identity(rng):
    for _ in range(5):
        c = random_channel(rng, 3)
        p = induced_povm(c, random_basis(rng, 3))
        total = sum(p.effects)
        assert np.abs(total - np.eye(3)).max() < 1e-9


def test_unital_channel_unit_trace_effects(rng):
    b = random_schur_matrix(rng, 3)
    p = induced_povm(make_schur(b), random_basis(rng, 3))
    for eff in p.effects:
        assert abs(np.trace(eff) - 1.0) < 1e-10


def test_marginals_of_trivial_extension(rng):
    d = 2
    phi = random_channel(rng, d, label="phi")
    # joint X -> phi(X) (x) I/d carried as a Choi matrix
    ext = np.zeros((d * d * d, d * d * d), dtype=complex)
    t = phi.as_tensor()
    for i in range(d):
        for j in range(d):
            ext += np.kron(
                np.kron(np.eye(d)[:, [i]] @ np.eye(d)[[j], :], t[i, :, j, :]),
                np.eye(d) / d,
            )
    joint = Channel(d, d * d, ext, label="ext")
    m0 = marginal_channel(joint, [d, d], 0)
    assert np.abs(m0.choi - phi.choi).max() < 1e-9
    m1 = marginal_channel(joint, [d, d], 1)
    assert np.abs(m1.choi - make_depolarizing(d, 0.0).choi).max() < 1e-9


def test_marginal_factorization_mismatch(rng):
    joint = random_channel(rng, 2, 4)
    with pytest.raises(ValueError, match="factor"):
        marginal_channel(joint, [3, 2], 0)


def test_validator_rejects_mutants(rng):
    c = make_depolarizing(2, 0.5)
    lam = np.linalg.eigvalsh(c.choi)[0]
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    mutant = c.choi - 2.0 * lam * np.outer(v, v.conj())
    with pytest.raises(ChannelValidationError):
        validate_channel(mutant, 2, 2)


def test_channel_spec_choi_kind():
    # Choi matrix of the t = 0.3 qubit depolarizing channel, row-major
    rows = [
        [0.65, 0.0, 0.0, 0.3],
        [0.0, 0.35, 0.0, 0.0],
        [0.0, 0.0, 0.35, 0.0],
        [0.3, 0.0, 0.0, 0.65],
    ]
    spec = {
        "kind": "choi",
        "d_in": 2,
        "d_out": 2,
        "entries": [[x, 0.0] for row in rows for x in row],
    }
    again = channel_from_spec(json.loads(json.dumps(spec)))
    assert again.label == "choi(2->2)"
    assert np.abs(again.choi - make_depolarizing(2, 0.3).choi).max() < 1e-12


def test_channel_spec_bad_kind():
    with pytest.raises(ValueError, match="unknown channel kind"):
        channel_from_spec({"kind": "nope"})


@pytest.mark.parametrize("value", [1.5, True, "2", float("inf"), float("nan")])
def test_spec_dimension_must_be_an_integer(value):
    with pytest.raises(ValueError, match="dimension 'd' must be an integer"):
        channel_from_spec({"kind": "depolarizing", "d": value, "t": 0.5})
    with pytest.raises(ValueError, match="dimension 'd_in' must be an integer"):
        channel_from_spec({"kind": "choi", "d_in": value, "d_out": 2, "entries": []})
    with pytest.raises(ValueError, match="dimension 'd' must be an integer"):
        povm_from_spec({"kind": "povm", "d": value, "effects": []})


def test_spec_dimension_accepts_integral_floats():
    # JSON writers may emit 2.0 for an integer
    c = channel_from_spec({"kind": "depolarizing", "d": 2.0, "t": 0.5})
    assert c.d == 2 and isinstance(c.d, int)


def test_povm_spec():
    spec = {
        "kind": "povm",
        "d": 2,
        "effects": [
            [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
            [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
        ],
    }
    p = povm_from_spec(spec)
    assert len(p) == 2


def test_povm_validation():
    with pytest.raises(PovmValidationError, match="sum"):
        Povm(2, (np.eye(2) * 0.4, np.eye(2) * 0.4))
    with pytest.raises(PovmValidationError, match=r"^effect 1 is not positive semidefinite: eigenvalue -5\.000e-01"):
        Povm(2, (np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_depolarizing(0, 0.5),
        lambda: Channel(0, 0, np.zeros((0, 0))),
        lambda: Channel(2, 0, np.zeros((0, 0))),
        lambda: channel_from_spec({"kind": "choi", "d_in": 0, "d_out": 0, "entries": []}),
    ],
    ids=["depolarizing-d0", "channel-0-0", "channel-2-0", "choi-spec-0-0"],
)
def test_zero_dimension_channel_is_rejected(make):
    with pytest.raises(ChannelValidationError, match="at least 1"):
        make()


def test_zero_dimension_povm_is_rejected():
    for effects in ((), (np.zeros((0, 0)),)):
        with pytest.raises(PovmValidationError, match="at least 1"):
            Povm(0, effects)


def test_channel_arrays_frozen():
    c = make_depolarizing(2, 0.5)
    with pytest.raises(ValueError):
        c.choi[0, 0] = 9.0


@pytest.mark.parametrize("shape", [(16,), (2, 4, 2)], ids=["1d", "3d"])
def test_choi_that_is_not_a_matrix_is_rejected(shape):
    with pytest.raises(ChannelValidationError, match="expected a matrix"):
        Channel(2, 2, make_identity(2).choi.reshape(shape))


def test_effect_that_is_not_a_matrix_is_rejected():
    with pytest.raises(PovmValidationError, match="^effect 1: expected a matrix"):
        Povm(2, (np.eye(2), np.zeros(2)))


@pytest.mark.parametrize(
    "b, message",
    [(np.array([[1.0, 0.5], [0.1, 1.0]]), "not Hermitian"),
     (np.zeros((0, 0)), r"shape \(0, 0\), expected a non-empty square matrix")],
    ids=["non-hermitian", "empty"],
)
def test_bad_schur_matrix_is_a_channel_validation_error(b, message):
    with pytest.raises(ChannelValidationError, match=message):
        make_schur(b)


def test_each_matrix_is_hermitian_checked_once(monkeypatch):
    import qincompat.channels as channels
    import qincompat.linalg as linalg

    choi, checked = make_identity(2).choi, []
    check = linalg.check_hermitian
    for module in (channels, linalg):
        monkeypatch.setattr(module, "check_hermitian",
                            lambda m: checked.append(None) or check(m))
    Channel(2, 2, choi)
    assert len(checked) == 1
    Povm(2, (np.eye(2) / 4,) * 4)
    assert len(checked) == 1 + 4
    make_schur(np.array([[1.0, 0.5], [0.5, 1.0]]))  # the Schur matrix and its Choi matrix
    assert len(checked) == 1 + 4 + 2


def test_labelled_spec_is_validated_once(monkeypatch):
    import qincompat.channels as channels

    calls, validate = [], channels.validate_channel
    monkeypatch.setattr(channels, "validate_channel",
                        lambda *a: calls.append(None) or validate(*a))
    choi = make_depolarizing(2, 0.3).choi
    specs = [
        {"kind": "depolarizing", "d": 2, "t": 0.3},
        {"kind": "schur", "B": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]]},
        {"kind": "choi", "d_in": 2, "d_out": 2,
         "entries": [[z.real, z.imag] for z in choi.reshape(-1)]},
    ]
    for spec in specs:
        calls.clear()
        c = channel_from_spec(dict(spec, label="mine"))
        assert c.label == "mine" and len(calls) == 1
        assert np.array_equal(c.choi, channel_from_spec(spec).choi)
