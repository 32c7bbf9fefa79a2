import math

import numpy as np
import pytest

from qincompat import (
    Povm,
    VerdictKind,
    canonical_basis,
    depolarizing_criterion,
    exact_depolarizing_pair,
    fourier_basis,
    make_depolarizing,
    make_identity,
    mub_family,
    schur_pair_criterion,
    select_bases,
    self_compat_threshold,
    solve_joint_channel,
    zhu_criterion_channels,
    zhu_criterion_povms,
)
from qincompat.criteria import oracle_verdict
from qincompat.sdp import Feasibility, FeasibilityResult
from helpers import fail_cholesky_after_first_call, random_basis


def test_depolarizing_pair_point_eight():
    d = 2
    fam = mub_family(d)
    chans = [make_depolarizing(d, 0.8)] * 2
    v = zhu_criterion_channels(chans, fam[:2])
    assert v.kind is VerdictKind.INCOMPATIBLE_CERTIFIED
    # closed form 1 + (d-1)(t^2 + s^2) = 2.28
    assert abs(v.value - 2.28) < 1e-6


def test_certified_just_above_threshold():
    # true value d + 5e-7: inside the old 1e-6 margin, but the dual bound
    # already clears d; on the threshold itself the bound stays below d
    d = 3
    bases, labels = select_bases(d, 2)
    for excess, kind in ((2.5e-7, VerdictKind.INCOMPATIBLE_CERTIFIED),
                         (0.0, VerdictKind.UNDETERMINED)):
        t2 = math.sqrt(1.0 + excess - 0.36)
        chans = [make_depolarizing(d, 0.6), make_depolarizing(d, t2)]
        v = zhu_criterion_channels(chans, bases, basis_labels=labels)
        assert v.kind is kind
        assert v.value > d


def test_two_fully_depolarizing_undetermined():
    d = 2
    chans = [make_depolarizing(d, 0.0)] * 2
    v = zhu_criterion_channels(chans, [canonical_basis(d), fourier_basis(d)])
    assert v.kind is VerdictKind.UNDETERMINED
    assert abs(v.value - 1.0) < 1e-6


def test_identity_pair_no_cloning():
    d = 2
    chans = [make_identity(d), make_identity(d)]
    v = zhu_criterion_channels(chans, [canonical_basis(d), fourier_basis(d)])
    assert v.kind is VerdictKind.INCOMPATIBLE_CERTIFIED
    assert abs(v.value - 3.0) < 1e-6


def test_criterion_counts_must_match():
    with pytest.raises(ValueError, match="bases"):
        zhu_criterion_channels([make_identity(2)], [])


def test_povm_criterion_canonical_fourier():
    pc = Povm(2, tuple(np.outer(v, v.conj()) for v in canonical_basis(2)))
    pf = Povm(2, tuple(np.outer(v, v.conj()) for v in fourier_basis(2)))
    v = zhu_criterion_povms([pc, pf])
    assert v.kind is VerdictKind.INCOMPATIBLE_CERTIFIED
    assert abs(v.value - 3.0) < 1e-6


def test_povm_criterion_single_povm_undetermined():
    pc = Povm(2, tuple(np.outer(v, v.conj()) for v in canonical_basis(2)))
    v = zhu_criterion_povms([pc])
    assert v.kind is VerdictKind.UNDETERMINED
    assert v.value <= 2.0 + 1e-6


@pytest.mark.parametrize("d", range(2, 12))
def test_single_measurement_never_certifies(d, rng):
    # one channel or one POVM is always compatible; measured in a basis,
    # the identity channel and the projective POVM both have criterion
    # value exactly d, so only round-off could lift a dual bound above it
    bases = [canonical_basis(d), fourier_basis(d)]
    if d <= 7:
        bases += [random_basis(rng, d) for _ in range(3)]
    for e in bases:
        povm = Povm(d, tuple(np.outer(v, v.conj()) for v in e))
        for v in (zhu_criterion_channels([make_identity(d)], [e]),
                  zhu_criterion_povms([povm])):
            assert v.kind is VerdictKind.UNDETERMINED
            assert abs(v.value - d) < 1e-6


def test_povm_criterion_trivial():
    p = Povm(2, (np.eye(2),))
    v = zhu_criterion_povms([p, p])
    assert v.kind is VerdictKind.UNDETERMINED
    assert abs(v.value - 1.0) < 1e-6


def _rotated_basis(theta):
    # the real qubit basis rotated by theta; rows are the basis vectors
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _qubit_triple():
    # the real qubit basis and its rotations by pi / 8 and 3 pi / 16: the
    # G-matrices do not commute, so the identity triple runs the barrier (19
    # Newton steps); any two of them are a pair, solved in closed form
    return [canonical_basis(2), _rotated_basis(np.pi / 8), _rotated_basis(3 * np.pi / 16)]


def _projective(basis):
    return Povm(2, tuple(np.outer(v, v.conj()) for v in basis))


def test_non_convergence_reports_solver_gap(monkeypatch):
    import qincompat.sdp as sdp

    monkeypatch.setattr(sdp, "_MAX_NEWTON_STEPS", 1)
    bases = _qubit_triple()
    chans = [make_identity(2)] * 3
    for v in (
        zhu_criterion_povms([_projective(e) for e in bases]),
        zhu_criterion_channels(chans, bases),
    ):
        assert v.kind is VerdictKind.UNDETERMINED and v.value is None
        assert "did not converge (max-iterations, gap " in v.certificate
    # the pair takes no Newton step, so the cap does not reach it
    v = zhu_criterion_channels(chans[:2], bases[:2])
    assert v.kind is VerdictKind.INCOMPATIBLE_CERTIFIED
    assert abs(v.value - (2.0 + np.sqrt(0.5))) < 1e-12


def test_failed_line_search_is_undetermined(monkeypatch):
    fail_cholesky_after_first_call(monkeypatch)
    bases = _qubit_triple()
    chans = [make_identity(2)] * 3
    v = zhu_criterion_channels(chans, bases)
    assert v.kind is VerdictKind.UNDETERMINED and v.value is None
    assert "did not converge (numerical-failure, gap " in v.certificate
    # the pair's closed form factors no slack
    v = zhu_criterion_channels(chans[:2], bases[:2])
    assert v.kind is VerdictKind.INCOMPATIBLE_CERTIFIED


def test_schur_pair_criterion_certifies():
    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    v = schur_pair_criterion(b, b, 0.9, 0.9)
    # beta = 0.25: 0.81 + 0.25 * 0.81 = 1.0125 > 1
    assert v.kind is VerdictKind.INCOMPATIBLE_CERTIFIED
    assert abs(v.value - (1.0 + 1.0125)) < 1e-12


def test_schur_pair_axis_point_undetermined():
    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    v = schur_pair_criterion(b, b, 1.0, 0.0)
    assert v.kind is VerdictKind.UNDETERMINED


def test_schur_all_ones_reduces_to_depolarizing():
    j2 = np.ones((2, 2))
    v = schur_pair_criterion(j2, j2, 0.8, 0.8)
    assert v.kind is VerdictKind.INCOMPATIBLE_CERTIFIED
    # beta(J) = 1 makes the test s^2 + t^2 > 1
    grid = np.linspace(0.0, 1.0, 11)
    for s in grid:
        for t in grid:
            lhs = schur_pair_criterion(j2, j2, s, t).kind
            rhs = depolarizing_criterion(2, [s, t]).kind
            assert lhs == rhs


def test_schur_criterion_agrees_with_sdp_route():
    from qincompat import make_schur
    from qincompat.region import mix_toward_depolarizing

    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    base = make_schur(b)
    for s, t in [(0.9, 0.9), (0.7, 0.5), (1.0, 1.0)]:
        analytic = schur_pair_criterion(b, b, s, t)
        chans = [mix_toward_depolarizing(base, s), mix_toward_depolarizing(base, t)]
        sdp = zhu_criterion_channels(
            chans, [canonical_basis(2), fourier_basis(2)]
        )
        assert abs(analytic.value - sdp.value) < 1e-5
        assert analytic.kind == sdp.kind


def test_depolarizing_criterion_cases():
    assert (
        depolarizing_criterion(2, [0.8, 0.8]).kind
        is VerdictKind.INCOMPATIBLE_CERTIFIED
    )
    # exact boundary stays undetermined
    n = 3
    v = depolarizing_criterion(2, [1.0 / np.sqrt(n)] * n)
    assert v.kind is VerdictKind.UNDETERMINED
    v = depolarizing_criterion(2, [0.6, 0.6])
    assert v.kind is VerdictKind.UNDETERMINED


def test_depolarizing_criterion_undetermined_is_oracle_feasible():
    res = solve_joint_channel([make_depolarizing(2, 0.6)] * 2)
    assert res.status is Feasibility.FEASIBLE


@pytest.mark.parametrize(
    "lam, gap, status, kind, evidence",
    [
        (2e-2, 3e-8, Feasibility.FEASIBLE, VerdictKind.COMPATIBLE_CERTIFIED,
         "witness lambda* = 2.000e-02 >= band"),
        (-5e-2, 1e-5, Feasibility.INFEASIBLE, VerdictKind.INCOMPATIBLE_CERTIFIED,
         "dual bound lambda* + gap = -4.999e-02 <= -band"),
        (-2e-7, 3e-7, Feasibility.MARGINAL, VerdictKind.UNDETERMINED,
         "bracket lambda* in [-2.000e-07, 1.000e-07]"),
    ],
    ids=["feasible", "infeasible", "marginal"],
)
def test_oracle_verdict_cites_its_evidence(lam, gap, status, kind, evidence):
    result = FeasibilityResult(lam, np.eye(2), status, gap=gap)
    verdict = oracle_verdict(result)
    assert verdict.kind is kind and verdict.value is None
    assert evidence in verdict.certificate


def test_depolarizing_criterion_errors():
    with pytest.raises(ValueError, match="prime"):
        depolarizing_criterion(4, [0.5, 0.5])
    with pytest.raises(ValueError, match="unbiased bases"):
        depolarizing_criterion(2, [0.5] * 4)


def test_depolarizing_criterion_matches_sdp_route(rng):
    for d in (2, 3):
        fam = mub_family(d)
        for _ in range(3):
            n = int(rng.integers(2, d + 2))
            ts = rng.uniform(0.0, 1.0, n)
            analytic = depolarizing_criterion(d, ts)
            sdp = zhu_criterion_channels(
                [make_depolarizing(d, t) for t in ts], fam[:n]
            )
            assert analytic.kind == sdp.kind
            assert abs(analytic.value - sdp.value) < 1e-5


def test_depolarizing_monotone():
    base = [0.9, 0.6]
    assert (
        depolarizing_criterion(2, base).kind is VerdictKind.INCOMPATIBLE_CERTIFIED
    )
    worse = [0.95, 0.7]
    assert (
        depolarizing_criterion(2, worse).kind is VerdictKind.INCOMPATIBLE_CERTIFIED
    )


def test_exact_depolarizing_pair():
    assert exact_depolarizing_pair(2, 2.0 / 3.0, 2.0 / 3.0)
    assert exact_depolarizing_pair(5, 1.0, 0.0)
    assert not exact_depolarizing_pair(2, 0.75, 0.75)
    for d in (0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            exact_depolarizing_pair(d, 0.5, 0.5)


def test_self_compat_threshold():
    assert abs(self_compat_threshold(2) - 2.0 / 3.0) < 1e-15
    assert abs(self_compat_threshold(4) - 0.6) < 1e-15
    assert abs(self_compat_threshold(10**9) - 0.5) < 1e-6


def test_exact_region_inside_criterion_circle():
    # the exactly-compatible set never escapes s^2 + t^2 <= 1
    grid = np.linspace(0.0, 1.0, 41)
    for s in grid:
        for t in grid:
            if exact_depolarizing_pair(2, float(s), float(t)):
                assert s * s + t * t <= 1.0 + 1e-9


def test_depolarizing_matches_sdp_route_d5():
    fam = mub_family(5)
    ts = [0.55, 0.4, 0.35]
    analytic = depolarizing_criterion(5, ts)
    sdp = zhu_criterion_channels(
        [make_depolarizing(5, t) for t in ts], fam[: len(ts)]
    )
    assert analytic.kind == sdp.kind
    assert abs(analytic.value - sdp.value) < 1e-5


def test_criterion_soundness_spot_check():
    # incompatibility certificates never contradict the exact condition
    for s in (0.5, 0.7, 0.8, 0.95):
        for t in (0.5, 0.7, 0.8, 0.95):
            if depolarizing_criterion(2, [s, t]).kind is (
                VerdictKind.INCOMPATIBLE_CERTIFIED
            ):
                assert not exact_depolarizing_pair(2, s, t)


def test_select_bases_policies():
    bases, names = select_bases(2, 2)
    assert names == ["canonical", "fourier"]
    assert np.abs(bases[0] - canonical_basis(2)).max() < 1e-12
    assert np.abs(bases[1] - fourier_basis(2)).max() < 1e-12
    bases, names = select_bases(3, 3)
    assert len(bases) == 3 and names[2] == "mub-2"
    bases, names = select_bases(4, 3)
    assert names == ["canonical", "fourier", "canonical"]


def test_schur_pair_rejects_bad_input():
    with pytest.raises(ValueError):
        schur_pair_criterion(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), 0.5, 0.5)
    with pytest.raises(ValueError, match="noise"):
        schur_pair_criterion(np.eye(2), np.eye(2), 1.5, 0.0)


def test_schur_pair_of_different_dimensions_is_rejected():
    qubit = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="share one square dimension"):
        schur_pair_criterion(qubit, np.eye(3), 0.9, 0.9)
