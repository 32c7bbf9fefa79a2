import dataclasses
import math
import warnings

import numpy as np
import pytest

import qincompat.region as region
from qincompat import (
    Channel,
    VerdictKind,
    make_depolarizing,
    make_identity,
    make_schur,
    select_bases,
    zhu_criterion_channels,
)
from qincompat import sdp
from qincompat.criteria import exact_depolarizing_pair
from qincompat.linalg import partial_trace
from qincompat.sdp import SolverStatus
from qincompat.region import (
    RayResult,
    _is_unital,
    _unital_criterion_radius,
    bisect_boundary,
    dataset_to_csv,
    emit_figure1_data,
    emit_figure2_data,
    exact_pair_root,
    mix_toward_depolarizing,
    ray_directions,
    region_report_to_dataset,
    scan_rays,
)
from helpers import fail_cholesky_after_first_call

SQ2 = math.sqrt(2.0)


def test_axis_ray_radius_one():
    chans = [make_identity(2), make_identity(2)]
    report = scan_rays(chans, [(1.0, 0.0)], use_oracle=True, bisect_tol=1e-3)
    ray = report.rays[0]
    # a channel paired with the fully depolarizing one stays compatible
    assert ray.criterion_radius == 1.0
    assert ray.oracle_radius == 1.0


def test_scan_rejects_empty_channel_list():
    with pytest.raises(ValueError, match="at least one channel"):
        scan_rays([], [(1.0,)])


def test_identity_pair_diagonal():
    chans = [make_identity(2), make_identity(2)]
    u = (1.0 / SQ2, 1.0 / SQ2)
    report = scan_rays(chans, [u], use_oracle=True, bisect_tol=1e-3)
    ray = report.rays[0]
    # criterion circle: coordinate 1/sqrt(2); exact boundary: coordinate 2/3
    assert abs(ray.criterion_radius / SQ2 - 1.0 / SQ2) < 2e-3
    assert abs(ray.oracle_radius / SQ2 - 2.0 / 3.0) < 2e-3
    assert ray.oracle_radius <= ray.criterion_radius + 1e-4


def test_schur_pair_diagonal_criterion():
    from qincompat import make_schur

    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    chans = [make_schur(b), make_schur(b)]
    u = (1.0 / SQ2, 1.0 / SQ2)
    report = scan_rays(chans, [u], bisect_tol=1e-3)
    # coordinate solves (1 + beta) x^2 = 1 with beta = 1/4
    assert abs(report.rays[0].criterion_radius / SQ2 - 1.0 / math.sqrt(1.25)) < 2e-3


def test_scan_rejects_bad_directions():
    chans = [make_identity(2), make_identity(2)]
    with pytest.raises(ValueError, match="unit"):
        scan_rays(chans, [(1.0, 1.0)])
    with pytest.raises(ValueError, match="orthant"):
        scan_rays(chans, [(-1.0, 0.0)])
    for tol in (1e-5, 1.0, 5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bisect_tol"):
            scan_rays(chans, [(1.0, 0.0)], bisect_tol=tol)


def test_bisect_brackets_converge():
    calls = []

    def inside(r):
        calls.append(r)
        return r <= 0.61803

    r = bisect_boundary(inside, 1.0, 1e-3)
    assert inside(r)
    assert not inside(r + 2e-3)
    assert abs(r - 0.61803) <= 1e-3


def test_ray_directions():
    dirs = ray_directions(2, 8)
    assert len(dirs) == 8
    for u in dirs:
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="pairs"):
        ray_directions(3, 4)


def test_exact_pair_root_values():
    assert abs(exact_pair_root(2, 2.0 / 3.0) - 2.0 / 3.0) < 1e-12
    assert abs(exact_pair_root(2, 1.0) - 0.0) < 1e-12
    assert abs(exact_pair_root(2, 0.0) - 1.0) < 1e-12
    # the root satisfies the defining equation
    for d in (2, 5, 20):
        for s in (0.1, 0.5, 0.9):
            t = exact_pair_root(d, s)
            lhs = t + s - (2.0 / d) * math.sqrt((1.0 - t) * (1.0 - s))
            assert abs(lhs - 1.0) < 1e-12


def test_figure2_dataset():
    data = emit_figure2_data([2, 5, 20], 32)
    assert data["columns"] == ["d", "s", "t_exact", "t_criterion"]
    assert len(data["rows"]) == 3 * 32
    for row in data["rows"]:
        _, s, t_exact, t_criterion = row
        assert t_exact <= t_criterion + 1e-9


def test_figure2_resolution_check():
    with pytest.raises(ValueError, match="resolution"):
        emit_figure2_data([2], 8)


def test_figure1_criterion_only():
    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    data = emit_figure1_data(b, b, 11)
    assert len(data["rows"]) == 121
    by_point = {(row[0], row[1]): row[2] for row in data["rows"]}
    assert by_point[(1.0, 0.0)] is True
    assert by_point[(0.9, 0.9)] is False  # 0.81 * 1.25 = 1.0125 > 1
    assert abs(data["meta"]["beta_b"] - 0.25) < 1e-12


def test_figure1_oracle_soundness_small_grid():
    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    data = emit_figure1_data(b, b, 4, use_oracle=True)
    for s, t, criterion_inside, oracle_ok in data["rows"]:
        if oracle_ok:
            assert criterion_inside
    pts = data["meta"]["boundary_points"]
    assert pts["axis_s"] == 1.0 and pts["axis_t"] == 1.0
    assert pts["diagonal_coordinate"] <= 1.0 / math.sqrt(1.25) + 2e-3


def test_dataset_csv_and_region_dataset():
    data = emit_figure2_data([2], 16)
    text = dataset_to_csv(data)
    lines = text.strip().split("\n")
    assert lines[0] == "d,s,t_exact,t_criterion"
    assert len(lines) == 17

    report_ds = region_report_to_dataset(
        type(
            "R",
            (),
            {
                "rays": (
                    RayResult((1.0, 0.0), 1.0, None),
                ),
                "channel_labels": ("a", "b"),
            },
        )()
    )
    assert report_ds["columns"][:2] == ["u0", "u1"]
    csv_text = dataset_to_csv(report_ds)
    assert csv_text.splitlines()[1] == "1.0,0.0,1.0,"


def test_figure1_symmetric_inputs_symmetric_output():
    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    data = emit_figure1_data(b, b, 7)
    by_point = {(round(r[0], 9), round(r[1], 9)): r[2] for r in data["rows"]}
    for (s, t), inside in by_point.items():
        assert by_point[(t, s)] == inside


def test_mix_toward_depolarizing_range():
    with pytest.raises(ValueError, match="outside"):
        mix_toward_depolarizing(make_identity(2), 1.2)


def test_determinism():
    chans = [make_identity(2), make_identity(2)]
    dirs = ray_directions(2, 3)
    a = scan_rays(chans, dirs, use_oracle=True)
    b = scan_rays(chans, dirs, use_oracle=True)
    assert a == b


def _scaled(chans, r, u):
    return [mix_toward_depolarizing(c, min(r * ui, 1.0)) for c, ui in zip(chans, u)]


def _criterion_certifies(chans, r, u):
    bases, labels = select_bases(chans[0].d, len(chans))
    verdict = zhu_criterion_channels(_scaled(chans, r, u), bases, basis_labels=labels)
    return verdict.kind is VerdictKind.INCOMPATIBLE_CERTIFIED


def _bisected_criterion_radius(chans, u, tol):
    r_max = 1.0 / max(u)
    return bisect_boundary(lambda r: not _criterion_certifies(chans, r, u), r_max, tol)


B_SCHUR = np.array([[1.0, 0.5], [0.5, 1.0]])


@pytest.mark.parametrize(
    "chans, u, exact",
    [
        # depolarizing pairs over unbiased bases: the circle sum (t_i r u_i)^2 = 1
        ([make_depolarizing(2, 0.9), make_depolarizing(2, 0.95)],
         (math.cos(0.6), math.sin(0.6)),
         1.0 / math.hypot(0.9 * math.cos(0.6), 0.95 * math.sin(0.6))),
        ([make_depolarizing(3, 1.0), make_depolarizing(3, 0.9)],
         (math.cos(1.0), math.sin(1.0)),
         1.0 / math.hypot(math.cos(1.0), 0.9 * math.sin(1.0))),
        # Schur pair, diagonal: coordinate 1 / sqrt(1 + beta), beta = 1/4
        ([make_schur(B_SCHUR), make_schur(B_SCHUR)], (1.0 / SQ2, 1.0 / SQ2),
         SQ2 / math.sqrt(1.25)),
        # identity triple over the qubit unbiased bases: the unit sphere
        ([make_identity(2)] * 3, (0.6, 0.48, 0.64), 1.0),
    ],
    ids=["qubit-depolarizing", "qutrit-depolarizing", "schur-diagonal", "identity-triple"],
)
def test_unital_criterion_radius_is_one_sdp(chans, u, exact, monkeypatch):
    tol = 1e-3
    u = np.array(u)
    bases, _ = select_bases(chans[0].d, len(chans))
    one_shot = _unital_criterion_radius(chans, bases, u, 1.0 / u.max(), tol)
    assert one_shot is not None
    assert abs(one_shot - exact) < 1e-5

    sdp_calls = []
    solve = region.solve_domination
    monkeypatch.setattr(region, "solve_domination",
                        lambda *a, **k: sdp_calls.append(None) or solve(*a, **k))
    ray = scan_rays(chans, [u], bisect_tol=tol).rays[0]
    monkeypatch.undo()
    assert len(sdp_calls) == 1
    assert ray.criterion_radius == one_shot

    assert abs(ray.criterion_radius - _bisected_criterion_radius(chans, u, tol)) <= tol
    assert not _criterion_certifies(chans, ray.criterion_radius, u)
    assert _criterion_certifies(chans, ray.criterion_radius + tol, u)


def test_unital_ray_bisects_when_its_sdp_fails(monkeypatch):
    chans = [make_depolarizing(2, 0.9), make_depolarizing(2, 0.95)]
    u = (math.cos(0.6), math.sin(0.6))
    solve = region.solve_domination
    monkeypatch.setattr(region, "solve_domination", lambda problem: dataclasses.replace(
        solve(problem), status=SolverStatus.MAX_ITERATIONS))
    ray = scan_rays(chans, [u], bisect_tol=1e-3).rays[0]
    assert ray.criterion_radius == _bisected_criterion_radius(chans, u, 1e-3)


def _exact_dep_pair_radius(ts, u):
    lo, hi = 0.0, 1.0 / max(u)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        s, t = (ti * mid * ui for ti, ui in zip(ts, u))
        lo, hi = (mid, hi) if exact_depolarizing_pair(2, s, t) else (lo, mid)
    return lo


@pytest.mark.parametrize(
    "ts, angle", [((1.0, 1.0), math.pi / 4), ((0.9, 0.95), 0.6), ((0.85, 1.0), 1.0)]
)
def test_oracle_ray_regula_falsi(ts, angle, monkeypatch):
    tol = 1e-3
    chans = [make_depolarizing(2, t) for t in ts]
    u = (math.cos(angle), math.sin(angle))
    solves = []
    solve = region.solve_joint_channel
    monkeypatch.setattr(region, "solve_joint_channel",
                        lambda pair: solves.append(None) or solve(pair))
    ray = scan_rays(chans, [u], use_oracle=True, bisect_tol=tol).rays[0]
    monkeypatch.undo()
    # one solve at the ray's end, then the radius SDP
    assert len(solves) == 1
    r = ray.oracle_radius
    assert abs(r - _exact_dep_pair_radius(ts, u)) <= tol
    assert solve(_scaled(chans, r, u)).status is not region.Feasibility.INFEASIBLE
    assert solve(_scaled(chans, r + tol, u)).status is region.Feasibility.INFEASIBLE


@pytest.mark.parametrize(
    "ts, angle",
    [((1.0, 1.0), math.pi / 4), ((0.9, 0.95), 0.6), ((0.85, 1.0), 1.0),
     ((1.0, 1.0), 0.003), ((1.0, 0.95), 1.2)],
)
def test_radius_sdp_brackets_the_exact_root(ts, angle):
    u = (math.cos(angle), math.sin(angle))
    lo, hi = sdp._joint_channel_radius([make_depolarizing(2, t) for t in ts], u)
    assert lo <= _exact_dep_pair_radius(ts, u) <= hi
    assert hi - lo <= sdp.FEASIBILITY_GAP_COARSE


def test_radius_sdp_identity_triple_meets_werner():
    u = np.ones(3) / math.sqrt(3.0)
    lo, hi = sdp._joint_channel_radius([make_identity(2)] * 3, u)
    # symmetric 1 -> 3 qubit cloning: coordinate (N + d) / (N (1 + d)) = 5/9
    assert lo * u[0] <= 5.0 / 9.0 <= hi * u[0]
    assert hi - lo <= sdp.FEASIBILITY_GAP_COARSE


def test_radius_sdp_stopped_at_its_start_has_no_upper_bound(monkeypatch):
    # at j0 = I / d^N the inverse slack has <U, E> = d^N Tr E = 0, so the
    # certificate cannot be scaled to <Y, E> = -1
    fail_cholesky_after_first_call(monkeypatch)
    chans = [make_depolarizing(2, 0.9), make_depolarizing(2, 0.95)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bracket = sdp._joint_channel_radius(chans, (math.cos(0.6), math.sin(0.6)))
    assert bracket == (0.0, math.inf)


def test_radius_sdp_witness_at_lo(monkeypatch):
    chans = [make_depolarizing(2, 0.9), make_identity(2)]
    u = (math.cos(0.6), math.sin(0.6))
    runs = []
    engine = sdp._max_affine_min_eig
    monkeypatch.setattr(sdp, "_max_affine_min_eig",
                        lambda *args: runs.append((args, engine(*args))) or runs[-1][1])
    lo, _ = sdp._joint_channel_radius(chans, u)
    (j0, basis, direction), (x, *_) = runs[0]
    witness = j0 + lo * direction + np.tensordot(x, basis, axes=1)
    assert np.linalg.eigvalsh(witness)[0] >= -1e-12
    for i, c in enumerate(_scaled(chans, lo, u)):
        marginal = partial_trace(witness, [2, 2, 2], {0, i + 1})
        assert np.abs(marginal - c.choi).max() <= 1e-9


def test_oracle_ray_bisects_when_the_radius_sdp_does_not_decide(monkeypatch):
    ts, tol = (0.9, 0.95), 1e-3
    chans = [make_depolarizing(2, t) for t in ts]
    u = (math.cos(0.6), math.sin(0.6))
    radius = sdp._joint_channel_radius

    def capped(*args):
        # too few Newton steps to close the bracket; the solves that bisect
        # keep the full budget
        with monkeypatch.context() as m:
            m.setattr(sdp, "_ORACLE_MAX_NEWTON_STEPS", 20)
            lo, hi = radius(*args)
        assert hi - lo > tol
        return lo, hi

    monkeypatch.setattr(region, "_joint_channel_radius", capped)
    ray = scan_rays(chans, [u], use_oracle=True, bisect_tol=tol).rays[0]
    assert abs(ray.oracle_radius - _exact_dep_pair_radius(ts, u)) <= tol
    assert ray.oracle_radius == bisect_boundary(
        lambda r: region._oracle_inside(chans, u, r), 1.0 / max(u), tol
    )


def _amplitude_damping(gamma):
    kraus = [np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]),
             np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])]
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2))
            e[i, j] = 1.0
            choi += np.kron(e, sum(k @ e @ k.T for k in kraus))
    return Channel(2, 2, choi, label=f"amplitude-damping({gamma})")


def test_non_unital_pair_bisects():
    chans = [_amplitude_damping(0.1), _amplitude_damping(0.2)]
    assert not any(_is_unital(c) for c in chans)
    assert all(_is_unital(c) for c in (make_identity(2), make_schur(B_SCHUR)))
    u = (math.cos(0.7), math.sin(0.7))
    ray = scan_rays(chans, [u], bisect_tol=1e-3).rays[0]
    expected = _bisected_criterion_radius(chans, u, 1e-3)
    assert expected < 1.0 / max(u)  # the criterion crosses inside the segment
    assert ray.criterion_radius == expected
