import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import qincompat.cli as cli
import qincompat.criteria as criteria
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
from qincompat.channels import induced_effects
from qincompat.criteria import exact_depolarizing_pair
from qincompat.fisher import g_matrix, omega
from qincompat.sdp import SolverStatus
from qincompat.region import (
    RayResult,
    dataset_to_csv,
    emit_figure1_data,
    emit_figure2_data,
    exact_pair_root,
    ray_directions,
    region_report_to_dataset,
    scan_rays,
)
from helpers import (
    bisect_boundary,
    fail_cholesky_after_first_call,
    mix_toward_depolarizing,
    random_schur_matrix,
    random_unitary,
)

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
    # a NaN entry makes the norm NaN, which no tolerance admits
    nan = float("nan")
    for u in ((nan, 1.0), (1.0, nan), (nan, nan)):
        for use_oracle in (False, True):
            with pytest.raises(ValueError, match=r"direction \[.*nan.*\] is not a unit vector"):
                scan_rays(chans, [u], use_oracle=use_oracle)
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


def test_figure1_pair_of_different_dimensions_is_rejected():
    qubit = np.array([[1.0, 0.5], [0.5, 1.0]])
    for use_oracle in (False, True):
        with pytest.raises(ValueError, match="share one square dimension"):
            emit_figure1_data(qubit, np.eye(3), 3, use_oracle=use_oracle)


def test_figure1_symmetric_inputs_symmetric_output():
    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    data = emit_figure1_data(b, b, 7)
    by_point = {(round(r[0], 9), round(r[1], 9)): r[2] for r in data["rows"]}
    for (s, t), inside in by_point.items():
        assert by_point[(t, s)] == inside


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
    # unit-trace effects make v(r) = 1 + r^2 kappa exact, so the one solve at
    # the ray's end brackets the crossing from both sides
    tol = 1e-3
    u = np.array(u)
    sdp_calls = []
    solve = region.solve_domination
    monkeypatch.setattr(region, "solve_domination",
                        lambda *a, **k: sdp_calls.append(None) or solve(*a, **k))
    ray = scan_rays(chans, [u], bisect_tol=tol).rays[0]
    monkeypatch.undo()
    assert len(sdp_calls) == 1
    assert abs(ray.criterion_radius - exact) < 1e-5

    # kappa = min Tr K s.t. K >= u_i^2 (G_i - omega) reads the same radius
    d = chans[0].d
    bases, _ = select_bases(d, len(chans))
    kappa = sdp.solve_domination(sdp.DominationProblem(tuple(
        ui * ui * (g_matrix(c, e) - omega(d)) for c, e, ui in zip(chans, bases, u)))).value
    assert abs(ray.criterion_radius - min(1.0 / u.max(), math.sqrt((d - 1) / kappa))) < 1e-9

    assert abs(ray.criterion_radius - _bisected_criterion_radius(chans, u, tol)) <= tol
    assert not _criterion_certifies(chans, ray.criterion_radius, u)
    assert _criterion_certifies(chans, ray.criterion_radius + tol, u)


def _spec_files(tmp_path, specs):
    paths = []
    for i, spec in enumerate(specs):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(spec))
        paths.append(str(path))
    return paths


def _region_error(specs, capsys, *flags):
    """The one stderr line of a ``region`` run on ``specs`` that exits 1."""
    assert cli.main(["region", *specs, "--rays", "3", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_unital_ray_raises_when_its_sdp_fails(monkeypatch, tmp_path, capsys):
    # a criterion SDP that is not OPTIMAL is solver trouble, never a radius;
    # the one solve runs at the ray's end, r_max = 1 / 0.825336
    chans = [make_depolarizing(2, 0.9), make_depolarizing(2, 0.95)]
    u = (math.cos(0.6), math.sin(0.6))
    solve = region.solve_domination
    monkeypatch.setattr(region, "solve_domination", lambda problem: dataclasses.replace(
        solve(problem), status=SolverStatus.MAX_ITERATIONS))
    with pytest.raises(RuntimeError, match=r"u = \(0\.825336, 0\.564642\) at r = 1\.21163: "
                       r"criterion SDP did not converge \(max-iterations, gap "):
        scan_rays(chans, [u], bisect_tol=1e-3)
    specs = _spec_files(tmp_path, [{"kind": "depolarizing", "d": 2, "t": t}
                                   for t in (0.9, 0.95)])
    assert "criterion SDP did not converge (max-iterations" in _region_error(specs, capsys)


def test_unital_ray_straddling_its_end_is_one_sdp(monkeypatch):
    # the solve at the ray's end straddles the threshold d = 2 in units of v,
    # as on the identity pair's axis rays: its value puts the bracket's lower
    # end just below r_max, its dual bound certifies nothing, so the upper
    # end stays at r_max and the radius is r_max after that one solve
    chans = [make_depolarizing(2, 0.5), make_depolarizing(2, 0.6)]
    u = (math.cos(0.6), math.sin(0.6))
    r_max = 1.0 / max(u)
    calls = []
    solve = sdp.solve_domination

    def straddling(problem):
        calls.append(None)
        return dataclasses.replace(solve(problem), value=2.0 + 1e-7, lower_bound=2.0 - 1e-7)

    monkeypatch.setattr(region, "solve_domination", straddling)
    monkeypatch.setattr(criteria, "solve_domination",
                        lambda *a, **k: calls.append(None) or solve(*a, **k))
    ray = scan_rays(chans, [u], bisect_tol=1e-3).rays[0]
    assert ray.criterion_radius == r_max
    assert len(calls) == 1


def test_open_criterion_bracket_raises(monkeypatch):
    # an OPTIMAL solve whose bracket stays open (value 2.5 puts the lower end
    # at sqrt(1 / 1.5) r_max, a dual bound of 1.9 certifies nothing) is
    # never read as a radius
    chans = [make_depolarizing(2, 0.5), make_depolarizing(2, 0.6)]
    solve = region.solve_domination
    monkeypatch.setattr(region, "solve_domination", lambda problem: dataclasses.replace(
        solve(problem), value=2.5, lower_bound=1.9))
    with pytest.raises(RuntimeError, match=r"criterion radius along u = \(0\.825336, "
                       r"0\.564642\) not decided: bracket \[0\.98929, 1\.21163\]"):
        scan_rays(chans, [(math.cos(0.6), math.sin(0.6))], bisect_tol=1e-3)


def test_one_channel_scan_runs_the_empty_basis_engine():
    # one channel leaves the oracle no free direction: the witness is the
    # ray end's joint operator itself, measured against J(0)
    ray = scan_rays([make_depolarizing(2, 0.5)], [(1.0,)], use_oracle=True).rays[0]
    assert ray.criterion_radius == 1.0
    assert ray.oracle_radius == 1.0


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
def test_oracle_ray_is_one_radius_sdp(ts, angle, monkeypatch):
    tol = 1e-3
    chans = [make_depolarizing(2, t) for t in ts]
    u = (math.cos(angle), math.sin(angle))
    engine_runs, engine = [], sdp._max_affine_min_eig
    monkeypatch.setattr(sdp, "_max_affine_min_eig",
                        lambda *args: engine_runs.append(None) or engine(*args))
    ray = scan_rays(chans, [u], use_oracle=True, bisect_tol=tol).rays[0]
    monkeypatch.undo()
    # one lambda* solve at the ray's end, measured against J(0)
    assert len(engine_runs) == 1
    r = ray.oracle_radius
    assert abs(r - _exact_dep_pair_radius(ts, u)) <= tol
    solve = sdp.solve_joint_channel
    assert solve(_scaled(chans, r, u)).status is not sdp.Feasibility.INFEASIBLE
    assert solve(_scaled(chans, r + tol, u)).status is sdp.Feasibility.INFEASIBLE


@pytest.mark.parametrize(
    "ts, angle",
    [((1.0, 1.0), math.pi / 4), ((0.9, 0.95), 0.6), ((0.85, 1.0), 1.0),
     ((1.0, 1.0), 0.003), ((1.0, 0.95), 1.2)],
)
def test_radius_sdp_brackets_the_exact_root(ts, angle):
    u = (math.cos(angle), math.sin(angle))
    (lo, hi), _ = sdp._joint_channel_radius(
        [make_depolarizing(2, t) for t in ts], u, 1.0 / max(u))
    assert lo <= _exact_dep_pair_radius(ts, u) <= hi
    assert hi - lo <= sdp.FEASIBILITY_GAP_COARSE


@pytest.mark.parametrize("n", [3, 4, 5], ids=["N3", "N4", "N5"])
def test_radius_sdp_identity_copies_meet_werner(n):
    u = np.ones(n) / math.sqrt(n)
    (lo, hi), _ = sdp._joint_channel_radius([make_identity(2)] * n, u, 1.0 / u[0])
    # symmetric 1 -> N qubit cloning: coordinate (N + d) / (N (1 + d)), 5/9,
    # 1/2 and 7/15
    assert lo * u[0] <= (n + 2.0) / (3.0 * n) <= hi * u[0]
    assert hi - lo <= sdp.FEASIBILITY_GAP_COARSE


def test_radius_sdp_stopped_at_its_start_raises(monkeypatch):
    chans = [make_depolarizing(2, 0.9), make_depolarizing(2, 0.95)]
    u = (math.cos(0.6), math.sin(0.6))
    radius = sdp._joint_channel_radius

    def stopped_at_start(*args):
        # no line search in the radius solve finds a step; the criterion keeps
        # its solver
        with monkeypatch.context() as m:
            fail_cholesky_after_first_call(m)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return radius(*args)

    # the start point's value is a finite upper bound, and the first Newton
    # step's witness, measured against J(0), still certifies the lower end
    (lo, hi), _ = stopped_at_start(chans, u, 1.0 / max(u))
    assert 0.0 <= lo <= _exact_dep_pair_radius((0.9, 0.95), u) <= hi < math.inf
    assert hi - lo > region.BISECT_TOL
    monkeypatch.setattr(region, "_joint_channel_radius", stopped_at_start)
    with pytest.raises(RuntimeError, match=r"bracket \["):
        scan_rays(chans, [u], use_oracle=True)


def test_radius_sdp_witness_at_lo():
    # a joint channel exists at the bracket's lower end, and none just past
    # its upper end
    chans = [make_depolarizing(2, 0.9), make_identity(2)]
    u = (math.cos(0.6), math.sin(0.6))
    (lo, hi), _ = sdp._joint_channel_radius(chans, u, 1.0 / max(u))
    assert hi - lo <= sdp.FEASIBILITY_GAP_COARSE
    at_lo = sdp.solve_joint_channel(_scaled(chans, lo, u))
    assert at_lo.status is not sdp.Feasibility.INFEASIBLE
    past_hi = sdp.solve_joint_channel(_scaled(chans, hi + 1e-3, u))
    assert past_hi.status is sdp.Feasibility.INFEASIBLE


def test_capped_oracle_ray_raises(monkeypatch, tmp_path, capsys):
    # a radius solve stopped at the Newton cap before its bracket closes is
    # solver trouble, never a radius: a capped solve must not move the
    # radius away from the exact 1.03334.  Caps up to 5 leave a bracket open
    # on both paths; the CLI's three rays close from cap 6, this ray from 7
    chans = [make_depolarizing(2, t) for t in (0.9, 0.95)]
    u = (math.cos(0.6), math.sin(0.6))
    specs = _spec_files(tmp_path, [{"kind": "depolarizing", "d": 2, "t": t}
                                   for t in (0.9, 0.95)])
    for cap in (3, 5):
        monkeypatch.setattr(sdp, "_MAX_NEWTON_STEPS", cap)
        with pytest.raises(RuntimeError, match="bracket"):
            scan_rays(chans, [u], use_oracle=True, bisect_tol=1e-3)
        line = _region_error(specs, capsys, "--oracle")
        assert line.startswith("error: oracle radius")


def test_oracle_radius_is_clamped_to_the_ray_end():
    # near Delta (t = 1e-9) and on a Delta pair (E = 0) lambda* >= 0 at each
    # ray's end: the whole ray is compatible, and its radius is r_max
    dirs = ray_directions(2, 3)
    near_delta = [make_depolarizing(2, 1e-9), make_depolarizing(2, 0.9)]
    delta_pair = [make_depolarizing(2, 0.0)] * 2
    for chans in (near_delta, delta_pair):
        report = scan_rays(chans, dirs, use_oracle=True)
        assert [ray.oracle_radius for ray in report.rays] == [1.0 / max(u) for u in dirs]
    assert [1.0 / max(u) for u in dirs] == pytest.approx([1.0, SQ2, 1.0])


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


def _effect_traces(chans):
    bases, _ = select_bases(chans[0].d, len(chans))
    return [np.trace(induced_effects(c, e), axis1=1, axis2=2).real
            for c, e in zip(chans, bases)]


def _counted_sdps(monkeypatch):
    """Every domination SDP that ``scan_rays`` runs."""
    calls = []
    for module in (region, criteria):
        solve = module.solve_domination
        monkeypatch.setattr(module, "solve_domination", lambda *a, solve=solve, **k: (
            calls.append(None) or solve(*a, **k)))
    return calls


def test_non_unital_pair_is_two_sdps(monkeypatch):
    # amplitude damping maps I to diag(1 + g, 1 - g), so the canonical
    # effects of the first channel have traces 1.1 and 0.9.  The solve at
    # the ray's end is certified; the root of its dual's tangent minorant
    # is the second solve's r, and that solve closes the bracket from both
    # sides, at both tolerances, with no bisection
    chans = [_amplitude_damping(0.1), _amplitude_damping(0.2)]
    assert np.allclose(_effect_traces(chans), [[1.1, 0.9], [1.0, 1.0]])
    u = (math.cos(0.7), math.sin(0.7))
    for tol in (1e-3, 1e-4):
        calls = _counted_sdps(monkeypatch)
        ray = scan_rays(chans, [u], bisect_tol=tol).rays[0]
        monkeypatch.undo()
        assert len(calls) == 2
        expected = _bisected_criterion_radius(chans, u, tol)
        assert expected < 1.0 / max(u)  # the criterion crosses inside the segment
        assert abs(ray.criterion_radius - expected) <= tol
        # the crossing, from bisecting the criterion value to 1e-10, is 1.11159168
        assert abs(ray.criterion_radius - 1.11159168) < 1e-7
        assert not _criterion_certifies(chans, ray.criterion_radius, u)
        assert _criterion_certifies(chans, ray.criterion_radius + tol, u)


def test_unit_trace_non_unital_pair_is_one_sdp_per_ray(monkeypatch):
    # the Hadamard-rotated damping maps I to I + 0.3 X, unit diagonal in the
    # canonical basis; damping maps I to I + 0.2 Z, unit diagonal in the
    # Fourier basis.  Neither is unital, yet every effect has trace 1, so
    # G_i(s) = omega + s^2 (G_i - omega) and each ray is one kappa SDP
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQ2
    hh = np.kron(h, h)
    chans = [Channel(2, 2, hh @ _amplitude_damping(0.3).choi @ hh), _amplitude_damping(0.2)]
    for c, image in zip(chans, ([[1.0, 0.3], [0.3, 1.0]], [[1.2, 0.0], [0.0, 0.8]])):
        assert np.allclose(np.einsum("ioij->oj", c.as_tensor()), image)  # Phi(I)
    assert np.allclose(_effect_traces(chans), 1.0)
    tol = 1e-3
    for angle in (0.3, 0.7, math.pi / 4, 1.2):
        u = (math.cos(angle), math.sin(angle))
        calls = _counted_sdps(monkeypatch)
        ray = scan_rays(chans, [u], bisect_tol=tol).rays[0]
        monkeypatch.undo()
        assert len(calls) == 1
        assert abs(ray.criterion_radius - _bisected_criterion_radius(chans, u, tol)) <= tol


def test_unconverged_non_unital_probe_raises(monkeypatch, tmp_path, capsys):
    # a solve that did not converge bounds nothing; read as a bracket, it
    # would give this ray r_max.  The first solve is at the ray's end, r_max
    # = 1 / 0.764842
    chans = [_amplitude_damping(0.1), _amplitude_damping(0.2)]
    solve = region.solve_domination
    monkeypatch.setattr(region, "solve_domination", lambda problem: (
        dataclasses.replace(solve(problem), status=SolverStatus.MAX_ITERATIONS)))
    with pytest.raises(RuntimeError, match=r"u = \(0\.764842, 0\.644218\) at r = 1\.30746"):
        scan_rays(chans, [(math.cos(0.7), math.sin(0.7))], bisect_tol=1e-3)
    specs = _spec_files(tmp_path, [
        {"kind": "choi", "d_in": 2, "d_out": 2,
         "entries": [[z.real, z.imag] for z in c.choi.reshape(-1)]}
        for c in chans])
    assert "criterion SDP did not converge" in _region_error(specs, capsys)


def _rotated_damping(rng, d):
    """U AD_gamma V, gamma ~ U[0.05, 0.4]: levels 1..d-1 decay to 0, U and V Haar."""
    gamma = rng.uniform(0.05, 0.4)
    kraus = [np.diag([1.0] + [math.sqrt(1.0 - gamma)] * (d - 1)).astype(complex)]
    for level in range(1, d):
        k = np.zeros((d, d), dtype=complex)
        k[0, level] = math.sqrt(gamma)
        kraus.append(k)
    u, v = random_unitary(rng, d), random_unitary(rng, d)
    kraus = [u @ k @ v for k in kraus]
    choi = sum(np.kron(e, sum(k @ e @ k.conj().T for k in kraus))
               for e in np.eye(d * d).reshape(d * d, d, d))
    return Channel(d, d, choi, label=f"rotated-damping({gamma:.3f})")


def test_criterion_bracket_matches_bisection_on_rotated_damping(monkeypatch):
    # seeded rays of U AD_gamma V tuples (numpy default_rng(47)): 12 qubit
    # pairs, 6 qutrit pairs, 6 qubit triples.  Each radius is not certified,
    # radius + tol is (or the radius is the ray's end), it lies within tol of
    # bisection's, and a crossing ray takes 2 domination SDPs, one inside at
    # its end 1
    rng, tol = np.random.default_rng(47), 1e-3
    kinds = []
    for d, n, count in ((2, 2, 12), (3, 2, 6), (2, 3, 6)):
        for _ in range(count):
            chans = [_rotated_damping(rng, d) for _ in range(n)]
            u = np.abs(rng.normal(size=n))
            u /= np.linalg.norm(u)
            r_max = 1.0 / u.max()
            calls = _counted_sdps(monkeypatch)
            r = scan_rays(chans, [u], bisect_tol=tol).rays[0].criterion_radius
            monkeypatch.undo()
            assert not _criterion_certifies(chans, r, u)
            assert r == r_max or _criterion_certifies(chans, r + tol, u)
            assert abs(r - _bisected_criterion_radius(chans, u, tol)) <= tol
            assert len(calls) == (1 if r == r_max else 2)
            kinds.append(r == r_max)
    assert 0 < sum(kinds) < len(kinds)  # both kinds of ray occur


# ---------------------------------------------------------------------------
# fig1 oracle grid: rays from the origin, decided by convexity
# ---------------------------------------------------------------------------

def _per_cell_oracle_column(b, c, resolution):
    """The oracle column from one lambda* solve per cell, MARGINAL counted inside."""
    pair = [make_schur(b), make_schur(c)]
    grid = np.linspace(0.0, 1.0, resolution)
    return [
        sdp.solve_joint_channel(_scaled(pair, 1.0, (float(s), float(t)))).status
        is not sdp.Feasibility.INFEASIBLE
        for s in grid for t in grid
    ]


def _oracle_column(b, c, resolution):
    data = emit_figure1_data(b, c, resolution, use_oracle=True)
    return [row[3] for row in data["rows"]]


def _schur_qubit(off):
    return np.array([[1.0, off], [np.conj(off), 1.0]])


def test_figure1_oracle_grid_equals_the_per_cell_column(rng):
    for _ in range(10):
        b, c = (random_schur_matrix(rng, 2) for _ in range(2))
        for resolution in (3, 4, 7):
            assert _oracle_column(b, c, resolution) == _per_cell_oracle_column(
                b, c, resolution)
    # at resolution 21 several rays run, and the hull of the certified points
    # and the rays' half-planes decide most open cells
    b = _schur_qubit(0.5)
    for c in (_schur_qubit(0.3 + 0.2j), np.eye(2)):
        assert _oracle_column(b, c, 21) == _per_cell_oracle_column(b, c, 21)


@pytest.mark.parametrize(
    "b",
    # complete dephasing is compatible with everything, so the diagonal runs
    # to the corner, whose lambda* is 0: the corner takes a radius solve of
    # its own and its hull is the square; all-ones is the identity channel, whose
    # (2/3, 2/3) lies on the boundary at resolution 7
    [np.eye(2), np.ones((2, 2))],
    ids=["dephasing", "identity"],
)
def test_figure1_oracle_grid_on_extreme_schur_pairs(b):
    for resolution in (3, 4, 7):
        column = _oracle_column(b, b, resolution)
        assert column == _per_cell_oracle_column(b, b, resolution)
        grid = np.array(column).reshape(resolution, resolution)
        assert (grid == grid.T).all()
        if b[0, 1] == 0.0:
            assert grid.all()


def test_figure1_oracle_grid_is_one_radius_sdp_per_line(monkeypatch):
    # B coherent with C coherent, then with C = I (complete dephasing)
    b = _schur_qubit(0.5)
    radius = region._joint_channel_radius
    for c in (_schur_qubit(0.3 + 0.2j), np.eye(2)):
        for resolution in (2, 3, 5, 8):
            solves = []

            def radius_recorded(channels, u, r_max):
                bracket, plane = radius(channels, u, r_max)
                solves.append((np.array(u), r_max, bracket))
                return bracket, plane

            monkeypatch.setattr(region, "_joint_channel_radius", radius_recorded)
            column = _oracle_column(b, c, resolution)
            monkeypatch.undo()
            grid = np.linspace(0.0, 1.0, resolution)
            s, t = np.meshgrid(grid, grid, indexing="ij")
            # the theorems leave open the cells with s + t > 1 off B's edge
            # (s, 1), and off C's edge (1, t) when C is coherent
            open_cells = (s + t > 1.0 + 1e-12) & (t < 1.0)
            if c[0, 1] != 0.0:
                open_cells &= s < 1.0
            # the diagonal first, then rays to the square's edge, each through
            # a cell no theorem and no earlier ray decided; a solve along the
            # last ray's direction is a cell's, ended at that cell
            assert np.array_equal(solves[0][0], [1.0, 1.0])
            rays, cells = [], []
            for u, r_max, bracket in solves:
                if rays and np.array_equal(u, rays[-1][0]):
                    cells.append((u, r_max, rays[-1][1]))
                    continue
                assert u.max() == 1.0 and r_max == 1.0
                on = open_cells & (np.abs(s * u[1] - t * u[0]) <= 1e-12)
                assert not rays or on.any()
                open_cells &= ~on
                rays.append((u, bracket))
            # a cell takes a solve only inside its ray's bracket short of the
            # ray's end: none on these pairs (an edge cell (1, t) of C = I,
            # whose lambda* is 0, is its ray's end, read off the ray's solve)
            for u, r_max, (lo, hi) in cells:
                assert lo < r_max <= hi
                assert np.any(np.isclose(s, r_max * u[0]) & np.isclose(t, r_max * u[1]))
            if c[0, 1] != 0.0:
                assert cells == []
            verdicts = np.array(column).reshape(resolution, resolution)
            assert verdicts[s + t <= 1.0 + 1e-12].all()
            assert not verdicts[1:, -1].any()
            if c[0, 1] != 0.0:
                assert not verdicts[-1, 1:].any()
            assert column == _per_cell_oracle_column(b, c, resolution)


def test_figure1_edge_cells_follow_the_complementary_channel(tmp_path, capsys):
    # every joint operator with a pure Schur marginal is singular, so a
    # lambda* solve at (1, t) cannot exceed 0, and at (1, 0.005) it ends
    # MARGINAL, which counts inside where the criterion certifies
    # incompatibility.  Phi_B's complementary channel erases coherences, and
    # t Phi_C keeps t C_01 = 0.1 t, so every (1, t > 0) is incompatible
    spec, out = tmp_path / "schur.json", tmp_path / "fig1.json"
    spec.write_text(json.dumps({"B": [[[1, 0], [0.1, 0]], [[0.1, 0], [1, 0]]]}))
    argv = ["figure", "fig1", "--B", str(spec), "--resolution", "200", "--oracle",
            "--output", str(out)]
    assert cli.main(argv) == 0
    assert "soundness check passed" in capsys.readouterr().err
    rows = json.loads(out.read_text())["rows"]
    edge = [row for row in rows if row[0] == 1.0 and row[1] > 0.0]
    assert len(edge) == 199 and not any(row[3] for row in edge)


def test_line_radius_from_the_origin_is_the_ray_program():
    # the bracket's lower end is scan_rays' oracle radius
    chans = [make_depolarizing(2, 0.9), make_schur(_schur_qubit(0.4))]
    u = (math.cos(0.6), math.sin(0.6))
    r_max = 1.0 / max(u)
    (lo, hi), _ = sdp._joint_channel_radius(chans, u, r_max)
    assert hi - lo <= sdp.FEASIBILITY_GAP_COARSE and hi < r_max
    assert scan_rays(chans, [u], use_oracle=True).rays[0].oracle_radius == lo


@pytest.mark.parametrize(
    "d, ts, angle",
    [(2, (1.0, 1.0), math.pi / 4), (2, (1.0, 1.0), 0.3), (2, (1.0, 1.0), 1.2),
     (2, (0.9, 0.95), 0.6), (2, (0.85, 1.0), 1.0), (3, (1.0, 1.0), math.pi / 4)],
)
def test_radius_half_plane_is_an_outer_bound(d, ts, angle):
    # no joint channel exists where 1 + x.b < 0: every such point of a
    # 101 x 101 grid is incompatible by the exact pair condition, and the
    # plane vanishes at the bracket's upper end
    u = np.array([math.cos(angle), math.sin(angle)])
    (lo, hi), plane = sdp._joint_channel_radius(
        [make_depolarizing(d, t) for t in ts], u, 1.0 / u.max())
    assert hi < 1.0 / u.max()
    assert abs(1.0 + hi * (u @ plane)) <= 1e-12
    x = np.linspace(0.0, 1.0, 101)
    cut = [(s, t) for s in x for t in x if 1.0 + s * plane[0] + t * plane[1] < 0.0]
    assert cut
    assert not any(exact_depolarizing_pair(d, ts[0] * s, ts[1] * t) for s, t in cut)


def test_capped_figure1_oracle_raises(monkeypatch, tmp_path, capsys):
    # a ray's radius solve stopped at the Newton cap with its bracket open is
    # solver trouble, never grid verdicts: the diagonal's, or a later ray's
    # (at resolution 21 the ray after the diagonal passes through (0.85, 0.9))
    spec = tmp_path / "schur.json"
    spec.write_text(json.dumps({"B": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]]}))
    radius = region._joint_channel_radius
    for capped_u, name in (((1.0, 1.0), r"\(1, 1\)"),
                           ((0.85 / 0.9, 1.0), r"\(0\.944444, 1\)")):

        def capped(channels, u, r_max, capped_u=capped_u):
            with monkeypatch.context() as m:
                if np.allclose(u, capped_u):
                    m.setattr(sdp, "_MAX_NEWTON_STEPS", 3)
                return radius(channels, u, r_max)

        monkeypatch.setattr(region, "_joint_channel_radius", capped)
        with pytest.raises(RuntimeError, match=f"oracle radius along u = {name} .* bracket"):
            emit_figure1_data(B_SCHUR, B_SCHUR, 21, use_oracle=True)
        argv = ["figure", "fig1", "--B", str(spec), "--resolution", "21", "--oracle"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: oracle radius along u = ")


def test_capped_lambda_star_cell_raises(monkeypatch):
    # B = C = I: the diagonal runs to the corner, whose lambda* is 0, so the
    # corner (1, 1) is the only cell inside a bracket; it is the ray's end,
    # read off the diagonal's own solve
    radius, solves = region._joint_channel_radius, []
    monkeypatch.setattr(region, "_joint_channel_radius", lambda *args: (
        solves.append(args[1:]) or radius(*args)))
    for resolution in (3, 8):
        data = emit_figure1_data(np.eye(2), np.eye(2), resolution, use_oracle=True)
        assert all(row[3] for row in data["rows"])
    assert [(tuple(u), r_max) for u, r_max in solves] == [((1.0, 1.0), 1.0)] * 2

    # B = C = ones, the identity pair: at resolution 4 the cell (2/3, 2/3)
    # lies inside the diagonal's bracket, short of its end, and takes one more
    # radius solve, ended at the cell; one stopped by the Newton cap leaves
    # its bracket open, which is no boundary cell
    calls = []

    def capped_cell(channels, u, r_max):
        with monkeypatch.context() as m:
            if calls:  # the diagonal's solve comes first, then the cell's
                m.setattr(sdp, "_MAX_NEWTON_STEPS", 1)
            calls.append(r_max)
            return radius(channels, u, r_max)

    monkeypatch.setattr(region, "_joint_channel_radius", capped_cell)
    with pytest.raises(RuntimeError, match=r"oracle radius along u = \(1, 1\) not decided: bracket"):
        emit_figure1_data(np.ones((2, 2)), np.ones((2, 2)), 4, use_oracle=True)
    assert calls == [1.0, pytest.approx(2.0 / 3.0)]


def test_open_line_bracket_raises(monkeypatch):
    # a ray's bracket wider than BISECT_TOL is never read as verdicts; at
    # resolution 21 the ray after the diagonal passes through (0.85, 0.9)
    radius = region._joint_channel_radius

    def open_rays(channels, u, r_max):
        bracket, plane = radius(channels, u, r_max)
        return (bracket if u[0] == u[1] else (0.0, math.inf)), plane

    monkeypatch.setattr(region, "_joint_channel_radius", open_rays)
    with pytest.raises(RuntimeError, match=r"oracle radius along u = \(0\.944444, 1\)"):
        emit_figure1_data(B_SCHUR, B_SCHUR, 21, use_oracle=True)


def test_radius_sdp_lost_dual_keeps_a_valid_bracket(monkeypatch):
    # a late stage whose dual is lost (no line-search step, a dual of -I)
    # has no free part: its witness is the end's fixed part, whose least
    # eigenvalue against J(0) is still a lower end, and the upper end is
    # still the iterate's value
    chans = [make_depolarizing(2, t) for t in (0.9, 0.95)]
    u = (math.cos(0.6), math.sin(0.6))
    center = sdp._center

    def lost_after_first_stages(z, s, k, cost, mu, *rest):
        out = center(z, s, k, cost, mu, *rest)
        if mu >= 1e-3:
            return out
        z, s, k, cost, y, steps, _ = out
        return z, s, k, cost, -np.eye(len(s), dtype=complex), steps, False

    monkeypatch.setattr(sdp, "_center", lost_after_first_stages)
    (lo, hi), _ = sdp._joint_channel_radius(chans, u, 1.0 / max(u))
    assert 0.0 <= lo <= _exact_dep_pair_radius((0.9, 0.95), u) <= hi
