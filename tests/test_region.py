import math

import numpy as np
import pytest

from qincompat import make_identity
from qincompat.region import (
    RayResult,
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
