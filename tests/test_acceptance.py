"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single pass/fail line with the elapsed time.
"""

import math
import time

import numpy as np

from qincompat import (
    AssemblageLabel,
    Channel,
    VerdictKind,
    canonical_basis,
    classify,
    exact_depolarizing_pair,
    fourier_basis,
    g_matrix,
    induced_povm,
    make_depolarizing,
    make_identity,
    make_schur,
    mub_family,
    omega,
    self_compat_threshold,
    solve_joint_channel,
    solve_povm_joint,
    zhu_criterion_channels,
)
from qincompat.fisher import g_matrix_povm
from qincompat.region import emit_figure2_data
from qincompat.sdp import DominationProblem, Feasibility, solve_domination
from helpers import (
    bisect_boundary,
    mix_toward_depolarizing,
    random_basis,
    random_compatible_pair,
    random_povm,
    random_schur_matrix,
    random_unitary,
)

SQ2 = math.sqrt(2.0)


def _report(num, name, detail, t0):
    print(f"criterion {num:02d} [{name}]: PASS ({detail}; {time.perf_counter() - t0:.2f}s)")


def test_criterion_01_analytic_sdp_value():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    for d in (2, 3, 5):
        fam = mub_family(d)
        for n in range(2, d + 2):
            ts = rng.uniform(0.0, 1.0, n)
            cons = tuple(
                g_matrix(make_depolarizing(d, t), e)
                for t, e in zip(ts, fam)
            )
            res = solve_domination(DominationProblem(cons))
            expected = 1.0 + (d - 1) * float((ts ** 2).sum())
            worst = max(worst, abs(res.value - expected))
            count += 1
    assert worst < 1e-6, f"worst deviation {worst:.2e}"
    _report(1, "analytic SDP value", f"{count} solves, worst dev {worst:.1e}", t0)


def test_criterion_02_no_cloning():
    t0 = time.perf_counter()
    chans = [make_identity(2), make_identity(2)]
    v = zhu_criterion_channels(chans, [canonical_basis(2), fourier_basis(2)])
    assert v.kind is VerdictKind.INCOMPATIBLE_CERTIFIED
    assert abs(v.value - 3.0) < 1e-6
    res = solve_joint_channel(chans)
    assert res.status is Feasibility.INFEASIBLE
    _report(2, "no-cloning", f"value {v.value:.6f}, lambda* {res.lambda_star:.4f}", t0)


def test_criterion_03_exact_cloning_boundary():
    t0 = time.perf_counter()
    worst = 0.0
    for s in np.linspace(0.05, 0.95, 15):
        s = float(s)
        phi_s = make_depolarizing(2, s)

        def inside(t):
            pair = [phi_s, make_depolarizing(2, min(t, 1.0))]
            return solve_joint_channel(pair).status is not Feasibility.INFEASIBLE

        found = bisect_boundary(inside, 1.0, 2e-4)
        # root of t + s - sqrt((1 - t)(1 - s)) = 1 for d = 2
        b = 1.0 - s
        y = math.sqrt(b / 4.0 + 1.0 - b) - math.sqrt(b) / 2.0
        expected = 1.0 - y * y
        worst = max(worst, abs(found - expected))
    assert worst < 1e-3, f"worst boundary error {worst:.2e}"
    _report(3, "exact cloning boundary", f"15 bisections, worst {worst:.1e}", t0)


def test_criterion_04_self_compatibility_threshold():
    t0 = time.perf_counter()

    def inside(t):
        c = make_depolarizing(2, min(t, 1.0))
        return solve_joint_channel([c, c]).status is not Feasibility.INFEASIBLE

    found = bisect_boundary(inside, 1.0, 2e-4)
    expected = self_compat_threshold(2)
    assert abs(found - expected) < 1e-3
    assert abs(expected - 2.0 / 3.0) < 1e-15
    _report(4, "self-compatibility threshold", f"t* = {found:.5f} vs 2/3", t0)


def test_criterion_05_soundness_sweep():
    t0 = time.perf_counter()
    grid = [k / 20.0 for k in range(21)]
    violations = 0
    for s in grid:
        for t in grid:
            criterion_incompatible = s * s + t * t > 1.0
            if criterion_incompatible and exact_depolarizing_pair(2, s, t):
                violations += 1
    assert violations == 0
    # oracle spot check at 10 random grid points
    rng = np.random.default_rng(505)
    agree = 0
    for _ in range(10):
        s = float(rng.choice(grid))
        t = float(rng.choice(grid))
        res = solve_joint_channel(
            [make_depolarizing(2, s), make_depolarizing(2, t)]
        )
        exact = exact_depolarizing_pair(2, s, t)
        if res.status is Feasibility.INFEASIBLE:
            assert not exact, f"oracle infeasible but exact-compatible at {(s, t)}"
        else:
            assert exact, f"oracle feasible but exact-incompatible at {(s, t)}"
        agree += 1
    _report(5, "criterion soundness sweep", f"441 grid points, {agree} oracle spots", t0)


def test_criterion_06_figure2_geometry():
    t0 = time.perf_counter()
    data = emit_figure2_data([2, 5, 20], 200)
    for row in data["rows"]:
        _, s, t_exact, t_criterion = row
        assert t_exact <= t_criterion + 1e-9, f"outer bound broken at s={s}"
    _report(6, "figure-2 geometry", f"{len(data['rows'])} rows", t0)


def test_criterion_07_schur_criterion_region():
    # beta([[1,1/2],[1/2,1]]) = 1/4, so the criterion region is
    # {s^2 + t^2/4 <= 1} n {s^2/4 + t^2 <= 1} with diagonal coordinate
    # 1/sqrt(1.25) ~ 0.894.  The oracle confirms compatible channels out to
    # ~0.889 on the diagonal, so no smaller region can be sound.
    t0 = time.perf_counter()
    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    beta_val = 0.25

    def criterion_inside(s, t):
        return (
            s * s + beta_val * t * t <= 1.0 + 1e-12
            and beta_val * s * s + t * t <= 1.0 + 1e-12
        )

    chan = make_schur(b)
    grid = np.linspace(0.0, 1.0, 5)
    checked = 0
    compatible = 0
    for s in grid:
        for t in grid:
            pair = [
                mix_toward_depolarizing(chan, float(s)),
                mix_toward_depolarizing(chan, float(t)),
            ]
            res = solve_joint_channel(pair)
            checked += 1
            if res.status is not Feasibility.INFEASIBLE:
                compatible += 1
                assert criterion_inside(s, t), (
                    f"oracle-compatible point ({s}, {t}) outside criterion region"
                )

    def inside_diag(r):
        x = r / SQ2
        pair = [mix_toward_depolarizing(chan, x)] * 2
        return solve_joint_channel(pair).status is not Feasibility.INFEASIBLE

    diag = bisect_boundary(inside_diag, SQ2, 5e-4) / SQ2
    limit = 1.0 / math.sqrt(1.0 + beta_val)
    assert diag <= limit + 1e-3, f"diagonal {diag:.5f} above criterion {limit:.5f}"
    _report(
        7,
        "Schur criterion region",
        f"{compatible}/{checked} compatible samples inside, diagonal "
        f"{diag:.4f} <= {limit:.4f}",
        t0,
    )


def test_criterion_08_noise_scaling():
    # exact for unital channels; random Schur channels plus the identity
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for k in range(50):
        d = int(rng.integers(2, 4))
        base = make_identity(d) if k % 10 == 0 else make_schur(random_schur_matrix(rng, d))
        e = random_basis(rng, d)
        t = float(rng.uniform(0.0, 1.0))
        mixed = Channel(
            d, d, t * base.choi + (1 - t) * np.eye(d * d) / d, label="mixed"
        )
        lhs = g_matrix(mixed, e)
        rhs = t * t * g_matrix(base, e) + (1 - t * t) * omega(d)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-12, f"worst deviation {worst:.2e}"
    _report(8, "noise scaling of G", f"50 triples, worst dev {worst:.1e}", t0)


def test_criterion_09_g_dominates_omega():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        g = g_matrix_povm(random_povm(rng, d, k))
        worst = min(worst, np.linalg.eigvalsh(g - omega(d))[0])
    assert worst >= -1e-9, f"min eigenvalue {worst:.2e}"
    _report(9, "G dominates omega", f"200 POVMs, min eig {worst:.1e}", t0)


def test_criterion_10_induced_povm_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    for k in range(20):
        c1, c2 = random_compatible_pair(rng, 2)
        res = solve_joint_channel([c1, c2])
        assert res.status is Feasibility.FEASIBLE, f"pair {k} not feasible"
        p1 = induced_povm(c1, random_basis(rng, 2))
        p2 = induced_povm(c2, random_basis(rng, 2))
        pres = solve_povm_joint([p1, p2])
        assert pres.status is Feasibility.FEASIBLE, f"induced POVMs {k} not feasible"
    _report(10, "induced POVM consistency", "20 compatible pairs", t0)


def test_criterion_11_assemblage_closed_form():
    t0 = time.perf_counter()
    for k in (2, 3):
        thresh = 1.0 / math.sqrt(k)
        ts = np.arange(thresh - 0.05, thresh + 0.05, 1e-3)
        flips = []
        prev = None
        for t in ts:
            chans = [make_depolarizing(2, float(t))] * 4
            rep = classify(chans, k)
            strong = AssemblageLabel.NK_STRONG_INCOMPATIBLE in rep.labels
            if prev is not None and strong != prev:
                flips.append(float(t))
            prev = strong
        assert len(flips) == 1, f"K={k}: expected one flip, got {flips}"
        # strict inequality puts the flip on the first grid point above the
        # threshold, so it matches within one grid step
        assert abs(flips[0] - thresh) <= 1e-3 + 1e-9, (
            f"K={k}: flip at {flips[0]:.5f}, threshold {thresh:.5f}"
        )
    _report(11, "assemblage closed form", "K in {2,3} flip at 1/sqrt(K)", t0)


def test_criterion_12_commuting_solver_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1212)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        u = random_unitary(rng, d)
        da = rng.uniform(0.0, 3.0, d)
        db = rng.uniform(0.0, 3.0, d)
        a = u @ np.diag(da) @ u.conj().T
        bmat = u @ np.diag(db) @ u.conj().T
        res = solve_domination(DominationProblem((a, bmat)))
        expected = float(np.maximum(da, db).sum())
        worst = max(worst, abs(res.value - expected))
    assert worst < 1e-6, f"worst deviation {worst:.2e}"
    _report(12, "commuting-case oracle", f"100 pairs, worst dev {worst:.1e}", t0)
