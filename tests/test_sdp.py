import numpy as np
import pytest

from qincompat import (
    Povm,
    canonical_basis,
    fourier_basis,
    g_matrix,
    induced_povm,
    make_depolarizing,
    make_identity,
    mub_family,
    omega,
    z_matrix,
)
import qincompat.sdp as sdp
from qincompat.sdp import (
    DOMINATION_GAP_TOL,
    FEASIBLE_BAND,
    DominationProblem,
    Feasibility,
    OracleBudgetError,
    SolverStatus,
    _diagonal_basis,
    _embed_for_partial_trace,
    _hermitian_basis,
    _marginal_family,
    _newton_cg,
    _support_blocks,
    solve_domination,
    solve_joint_channel,
    solve_povm_joint,
)
from qincompat.linalg import partial_trace
from helpers import (
    fail_cholesky_after_first_call,
    random_basis,
    random_channel,
    random_compatible_pair,
    random_hermitian,
    random_povm,
    random_psd,
    random_unitary,
)


# --- analytic marginal family ------------------------------------------------

def _channel_family_args(rng, d, n):
    chois = [random_channel(rng, d).choi for _ in range(n)]
    return [d] * (n + 1), [_hermitian_basis(d)] * (n + 1), 0, chois


def _povm_family_args(rng, d, counts):
    povms = [random_povm(rng, d, k) for k in counts]
    targets = [
        sum(np.kron(np.diag(row), e) for row, e in zip(np.eye(k), p.effects))
        for k, p in zip(counts, povms)
    ]
    bases = [_diagonal_basis(k) for k in counts] + [_hermitian_basis(d)]
    return list(counts) + [d], bases, len(counts), targets


@pytest.mark.parametrize(
    "make_args",
    [
        lambda rng: _channel_family_args(rng, 2, 2),
        lambda rng: _channel_family_args(rng, 2, 3),
        lambda rng: _channel_family_args(rng, 3, 2),
        lambda rng: _povm_family_args(rng, 2, (2, 3)),
    ],
    ids=["channel-d2-N2", "channel-d2-N3", "channel-d3-N2", "povm-2x3"],
)
def test_marginal_family(make_args):
    dims, bases, shared, targets = make_args(np.random.default_rng(5))
    for fb, dim in zip(bases, dims):
        assert np.abs(fb[0] - np.eye(dim) / np.sqrt(dim)).max() < 1e-15
        assert np.abs(fb - fb.conj().transpose(0, 2, 1)).max() == 0.0
    j0, basis = _marginal_family(dims, bases, shared, targets)

    sizes = [len(fb) for i, fb in enumerate(bases) if i != shared]
    expected = dims[shared] ** 2 * (
        int(np.prod(sizes)) - 1 - sum(k - 1 for k in sizes)
    )
    assert basis.shape == (expected, j0.shape[0], j0.shape[0])
    flat = basis.reshape(len(basis), -1)
    assert np.abs(flat.conj() @ flat.T - np.eye(len(basis))).max() < 1e-12
    assert np.abs(np.einsum("kpp->k", basis)).max() < 1e-12

    others = [i for i in range(len(dims)) if i != shared]
    keeps = [{shared}] + [{shared, i} for i in others]
    for member in basis:
        for keep in keeps:
            assert np.abs(partial_trace(member, dims, keep)).max() < 1e-12
    for keep, target in zip(keeps, [np.eye(dims[shared])] + targets):
        assert np.abs(partial_trace(j0, dims, keep) - target).max() < 1e-12
    # minimum norm: j0 has no component along the free directions
    assert np.abs(flat.conj() @ j0.reshape(-1)).max() < 1e-12


def test_marginal_family_rejects_inconsistent_targets():
    rng = np.random.default_rng(6)
    dims, bases, shared, targets = _channel_family_args(rng, 2, 2)
    # a Choi matrix of trace 2d has input marginal 2I, not the shared I
    with pytest.raises(RuntimeError, match="inconsistent"):
        _marginal_family(dims, bases, shared, [2.0 * targets[0]] + targets[1:])


def test_newton_cg_solves_sandwich_sum(rng):
    # matrix sizes 4, 9, 16 are the criterion SDP at d = 2, 3, 4; every
    # block of the stack is its own system, solved by the one CG run
    mu = 0.3
    for n in (4, 9, 16):
        u_stack = np.stack([
            np.stack([random_psd(rng, n) + 0.1 * np.eye(n) for _ in range(3)])
            for _ in range(2)
        ])
        rhs = np.stack([random_hermitian(rng, n) for _ in range(2)])
        x = _newton_cg(u_stack, mu, rhs, 1e-12, 4 * n * n)
        for u_block, x_block, rhs_block in zip(u_stack, x, rhs):
            lhs = mu * sum(u @ x_block @ u for u in u_block)
            assert np.linalg.norm(lhs - rhs_block) <= 1e-9 * np.linalg.norm(rhs)


def test_embed_is_partial_trace_adjoint(rng):
    dims = [2, 3, 2]
    keep = {0, 2}
    small = random_hermitian(rng, 4)
    big = random_hermitian(rng, 12)
    lhs = np.vdot(_embed_for_partial_trace(small, dims, keep), big)
    rhs = np.vdot(small, partial_trace(big, dims, keep))
    assert abs(lhs - rhs) < 1e-12


# --- domination solver -------------------------------------------------------

def _mub_constraints(d, ts):
    fam = mub_family(d)
    return tuple(
        g_matrix(make_depolarizing(d, t), e).m for t, e in zip(ts, fam.bases)
    )


def _difference_classes(blocks, d):
    # the class of basis index a * d + b is a - b mod d
    return (blocks // d - blocks % d) % d


def test_support_blocks_follow_difference_classes(rng):
    blocks = _support_blocks(np.stack(_mub_constraints(5, (0.5, 0.7, 0.9))))
    assert blocks.shape == (5, 5)
    classes = _difference_classes(blocks, 5)
    assert (classes == classes[:, :1]).all()
    assert sorted(blocks.ravel()) == list(range(25))

    pair = (
        g_matrix(make_depolarizing(4, 0.7), canonical_basis(4)).m,
        g_matrix(make_depolarizing(4, 0.8), fourier_basis(4)).m,
    )
    blocks = _support_blocks(np.stack(pair))
    assert blocks.shape == (4, 4)
    classes = _difference_classes(blocks, 4)
    assert (classes == classes[:, :1]).all()

    for d in (2, 3, 4):
        gs = [g_matrix(random_channel(rng, d), random_basis(rng, d)).m
              for _ in range(2)]
        assert _support_blocks(np.stack(gs)).shape == (1, d * d)


def test_single_constraint_is_tight():
    g = z_matrix(canonical_basis(2))
    # Z = |00><00| + |11><11| is diagonal: four blocks of size 1
    assert _support_blocks(g[None]).tolist() == [[0], [1], [2], [3]]
    res = solve_domination(DominationProblem(4, (g,)))
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.value - 2.0) < 1e-6
    assert np.abs(res.optimizer - g).max() < 1e-3
    assert res.gap <= 1e-6
    # H = G is optimal: no Newton step
    assert res.iterations == 0


def test_unequal_components_are_one_block():
    g = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], complex)
    # components {0, 1} and {2}
    assert _support_blocks(g[None]).tolist() == [[0, 1, 2]]
    # a repeated constraint runs the barrier, which one constraint skips
    res = solve_domination(DominationProblem(3, (g, g)))
    assert res.status is SolverStatus.OPTIMAL
    assert res.lower_bound <= 3.0 <= res.value
    assert np.abs(res.optimizer - g).max() < 1e-3


def test_off_block_noise_keeps_the_bracket(rng):
    # noise below the split threshold, placed only off the d blocks, is
    # dropped from the solve and added back to the value
    d, ts = 5, np.array([0.5, 0.7, 0.9])
    cons = _mub_constraints(d, ts)
    blocks = _support_blocks(np.stack(cons))
    on_block = np.zeros((d * d, d * d), dtype=bool)
    on_block[blocks[:, :, None], blocks[:, None, :]] = True
    noisy = []
    for g in cons:
        noise = random_hermitian(rng, d * d, scale=1e-15)
        noise[on_block] = 0.0
        noisy.append(g + noise)
    assert _support_blocks(np.stack(noisy)).shape == (d, d)
    res = solve_domination(DominationProblem(d * d, tuple(noisy)))
    expected = 1.0 + (d - 1) * float((ts ** 2).sum())
    assert res.status is SolverStatus.OPTIMAL
    assert res.lower_bound <= expected <= res.value
    assert res.value == float(np.trace(res.optimizer).real)
    for g in noisy:
        assert np.linalg.eigvalsh(res.optimizer - g)[0] >= -1e-12


def test_commuting_diagonal_pair():
    a = np.diag([3.0, 1.0]).astype(complex)
    b = np.diag([2.0, 2.0]).astype(complex)
    res = solve_domination(DominationProblem(2, (a, b)))
    assert abs(res.value - 5.0) < 1e-6


def test_commuting_random_pairs_match_eigen_max(rng):
    for _ in range(20):
        d = 6
        u = random_unitary(rng, d)
        da = rng.uniform(0.0, 3.0, d)
        db = rng.uniform(0.0, 3.0, d)
        a = u @ np.diag(da) @ u.conj().T
        b = u @ np.diag(db) @ u.conj().T
        res = solve_domination(DominationProblem(d, (a, b)))
        # oracle: joint eigenbasis, largest eigenvalue per direction
        assert abs(res.value - np.maximum(da, db).sum()) < 1e-6


def test_mub_constraints_closed_form(rng):
    for d in (2, 3):
        fam = mub_family(d)
        for n in range(2, d + 2):
            ts = rng.uniform(0.0, 1.0, n)
            cons = tuple(
                g_matrix(make_depolarizing(d, t), e).m
                for t, e in zip(ts, fam.bases)
            )
            res = solve_domination(DominationProblem(d * d, cons))
            expected = 1.0 + (d - 1) * float((ts ** 2).sum())
            assert abs(res.value - expected) < 1e-6


def test_dropped_norm_keeps_the_optimizer_feasible():
    # the 9e-8 coupling is below the split threshold (1e-13 of 1e6), so the
    # indices split into four 1 x 1 blocks; it exceeds the final barrier
    # slack (~N gap_tol / (4 nu) = 6e-8), so only the added ||E||_2 I keeps
    # the optimizer above the full constraint (repeated, so that the
    # barrier runs: one constraint skips it)
    g = np.diag([1e6, 1.0, 1.0, 1.0]).astype(complex)
    g[1, 2] = g[2, 1] = 9e-8
    assert _support_blocks(g[None]).shape == (4, 1)
    res = solve_domination(DominationProblem(4, (g, g)))
    assert res.status is SolverStatus.OPTIMAL
    # round-off at this scale is ~1e-10
    assert res.lower_bound - 1e-9 <= 1e6 + 3.0 <= res.value
    assert np.linalg.eigvalsh(res.optimizer - g)[0] >= 0.0


@pytest.mark.parametrize(
    "d,n", [(d, n) for d in (2, 3, 5, 7, 11) for n in (2, 3, 4) if n <= d + 1]
)
def test_dual_bound_brackets_closed_form(d, n):
    # over a mutually unbiased family the optimum is 1 + (d - 1) * sum(t_i^2)
    ts = np.linspace(0.5, 0.9, n)
    cons = _mub_constraints(d, ts)
    res = solve_domination(DominationProblem(d * d, cons))
    expected = 1.0 + (d - 1) * float((ts ** 2).sum())
    assert res.status is SolverStatus.OPTIMAL
    assert res.lower_bound <= expected <= res.value
    assert res.value - res.lower_bound == res.gap
    assert res.gap <= DOMINATION_GAP_TOL


def test_long_step_schedule_on_four_mubs_at_d11():
    # eleven 4 x 4 blocks; mu / 5 per stage with every stage centered to
    # mu * 2^-12 took 78 Newton steps
    ts = np.array([0.4, 0.55, 0.7, 0.85])
    res = solve_domination(DominationProblem(121, _mub_constraints(11, ts)))
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.value - (1.0 + 10.0 * float((ts ** 2).sum()))) <= 1e-6
    assert res.iterations <= 40


@pytest.mark.parametrize("minus_omega", [False, True], ids=["G", "G-omega"])
def test_long_step_schedule_on_a_dense_block(rng, minus_omega):
    # random bases couple every index: one 16 x 16 block (63-64 Newton steps
    # with mu / 5 per stage); G_i - omega is not PSD, as in the unital
    # criterion radius
    chans = [random_channel(rng, 4) for _ in range(2)]
    cons = tuple(
        g_matrix(c, random_basis(rng, 4)).m - (omega(4) if minus_omega else 0.0)
        for c in chans
    )
    assert _support_blocks(np.stack(cons)).shape == (1, 16)
    res = solve_domination(DominationProblem(16, cons))
    assert res.status is SolverStatus.OPTIMAL
    assert res.gap <= DOMINATION_GAP_TOL
    assert res.iterations <= 40


def test_weak_duality(rng):
    cons = tuple(random_psd(rng, 4) for _ in range(3))
    res = solve_domination(DominationProblem(4, cons))
    for c in cons:
        assert res.value >= np.trace(c).real - 1e-6


def test_feasibility_of_optimizer(rng):
    cons = tuple(random_psd(rng, 5) for _ in range(2))
    res = solve_domination(DominationProblem(5, cons))
    for c in cons:
        assert np.linalg.eigvalsh(res.optimizer - c)[0] >= -1e-7


def test_monotone_in_constraints(rng):
    a, b, c = (random_psd(rng, 4) for _ in range(3))
    two = solve_domination(DominationProblem(4, (a, b))).value
    three = solve_domination(DominationProblem(4, (a, b, c))).value
    assert three >= two - 1e-9


def test_orthogonal_closed_form():
    d = 3
    fam = mub_family(d)
    ts = (0.9, 0.6, 0.8)
    cons = tuple(
        g_matrix(make_depolarizing(d, t), e).m for t, e in zip(ts, fam.bases)
    )
    res = solve_domination(DominationProblem(d * d, cons))
    expected = 1.0 - len(cons) + sum(np.trace(c).real for c in cons)
    assert abs(res.value - expected) < 1e-6


def test_problem_validation():
    with pytest.raises(ValueError, match="at least one"):
        DominationProblem(4, ())
    with pytest.raises(ValueError, match="shape"):
        DominationProblem(4, (np.eye(3),))


# --- joint channel oracle ----------------------------------------------------

def test_delta_compatible_with_anything(rng):
    phi = random_channel(rng, 2)
    res = solve_joint_channel([make_depolarizing(2, 0.0), phi])
    assert res.status is Feasibility.FEASIBLE


def test_no_cloning():
    res = solve_joint_channel([make_identity(2), make_identity(2)])
    assert res.status is Feasibility.INFEASIBLE
    assert res.lambda_star < -1e-3


def test_depolarizing_boundary_marginal():
    c = make_depolarizing(2, 2.0 / 3.0)
    res = solve_joint_channel([c, c])
    assert res.status in (Feasibility.MARGINAL, Feasibility.FEASIBLE)
    assert abs(res.lambda_star) < 1e-5


def test_depolarizing_decisive_sides():
    inside = make_depolarizing(2, 0.6)
    assert solve_joint_channel([inside, inside]).status is Feasibility.FEASIBLE
    outside = make_depolarizing(2, 0.75)
    assert solve_joint_channel([outside, outside]).status is Feasibility.INFEASIBLE


def test_feasible_witness_is_valid_joint_choi(rng):
    c1, c2 = random_compatible_pair(rng, 2)
    res = solve_joint_channel([c1, c2])
    assert res.status is Feasibility.FEASIBLE
    w = res.witness
    assert np.abs(w - w.conj().T).max() < 1e-9
    assert np.linalg.eigvalsh(w)[0] >= -1e-6
    assert np.abs(partial_trace(w, [2, 2, 2], {0}) - np.eye(2)).max() < 1e-6
    # marginals reproduce the inputs
    assert np.abs(partial_trace(w, [2, 2, 2], {0, 1}) - c1.choi).max() < 1e-6
    assert np.abs(partial_trace(w, [2, 2, 2], {0, 2}) - c2.choi).max() < 1e-6


def test_oracle_permutation_symmetry(rng):
    a = make_depolarizing(2, 0.8)
    b = random_channel(rng, 2)
    r1 = solve_joint_channel([a, b])
    r2 = solve_joint_channel([b, a])
    assert r1.status == r2.status
    assert abs(r1.lambda_star - r2.lambda_star) < 1e-6


def test_werner_cloning_threshold_three_copies():
    # optimal 1 -> N cloning of a qubit: t* = (N + d) / (N (1 + d)) = 5/9
    # (Werner, PRA 58, 1827 (1998)); three copies use m = 216 free coordinates
    t_star = 5.0 / 9.0
    inside = solve_joint_channel([make_depolarizing(2, t_star - 1e-3)] * 3)
    assert inside.status is Feasibility.FEASIBLE
    outside = solve_joint_channel([make_depolarizing(2, t_star + 1e-3)] * 3)
    assert outside.status is Feasibility.INFEASIBLE


@pytest.mark.parametrize("max_steps", [1, 3, 10, sdp._ORACLE_MAX_NEWTON_STEPS])
def test_oracle_verdict_needs_its_bound(max_steps, monkeypatch):
    # a solve cut short attains a negative lambda below a compatible optimum;
    # only the dual bound lambda_star + gap may call it infeasible
    monkeypatch.setattr(sdp, "_ORACLE_MAX_NEWTON_STEPS", max_steps)
    cases = [
        ([make_depolarizing(2, 0.5)] * 2, True),
        ([make_depolarizing(2, 0.5)] * 3, True),
        ([make_identity(2)] * 2, False),
    ]
    for channels, compatible in cases:
        res = solve_joint_channel(channels)
        if res.status is Feasibility.INFEASIBLE:
            assert res.lambda_star + res.gap <= -FEASIBLE_BAND
        if res.status is Feasibility.FEASIBLE:
            assert res.lambda_star >= FEASIBLE_BAND
            assert np.linalg.eigvalsh(res.witness)[0] >= FEASIBLE_BAND - 1e-12
        if compatible:
            assert res.status is not Feasibility.INFEASIBLE


def test_oracle_failed_line_search_keeps_the_band_rule(monkeypatch):
    # every Cholesky after the starting point fails: the solve stops after
    # one step and may only claim what its bracket certifies
    cases = [([make_depolarizing(2, 0.5)] * 2, True), ([make_identity(2)] * 2, False)]
    for channels, compatible in cases:
        fail_cholesky_after_first_call(monkeypatch)
        res = solve_joint_channel(channels)
        assert res.iterations == 1
        assert res.gap >= 0.0
        if res.status is Feasibility.INFEASIBLE:
            assert res.lambda_star + res.gap <= -FEASIBLE_BAND
        if res.status is Feasibility.FEASIBLE:
            assert res.lambda_star >= FEASIBLE_BAND
            assert np.linalg.eigvalsh(res.witness)[0] >= FEASIBLE_BAND - 1e-12
        if compatible:
            assert res.status is not Feasibility.INFEASIBLE


def test_budget_error_names_dimension():
    # d=2, N=4 costs 4 * 32^2 = 4096, over the budget of 2000
    with pytest.raises(OracleBudgetError, match="2\\^5 = 32.*4096.*budget 2000"):
        solve_joint_channel([make_depolarizing(2, 0.5)] * 4)


def test_certified_gap_small():
    res = solve_joint_channel([make_identity(2), make_identity(2)])
    assert res.gap <= 1e-4


def test_witness_packages_as_rectangular_channel(rng):
    from qincompat.sdp import joint_witness_channel

    c1, c2 = random_compatible_pair(rng, 2)
    res = solve_joint_channel([c1, c2])
    joint = joint_witness_channel(res, 2, 2)
    assert joint.d_in == 2 and joint.d_out == 4
    infeasible = solve_joint_channel([make_identity(2), make_identity(2)])
    with pytest.raises(ValueError, match="not a certified channel"):
        joint_witness_channel(infeasible, 2, 2)


# --- joint measurement oracle ------------------------------------------------

def test_trivial_povms_jointly_measurable():
    p = Povm(2, (np.eye(2),))
    res = solve_povm_joint([p, p])
    assert res.status is Feasibility.FEASIBLE


def test_canonical_fourier_not_jointly_measurable():
    pc = Povm(2, tuple(np.outer(v, v.conj()) for v in canonical_basis(2)))
    pf = Povm(2, tuple(np.outer(v, v.conj()) for v in fourier_basis(2)))
    res = solve_povm_joint([pc, pf])
    assert res.status is Feasibility.INFEASIBLE


def test_induced_povms_of_compatible_pair(rng):
    c1, c2 = random_compatible_pair(rng, 2)
    p1 = induced_povm(c1, random_basis(rng, 2))
    p2 = induced_povm(c2, random_basis(rng, 2))
    res = solve_povm_joint([p1, p2])
    assert res.status is Feasibility.FEASIBLE


def test_povm_joint_budget():
    p = Povm(2, tuple(np.eye(2) / 4 for _ in range(4)))
    # 4^5 outcomes times d=2: dim 2048, dim^2 over the budget of 2000
    with pytest.raises(OracleBudgetError, match="2048.*budget 2000"):
        solve_povm_joint([p, p, p, p, p])
