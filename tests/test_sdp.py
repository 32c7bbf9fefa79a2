import itertools
import tracemalloc

import numpy as np
import pytest

from qincompat import (
    Channel,
    Povm,
    canonical_basis,
    fourier_basis,
    g_matrix,
    g_matrix_povm,
    induced_povm,
    make_depolarizing,
    make_identity,
    make_schur,
    mub_family,
    omega,
    schur_pair_criterion,
    select_bases,
    z_matrix,
    zhu_criterion_channels,
    zhu_criterion_povms,
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
    mix_toward_depolarizing,
    random_basis,
    random_channel,
    random_compatible_pair,
    random_hermitian,
    random_povm,
    random_psd,
    random_schur_matrix,
    random_unitary,
    to_vec_coordinates,
)


# --- analytic marginal family ------------------------------------------------

def _channel_family_args(rng, d, n):
    # the Choi matrix of a random d -> d^n channel: its input marginal is I
    joint = random_channel(rng, d, d ** n).choi
    return [d] * (n + 1), [_hermitian_basis(d)] * (n + 1), joint


def _povm_family_args(rng, d, counts):
    # a random joint POVM: the system, then one outcome register per marginal
    effects = random_povm(rng, d, int(np.prod(counts))).effects
    outcomes = np.eye(int(np.prod(counts)))
    joint = sum(np.kron(e, np.diag(row)) for row, e in zip(outcomes, effects))
    bases = [_hermitian_basis(d)] + [_diagonal_basis(k) for k in counts]
    return [d] + list(counts), bases, joint


def _marginals(dims, joint):
    # factor 0 is shared: the marginal on it and each other factor
    return [partial_trace(joint, dims, {0, i}) for i in range(1, len(dims))]


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
    dims, bases, joint = make_args(np.random.default_rng(5))
    for fb, dim in zip(bases, dims):
        assert np.abs(fb[0] - np.eye(dim) / np.sqrt(dim)).max() < 1e-15
        assert np.abs(fb - fb.conj().transpose(0, 2, 1)).max() == 0.0
    coeffs, strings = _marginal_family(bases, _marginals(dims, joint))

    # at most one non-identity factor past the shared factor 0: each of its
    # d_0^2 members times either no such factor or one non-identity member
    sizes = [len(fb) for fb in bases[1:]]
    expected = dims[0] ** 2 * (1 + sum(k - 1 for k in sizes))
    total = joint.shape[0]
    assert strings.shape == (expected, total, total)
    assert np.abs(strings[0] - np.eye(total) / np.sqrt(total)).max() < 1e-15
    flat = strings.reshape(len(strings), -1)
    assert np.abs(flat.conj() @ flat.T - np.eye(len(strings))).max() < 1e-12
    # every string is seen by some marginal
    for member in strings:
        assert max(np.linalg.norm(partial_trace(member, dims, {0, i}))
                   for i in range(1, len(dims))) > 0.5
    # the coefficients read off the marginals are those of any joint operator
    # with them
    assert coeffs.shape == (expected,)
    assert np.abs(coeffs - (flat.conj() @ joint.reshape(-1)).real).max() < 1e-12
    j0 = np.tensordot(coeffs, strings, axes=1)
    for target, marginal in zip(_marginals(dims, joint), _marginals(dims, j0)):
        assert np.abs(marginal - target).max() < 1e-12


def _all_strings_masked(dims, bases):
    # every Kronecker string, then those with at most one non-identity
    # factor past the shared factor 0
    strings = bases[0]
    for b in bases[1:]:
        k, n = strings.shape[0] * b.shape[0], strings.shape[1] * b.shape[1]
        strings = np.einsum("aij,bkl->abikjl", strings, b).reshape(k, n, n)
    labels = np.indices([len(b) for b in bases]).reshape(len(dims), -1)
    return strings[(labels[1:] > 0).sum(axis=0) <= 1]


@pytest.mark.parametrize(
    "make_args",
    [
        lambda rng: _channel_family_args(rng, 2, 2),
        lambda rng: _channel_family_args(rng, 3, 2),
        lambda rng: _channel_family_args(rng, 2, 3),
        lambda rng: _povm_family_args(rng, 2, (2, 3)),
    ],
    ids=["channel-d2-N2", "channel-d3-N2", "channel-d2-N3", "povm-2x3"],
)
def test_fixed_strings_are_the_masked_full_build(make_args):
    dims, bases, joint = make_args(np.random.default_rng(7))
    _, strings = _marginal_family(bases, _marginals(dims, joint))
    full = _all_strings_masked(dims, bases)
    assert strings.dtype == full.dtype and strings.shape == full.shape
    assert strings.tobytes() == full.tobytes()


@pytest.mark.parametrize(
    "make_args",
    [
        lambda rng: _channel_family_args(rng, 2, 3),
        lambda rng: _channel_family_args(rng, 3, 2),
        lambda rng: _povm_family_args(rng, 2, (2, 3)),
    ],
    ids=["channel-d2-N3", "channel-d3-N2", "povm-2x3"],
)
def test_budget_counts_the_fixed_string_stack(make_args, monkeypatch):
    # the budget is spent on the entries of the stack the family builds
    dims, bases, joint = make_args(np.random.default_rng(8))
    targets = _marginals(dims, joint)
    _, strings = _marginal_family(bases, targets)
    monkeypatch.setattr(sdp, "ORACLE_BUDGET", strings.size)
    _marginal_family(bases, targets)
    monkeypatch.setattr(sdp, "ORACLE_BUDGET", strings.size - 1)
    with pytest.raises(OracleBudgetError, match=f"m = {len(strings)} .* = {strings.size} "):
        _marginal_family(bases, targets)


def test_marginal_family_rejects_inconsistent_targets():
    rng = np.random.default_rng(6)
    dims, bases, joint = _channel_family_args(rng, 2, 2)
    targets = _marginals(dims, joint)
    # a Choi matrix of trace 2d has input marginal 2I, not the shared I
    with pytest.raises(RuntimeError, match="inconsistent"):
        _marginal_family(bases, [2.0 * targets[0]] + targets[1:])


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
        x = _newton_cg(u_stack, mu, rhs)
        for u_block, x_block, rhs_block in zip(u_stack, x, rhs):
            lhs = mu * sum(u @ x_block @ u for u in u_block)
            assert np.linalg.norm(lhs - rhs_block) <= 1e-9 * np.linalg.norm(rhs)


def _cholesky_armijo_step(s, ds, dcost, dec2, mu):
    """Halve t from 1 until S + t dS has a Cholesky factor and its total
    log-det passes the Armijo test; None if t drops to 1e-13."""

    def logdet(m):
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return None
        return 2.0 * float(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real).sum())

    phi0 = -mu * logdet(s)
    t = 1.0
    while t > 1e-13:
        logdet_try = logdet(s + t * ds)
        if logdet_try is not None and (
            t * dcost - mu * logdet_try <= phi0 - sdp._ARMIJO * t * dec2
        ):
            return t
        t *= 0.5
    return None


@pytest.mark.parametrize("shape", [(), (3, 4)], ids=["dense", "blocks"])
def test_line_search_eigenvalue_rule_picks_the_cholesky_step(rng, shape, monkeypatch):
    # one _center step on S (dense 6 x 6, or a (blocks, N, b, b) stack whose
    # step dS is shared by the N slacks of a block, as in the criterion) with
    # dec2 = mu ||K dS K^+||_F^2 and slope dcost - mu tr(S^-1 dS) = -c dec2:
    # c = 1 is a Newton step, c near _ARMIJO makes the Armijo test bind; the
    # t it takes is the Cholesky-Armijo reference's
    n = 6 if not shape else 3
    monkeypatch.setattr(sdp, "_MAX_NEWTON_STEPS", 1)
    picked = set()
    for scale, c in itertools.product((1.5, 4.0, 20.0, 100.0, 1000.0), (1.0, 0.05, 0.02)):
        for _ in range(4):
            s = np.stack([random_psd(rng, n) + 0.1 * np.eye(n)
                          for _ in range(int(np.prod(shape)))]).reshape(shape + (n, n))
            ds = np.stack([random_hermitian(rng, n) for _ in range(len(s) if shape else 1)])
            ds = ds[:, None] if shape else ds[0]
            k = np.linalg.inv(np.linalg.cholesky(s))
            lam = np.linalg.eigvalsh(k @ ds @ k.conj().swapaxes(-1, -2))
            ds *= scale / np.linalg.norm(lam)
            lam *= scale / np.linalg.norm(lam)
            mu = float(rng.uniform(1e-3, 1.0))
            dec2 = mu * float((lam ** 2).sum())
            dcost = mu * float(lam.sum()) - c * dec2
            reference = _cholesky_armijo_step(s, ds, dcost, dec2, mu)

            def newton(u, mu):
                return np.ones(1), ds, dcost, dec2

            z, s_new, k, _, _, steps, ok = sdp._center(
                np.zeros(1), s, sdp._inv_chol(s), 0.0, mu, newton, 0)
            assert steps == 1 and ok and reference is not None
            assert z[0] == reference
            picked.add(reference)
            assert np.allclose(s_new, s + reference * ds)
            assert np.allclose(k @ s_new @ k.conj().swapaxes(-1, -2), np.eye(n))
    # full steps and damped ones
    assert 1.0 in picked and min(picked) < 0.1


# --- domination solver -------------------------------------------------------

def _mub_constraints(d, ts):
    fam = mub_family(d)
    return tuple(
        g_matrix(make_depolarizing(d, t), e) for t, e in zip(ts, fam)
    )


def _random_blocks(rng, n_blocks, b, n_cons):
    # block-diagonal random PSD constraints sharing one support split; random
    # blocks do not commute, so the batched (blocks, N, b, b) barrier runs
    out = []
    for _ in range(n_cons):
        g = np.zeros((n_blocks * b, n_blocks * b), dtype=complex)
        for k in range(n_blocks):
            g[k * b:(k + 1) * b, k * b:(k + 1) * b] = random_psd(rng, b)
        out.append(g)
    return tuple(out)


def _dominates(res, cons):
    # no tolerance: the optimizer minus every constraint is PSD in floats too
    return all(np.linalg.eigvalsh(res.optimizer - g)[0] >= 0.0 for g in cons)


def _difference_classes(blocks, d):
    # the class of basis index a * d + b is a - b mod d
    return (blocks // d - blocks % d) % d


def test_support_blocks_follow_difference_classes(rng):
    # in row-major vec coordinates the unbiased tuples split by a - b mod d
    cons = [to_vec_coordinates(g) for g in _mub_constraints(5, (0.5, 0.7, 0.9))]
    blocks = _support_blocks(np.stack(cons))
    assert blocks.shape == (5, 5)
    classes = _difference_classes(blocks, 5)
    assert (classes == classes[:, :1]).all()
    assert sorted(blocks.ravel()) == list(range(25))

    pair = (
        to_vec_coordinates(g_matrix(make_depolarizing(4, 0.7), canonical_basis(4))),
        to_vec_coordinates(g_matrix(make_depolarizing(4, 0.8), fourier_basis(4))),
    )
    blocks = _support_blocks(np.stack(pair))
    assert blocks.shape == (4, 4)
    classes = _difference_classes(blocks, 4)
    assert (classes == classes[:, :1]).all()

    for d in (2, 3, 4):
        gs = [g_matrix(random_channel(rng, d), random_basis(rng, d))
              for _ in range(2)]
        assert _support_blocks(np.stack(gs)).shape == (1, d * d)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 11])
def test_unbiased_tuples_split_into_singletons(d):
    # every select_bases basis is a Weyl eigenbasis: the G-matrices are
    # diagonal in Weyl coordinates, d^2 blocks of 1 (d = 4: canonical, Fourier)
    bases, _ = select_bases(d, d + 1 if d != 4 else 2)
    ts = np.linspace(0.4, 0.9, len(bases))
    gs = [g_matrix(make_depolarizing(d, t), e) for t, e in zip(ts, bases)]
    assert _support_blocks(np.stack(gs)).tolist() == [[k] for k in range(d * d)]
    res = solve_domination(DominationProblem(gs))
    assert res.status is SolverStatus.OPTIMAL and res.iterations == 0
    assert res.lower_bound <= 1.0 + (d - 1) * float((ts ** 2).sum()) <= res.value


@pytest.mark.parametrize("d", [2, 3, 5])
def test_schur_pairs_cut_into_d_blocks(rng, d):
    # canonical: d singletons on the class a = 0; Fourier: d - 1 blocks of d
    # on the classes a > 0.  Largest first, they cut into d full blocks
    chans = [mix_toward_depolarizing(make_schur(random_schur_matrix(rng, d)), s)
             for s in (0.7, 0.9)]
    gs = [g_matrix(c, e) for c, e in zip(chans, (canonical_basis(d), fourier_basis(d)))]
    blocks = _support_blocks(np.stack(gs))
    assert blocks.shape == (d, d) and blocks[0].tolist() == list(range(d))
    assert sorted(blocks.ravel()) == list(range(d * d))
    res = solve_domination(DominationProblem(gs))
    ref = solve_domination(DominationProblem([to_vec_coordinates(g) for g in gs]))
    assert res.status is ref.status is SolverStatus.OPTIMAL
    assert max(res.lower_bound, ref.lower_bound) <= min(res.value, ref.value)
    # sizes 2, 1 in 3 fill no second block of 2: one block (see
    # test_unequal_components_are_one_block); sizes 2, 1, 1 cut into two
    g = np.kron(np.eye(2), np.ones((2, 2)))
    g[2, 3] = g[3, 2] = 0.0
    assert _support_blocks(g[None].astype(complex)).tolist() == [[0, 1], [2, 3]]
    # sizes 2, 1, 2, 1 (components {0, 1}, {2}, {3, 5}, {4}): largest first,
    # the two pairs, then the singletons as one block
    g = np.eye(6, dtype=complex)
    g[0, 1] = g[1, 0] = g[3, 5] = g[5, 3] = 1.0
    assert _support_blocks(g[None]).tolist() == [[0, 1], [2, 4], [3, 5]]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_weyl_and_vec_coordinates_give_one_value(rng, d):
    # a change of orthonormal coordinates keeps the optimum: both certified
    # brackets hold it, on random channels and bases (one dense block)
    for n in (1, 2, 3):
        gs = [g_matrix(random_channel(rng, d), random_basis(rng, d)) for _ in range(n)]
        res = solve_domination(DominationProblem(gs))
        ref = solve_domination(DominationProblem([to_vec_coordinates(g) for g in gs]))
        assert res.status is ref.status is SolverStatus.OPTIMAL
        assert max(res.lower_bound, ref.lower_bound) <= min(res.value, ref.value)


def test_single_constraint_is_tight():
    g = z_matrix(canonical_basis(2))
    # in Weyl coordinates Z = diag(1, 1, 0, 0), the projector onto the span
    # of I and Z (the class a = 0): four blocks of size 1
    assert _support_blocks(g[None]).tolist() == [[0], [1], [2], [3]]
    res = solve_domination(DominationProblem((g,)))
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.value - 2.0) < 1e-6
    assert np.abs(res.optimizer - g).max() < 1e-3
    assert res.gap <= 1e-6
    # one constraint commutes with itself: the closed form, no Newton step
    assert res.iterations == 0


def test_problem_keeps_read_only_copies():
    # the problem holds checked copies: a later change to the caller's array
    # (complex128, which a dtype conversion would not copy) reaches no
    # solve, and the stored constraints cannot be written
    g = np.eye(2, dtype=np.complex128)
    p = DominationProblem((g,))
    g[0, 0] = 100.0
    assert solve_domination(p).value == pytest.approx(2.0, abs=1e-9)
    assert p.dim == 2 and p.constraints[0][0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        p.constraints[0][0, 0] = 100.0


def test_problem_compares_by_identity():
    # an ndarray field has no truth value: equality and hash are by identity
    p = DominationProblem((np.eye(2),))
    assert p == p and p != DominationProblem((np.eye(2),))
    assert hash(p) == hash(p) and len({p, p}) == 1


def test_unequal_components_are_one_block():
    g = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], complex)
    # components {0, 1} and {2}
    assert _support_blocks(g[None]).tolist() == [[0, 1, 2]]
    # a repeated constraint commutes: the closed form, no Newton step
    res = solve_domination(DominationProblem((g, g)))
    assert res.status is SolverStatus.OPTIMAL and res.iterations == 0
    assert res.lower_bound <= 3.0 <= res.value
    assert np.abs(res.optimizer - g).max() < 1e-3
    assert _dominates(res, (g,))
    # a pair on the same support that does not commute: the pair closed form
    g2 = np.array([[2.0, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 1.0]], complex)
    assert _support_blocks(np.stack([g, g2])).tolist() == [[0, 1, 2]]
    res = solve_domination(DominationProblem((g, g2)))
    assert res.status is SolverStatus.OPTIMAL and res.iterations == 0
    assert res.lower_bound <= res.value and res.gap <= 1e-9
    assert _dominates(res, (g, g2))
    # a non-commuting triple on that support runs the barrier over one block
    g3 = np.array([[0.5, -1.0j, 0.0], [1.0j, 2.0, 0.0], [0.0, 0.0, 1.5]], complex)
    assert _support_blocks(np.stack([g, g2, g3])).tolist() == [[0, 1, 2]]
    res = solve_domination(DominationProblem((g, g2, g3)))
    assert res.status is SolverStatus.OPTIMAL and res.iterations > 0
    assert res.lower_bound <= res.value and res.gap <= DOMINATION_GAP_TOL
    assert _dominates(res, (g, g2, g3))


def test_off_block_noise_keeps_the_bracket(rng):
    # noise below the split threshold, placed only off the d blocks, is
    # dropped from the solve and added back to the value
    # vec coordinates, where the unbiased tuple splits into d blocks of d
    d, ts = 5, np.array([0.5, 0.7, 0.9])
    cons = [to_vec_coordinates(g) for g in _mub_constraints(d, ts)]
    blocks = _support_blocks(np.stack(cons))
    on_block = np.zeros((d * d, d * d), dtype=bool)
    on_block[blocks[:, :, None], blocks[:, None, :]] = True
    noisy = []
    for g in cons:
        noise = random_hermitian(rng, d * d, scale=1e-15)
        noise[on_block] = 0.0
        noisy.append(g + noise)
    assert _support_blocks(np.stack(noisy)).shape == (d, d)
    res = solve_domination(DominationProblem(tuple(noisy)))
    expected = 1.0 + (d - 1) * float((ts ** 2).sum())
    assert res.status is SolverStatus.OPTIMAL
    assert res.lower_bound <= expected <= res.value
    assert res.value == float(np.trace(res.optimizer).real)
    for g in noisy:
        assert np.linalg.eigvalsh(res.optimizer - g)[0] >= -1e-12


def test_commuting_diagonal_pair():
    a = np.diag([3.0, 1.0]).astype(complex)
    b = np.diag([2.0, 2.0]).astype(complex)
    res = solve_domination(DominationProblem((a, b)))
    assert abs(res.value - 5.0) < 1e-6


def test_commuting_random_pairs_match_eigen_max(rng):
    for _ in range(20):
        d = 6
        u = random_unitary(rng, d)
        da = rng.uniform(0.0, 3.0, d)
        db = rng.uniform(0.0, 3.0, d)
        a = u @ np.diag(da) @ u.conj().T
        b = u @ np.diag(db) @ u.conj().T
        res = solve_domination(DominationProblem((a, b)))
        # oracle: joint eigenbasis, largest eigenvalue per direction
        assert abs(res.value - np.maximum(da, db).sum()) < 1e-6


def test_mub_constraints_closed_form(rng):
    for d in (2, 3):
        fam = mub_family(d)
        for n in range(2, d + 2):
            ts = rng.uniform(0.0, 1.0, n)
            cons = tuple(
                g_matrix(make_depolarizing(d, t), e)
                for t, e in zip(ts, fam)
            )
            res = solve_domination(DominationProblem(cons))
            expected = 1.0 + (d - 1) * float((ts ** 2).sum())
            assert abs(res.value - expected) < 1e-6


def test_dropped_norm_keeps_the_optimizer_feasible():
    # the 9e-8 coupling of indices 1 and 2 is below the split threshold
    # (1e-13 of 1e6), so the indices split into the blocks {0, 1} and
    # {2, 3}, on which the constraints do not commute.  Every candidate,
    # the pair's closed form and each barrier stage of the triple, is
    # shifted by its excess measured per block, which never sees the
    # coupling, plus a round-off margin far below it, so only the added
    # ||E_i||_F I keeps the optimizer above the full constraints
    a = np.diag([1e6, 1.0, 1.0, 2.0]).astype(complex)
    a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 0.5
    b = np.diag([1e6, 2.0, 2.0, 1.0]).astype(complex)
    c = np.diag([1e6, 1.5, 1.5, 1.5]).astype(complex)
    c[0, 1], c[1, 0] = 0.5j, -0.5j
    c[2, 3] = c[3, 2] = -0.5
    for g in (a, b, c):
        g[1, 2] = g[2, 1] = 9e-8
    assert _support_blocks(np.stack([a, b, c])).tolist() == [[0, 1], [2, 3]]
    for cons, closed in (((a, b), True), ((a, b, c), False)):
        res = solve_domination(DominationProblem(cons))
        assert res.status is SolverStatus.OPTIMAL
        assert (res.iterations == 0) is closed
        assert res.lower_bound <= res.value and res.gap <= DOMINATION_GAP_TOL
        assert _dominates(res, cons)


def _rot_triple(t):
    # the real qubit basis rotated by 0, pi / 8 and 3 pi / 16: the
    # G-matrices of three equal depolarizing channels do not commute
    bases = [np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]], dtype=complex)
             for a in (0.0, np.pi / 8, 3 * np.pi / 16)]
    return bases, tuple(g_matrix(make_depolarizing(2, t), e) for e in bases)


@pytest.mark.parametrize("t", [1.0, 0.7], ids=["identity", "t0.7"])
def test_every_barrier_stage_is_read_like_the_closed_form(t):
    # each stage's iterate is shifted by its measured excess, so even at a
    # tolerance near round-off the optimizer dominates in floats and the
    # gap is never negative; OPTIMAL is exactly a certified gap within
    # gap_tol, which 1e-13 is below: the schedule ends MAX_ITERATIONS
    _, cons = _rot_triple(t)
    for gap_tol in (1e-12, 1e-13):
        res = solve_domination(DominationProblem(cons), gap_tol=gap_tol)
        assert res.iterations > 0 and res.gap >= 0.0 and _dominates(res, cons)
        assert res.status is not SolverStatus.NUMERICAL_FAILURE
        assert (res.status is SolverStatus.OPTIMAL) == (res.gap <= gap_tol)
    assert res.status is SolverStatus.MAX_ITERATIONS


_PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


def test_barrier_is_scale_free():
    # the Pauli triple c (I + sigma / 2) is solved divided by the power of two
    # nearest c, so a tolerance relative to c is met in the same few steps at
    # every c; at 1e16 the start (lambda_max + 1) I no longer loses its 1 to
    # round-off
    for c in (1e-9, 1.0, 1e6, 1e12, 1e16):
        cons = tuple(c * (np.eye(2) + 0.5 * p) for p in _PAULI)
        res = solve_domination(DominationProblem(cons), gap_tol=1e-6 * c)
        assert res.status is SolverStatus.OPTIMAL and 0 < res.iterations <= 40
        assert abs(res.value / c - 2.8164966) < 1e-6 and _dominates(res, cons)
    res = solve_domination(DominationProblem(cons), gap_tol=1e10)
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.value / 1e16 - 2.8164966) < 1e-6
    # gap_tol stays absolute: the default 1e-6 is below the round-off of a
    # value of 1e15 and up, and no stage runs below the floor mu = 1e-14 of
    # the scaled blocks, so the barrier stops within a few stages
    for c in (1e15, 1e16, 1e100):
        cons = tuple(c * (np.eye(2) + 0.5 * p) for p in _PAULI)
        res = solve_domination(DominationProblem(cons))
        assert res.status is SolverStatus.MAX_ITERATIONS and res.iterations <= 40
        assert np.isfinite(res.lower_bound) and np.isfinite(res.value)
        assert res.lower_bound <= res.value and _dominates(res, cons)


def _full_dual(res):
    """The returned dual, shifted to PSD and divided per block by lambda_max(sum_i Y_i),
    on the full index set: one (dim, dim) matrix per constraint."""
    index, y = res.dual
    b, dim = y.shape[-1], index.size
    y = y + np.maximum(0.0, -np.linalg.eigvalsh(y)[..., :1, None]) * np.eye(b)
    y = y / np.linalg.eigvalsh(y.sum(axis=1))[:, -1, None, None, None]
    full = np.zeros((y.shape[1], dim, dim), dtype=complex)
    for block, rows in enumerate(index):
        full[:, rows[:, None], rows[None, :]] = y[block]
    return full


@pytest.mark.parametrize("kind", ["pair", "commuting-triple", "rotated-triple"])
def test_domination_returns_its_dual(kind):
    # the closed form's projectors for a pair and for commuting constraints,
    # the last barrier stage's Newton-step dual for the rotated-basis triple
    if kind == "pair":
        cons = (g_matrix(make_depolarizing(2, 0.9), canonical_basis(2)),
                g_matrix(make_identity(2), fourier_basis(2)))
    elif kind == "commuting-triple":
        cons = _mub_constraints(2, (0.6, 0.7, 0.8))
    else:
        _, cons = _rot_triple(0.7)
    res = solve_domination(DominationProblem(cons))
    assert res.status is SolverStatus.OPTIMAL
    assert (res.iterations > 0) is (kind == "rotated-triple")
    index, y = res.dual
    assert index.shape == (y.shape[0], y.shape[-1]) and y.shape[1] == len(cons)
    assert sorted(index.reshape(-1).tolist()) == list(range(4))
    assert np.linalg.eigvalsh(y).min() >= -1e-12  # every Y_i is PSD
    lam = np.linalg.eigvalsh(y.sum(axis=1))
    assert np.abs(lam - 1.0).max() <= 1e-9  # sum_i Y_i = I per block
    # weak duality from the returned dual alone reproduces the lower bound
    bound = sum(np.vdot(yi, g).real for yi, g in zip(_full_dual(res), cons))
    assert abs(bound - res.lower_bound) <= 1e-12 and bound <= res.value
    # a power of two scales the constraints and the (absolute) gap tolerance
    # exactly: the same dual, bit for bit
    for k in (-7, 10, 40):
        scaled = solve_domination(DominationProblem(tuple(2.0 ** k * g for g in cons)),
                                  gap_tol=2.0 ** k * DOMINATION_GAP_TOL)
        assert np.array_equal(scaled.dual[0], index) and np.array_equal(scaled.dual[1], y)
        assert scaled.value == 2.0 ** k * res.value
        assert scaled.lower_bound == 2.0 ** k * res.lower_bound


@pytest.mark.parametrize("gap_tol", [0.0, -1e-6, float("nan")])
def test_gap_tolerance_must_be_positive(gap_tol):
    bases, cons = _rot_triple(1.0)
    with pytest.raises(ValueError, match="gap_tol must be positive"):
        solve_domination(DominationProblem(cons), gap_tol=gap_tol)
    with pytest.raises(ValueError, match="gap_tol must be positive"):
        zhu_criterion_channels([make_identity(2)] * 3, bases, sdp_gap=gap_tol)


@pytest.mark.parametrize(
    "d,n", [(d, n) for d in (2, 3, 5, 7, 11) for n in (2, 3, 4) if n <= d + 1]
)
def test_dual_bound_brackets_closed_form(d, n):
    # over a mutually unbiased family the optimum is 1 + (d - 1) * sum(t_i^2);
    # the G_i commute, so the closed form decides with no Newton step
    ts = np.linspace(0.5, 0.9, n)
    cons = _mub_constraints(d, ts)
    res = solve_domination(DominationProblem(cons))
    expected = 1.0 + (d - 1) * float((ts ** 2).sum())
    assert res.status is SolverStatus.OPTIMAL and res.iterations == 0
    assert res.lower_bound <= expected <= res.value
    assert res.value - res.lower_bound == res.gap
    assert res.gap <= 1e-9
    assert _dominates(res, cons)


def test_long_step_schedule_on_equal_random_blocks(rng):
    # four random PSD constraints on eleven 4 x 4 blocks: one barrier over
    # (11, 4, 4, 4) stacks; MUB tuples of this shape commute and take no
    # Newton step
    cons = _random_blocks(rng, 11, 4, 4)
    assert _support_blocks(np.stack(cons)).shape == (11, 4)
    res = solve_domination(DominationProblem(cons))
    assert res.status is SolverStatus.OPTIMAL
    assert res.gap <= DOMINATION_GAP_TOL
    assert 0 < res.iterations <= 40
    assert _dominates(res, cons)


def _kappa_constraints(d, ts, u):
    # the unital criterion radius SDP: u_i^2 (G_i - omega), not PSD
    return tuple(ui * ui * (g - omega(d)) for g, ui in zip(_mub_constraints(d, ts), u))


def _schur_pair_constraints(b, c, s, t):
    # canonical / Fourier G-matrices of two noise-scaled Schur channels
    d = len(b)
    chans = [mix_toward_depolarizing(make_schur(m), w) for m, w in ((b, s), (c, t))]
    return tuple(
        g_matrix(ch, e) for ch, e in zip(chans, (canonical_basis(d), fourier_basis(d)))
    )


_B = np.array([[1.0, 0.5], [0.5, 1.0]])
_B3 = np.array([[1.0, 0.3, 0.2j], [0.3, 1.0, 0.4], [-0.2j, 0.4, 1.0]])


@pytest.mark.parametrize(
    "cons, exact",
    [
        (_schur_pair_constraints(_B, _B, 0.9, 0.9),
         schur_pair_criterion(_B, _B, 0.9, 0.9).value),
        (_schur_pair_constraints(_B3, _B3, 0.8, 0.6),
         schur_pair_criterion(_B3, _B3, 0.8, 0.6).value),
        # kappa = (d - 1) sum_i u_i^2 t_i^2
        (_kappa_constraints(5, (0.7, 0.9), (0.6, 0.8)), 4.0 * (0.36 * 0.49 + 0.64 * 0.81)),
        (_kappa_constraints(3, (1.0, 1.0), (1.0, 0.0)), 2.0),
        ((np.diag([-1.0, 2.0, 0.5]).astype(complex),), 1.5),
    ],
    ids=["schur-d2", "schur-d3", "kappa-d5", "kappa-d3-axis", "one-constraint"],
)
def test_commuting_constraints_are_closed_form(cons, exact):
    # MUB tuples: test_dual_bound_brackets_closed_form; a repeated
    # constraint: test_unequal_components_are_one_block
    res = solve_domination(DominationProblem(cons))
    assert res.status is SolverStatus.OPTIMAL and res.iterations == 0
    assert res.lower_bound <= exact <= res.value
    assert res.gap == res.value - res.lower_bound <= 1e-9
    assert _dominates(res, cons)


def _pair_optimum(a, b):
    # min Tr H s.t. H >= a, b is Tr b + Tr (a - b)_+ = (Tr a + Tr b + ||a - b||_1) / 2
    return float(np.trace(a + b).real + np.abs(np.linalg.eigvalsh(a - b)).sum()) / 2.0


def _random_pairs(rng, d):
    # a random PSD pair of size d, and the G-matrices of two random
    # (non-unital) channels in random bases, one d^2 x d^2 block
    yield random_psd(rng, d), random_psd(rng, d)
    yield tuple(g_matrix(random_channel(rng, d), random_basis(rng, d)) for _ in range(2))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pair_closed_form_needs_no_commutation(rng, d):
    for _ in range(5):
        for pair in _random_pairs(rng, d):
            a, b = pair
            assert np.abs(a @ b - b @ a).max() > 1e-6
            res = solve_domination(DominationProblem(pair))
            exact = _pair_optimum(a, b)
            assert res.status is SolverStatus.OPTIMAL and res.iterations == 0
            assert res.lower_bound <= exact <= res.value
            assert res.gap <= 1e-9
            assert _dominates(res, pair)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pair_closed_form_agrees_with_the_barrier(rng, d):
    # every G-matrix dominates omega, so adding it as a third constraint
    # keeps the optimum and makes the solver run the barrier
    pair = tuple(g_matrix(random_channel(rng, d), random_basis(rng, d)) for _ in range(2))
    closed = solve_domination(DominationProblem(pair))
    barrier = solve_domination(DominationProblem(pair + (omega(d),)))
    assert closed.iterations == 0 and barrier.iterations > 0
    assert barrier.status is SolverStatus.OPTIMAL
    assert barrier.lower_bound <= closed.value and closed.lower_bound <= barrier.value
    assert abs(barrier.value - closed.value) <= DOMINATION_GAP_TOL


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_povm_pair_criterion_is_the_pair_optimum(rng, d):
    povms = [random_povm(rng, d, d + 1) for _ in range(2)]
    v = zhu_criterion_povms(povms)
    exact = _pair_optimum(*(g_matrix_povm(p) for p in povms))
    assert abs(v.value - exact) <= 1e-9 * exact


def test_non_commuting_perturbation_runs_the_barrier(rng):
    # 1e-7 Hermitian noise couples the five MUB blocks into one and breaks
    # commutation; the optimum moves by at most dim * max_i ||P_i||_2
    ts = np.array([0.5, 0.7, 0.9])
    noise = [random_hermitian(rng, 25, scale=1e-7) for _ in ts]
    cons = tuple(g + p for g, p in zip(_mub_constraints(5, ts), noise))
    assert _support_blocks(np.stack(cons)).shape == (1, 25)
    res = solve_domination(DominationProblem(cons))
    assert res.status is SolverStatus.OPTIMAL and res.iterations > 0
    assert res.lower_bound <= res.value and res.gap <= DOMINATION_GAP_TOL
    moved = 25 * max(np.abs(np.linalg.eigvalsh(p)).max() for p in noise)
    exact = 1.0 + 4.0 * float((ts ** 2).sum())
    assert res.lower_bound - moved <= exact <= res.value + moved
    assert _dominates(res, cons)


@pytest.mark.parametrize("minus_omega", [False, True], ids=["G", "G-omega"])
def test_long_step_schedule_on_a_dense_block(rng, minus_omega):
    # random bases couple every index: one 16 x 16 block; three constraints
    # do not commute, so the barrier runs (a pair closes with no step);
    # G_i - omega is not PSD, as in the unital criterion radius
    chans = [random_channel(rng, 4) for _ in range(3)]
    cons = tuple(
        g_matrix(c, random_basis(rng, 4)) - (omega(4) if minus_omega else 0.0)
        for c in chans
    )
    assert _support_blocks(np.stack(cons)).shape == (1, 16)
    res = solve_domination(DominationProblem(cons))
    assert res.status is SolverStatus.OPTIMAL
    assert res.gap <= DOMINATION_GAP_TOL
    assert 0 < res.iterations <= 40


def test_weak_duality(rng):
    cons = tuple(random_psd(rng, 4) for _ in range(3))
    res = solve_domination(DominationProblem(cons))
    for c in cons:
        assert res.value >= np.trace(c).real - 1e-6


def test_feasibility_of_optimizer(rng):
    cons = tuple(random_psd(rng, 5) for _ in range(2))
    res = solve_domination(DominationProblem(cons))
    for c in cons:
        assert np.linalg.eigvalsh(res.optimizer - c)[0] >= -1e-7


def test_monotone_in_constraints(rng):
    a, b, c = (random_psd(rng, 4) for _ in range(3))
    two = solve_domination(DominationProblem((a, b))).value
    three = solve_domination(DominationProblem((a, b, c))).value
    assert three >= two - 1e-9


def test_orthogonal_closed_form():
    d = 3
    fam = mub_family(d)
    ts = (0.9, 0.6, 0.8)
    cons = tuple(
        g_matrix(make_depolarizing(d, t), e) for t, e in zip(ts, fam)
    )
    res = solve_domination(DominationProblem(cons))
    expected = 1.0 - len(cons) + sum(np.trace(c).real for c in cons)
    assert abs(res.value - expected) < 1e-6


def test_problem_validation():
    with pytest.raises(ValueError, match="at least one"):
        DominationProblem(())
    with pytest.raises(ValueError, match="shape"):
        DominationProblem((np.eye(3), np.eye(4)))
    # one matrix is not a stack of one: its rows are not matrices
    with pytest.raises(ValueError, match="shape"):
        DominationProblem(np.eye(4))
    with pytest.raises(ValueError, match="not Hermitian"):
        DominationProblem((np.eye(2), np.triu(np.ones((2, 2)))))
    with pytest.raises(ValueError, match="non-finite"):
        DominationProblem((np.eye(2), np.full((2, 2), np.nan)))
    for d, n in ((2, 1), (3, 3)):
        p = DominationProblem(_mub_constraints(d, (0.5, 0.6, 0.7)[:n]))
        assert p.dim == d * d and p.constraints.shape == (n, d * d, d * d)
        assert p.constraints.dtype == np.complex128 and not p.constraints.flags.writeable


def test_problem_takes_any_iterable_of_constraints():
    # numpy refused the truth value of a stacked array of constraints
    cons = (np.eye(4), np.diag([2.0, 0.0, 0.0, 0.0]))
    results = [solve_domination(DominationProblem(c))
               for c in (np.stack(cons), cons, list(cons), iter(cons))]
    for res in results:
        assert res.status is SolverStatus.OPTIMAL
        assert (res.value, res.lower_bound) == (results[1].value, results[1].lower_bound)
    assert results[1].value == pytest.approx(5.0, abs=1e-6)


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


@pytest.mark.parametrize("d, n", [(2, 3), (2, 4), (2, 5)], ids=["d2-N3", "d2-N4", "d2-N5"])
def test_werner_cloning_threshold(d, n):
    # optimal 1 -> N cloning: t* = (N + d) / (N (1 + d)), 5/9, 1/2 and 7/15
    # (Werner, PRA 58, 1827 (1998)); N = 4 and 5 were past the old N * D^2 rule
    t_star = (n + d) / (n * (1.0 + d))
    inside = solve_joint_channel([make_depolarizing(d, t_star - 1e-3)] * n)
    assert inside.status is Feasibility.FEASIBLE
    outside = solve_joint_channel([make_depolarizing(d, t_star + 1e-3)] * n)
    assert outside.status is Feasibility.INFEASIBLE


@pytest.mark.parametrize("max_steps", [1, 3, 10, sdp._MAX_NEWTON_STEPS])
def test_oracle_verdict_needs_its_bound(max_steps, monkeypatch):
    # a solve cut short attains a negative lambda below a compatible optimum;
    # only the dual bound lambda_star + gap may call it infeasible
    monkeypatch.setattr(sdp, "_MAX_NEWTON_STEPS", max_steps)
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


@pytest.mark.parametrize(
    "d, n, t, status",
    [
        (3, 2, 0.6, Feasibility.FEASIBLE),
        (3, 2, 0.7, Feasibility.INFEASIBLE),
        (2, 3, 0.5, Feasibility.FEASIBLE),
        (2, 3, 0.6, Feasibility.INFEASIBLE),
    ],
    ids=["d3-N2-0.6", "d3-N2-0.7", "d2-N3-0.5", "d2-N3-0.6"],
)
def test_long_step_oracle_on_the_largest_instances(d, n, t, status):
    # the dual barrier over the fixed strings decides each in 5-8 Newton steps
    res = solve_joint_channel([make_depolarizing(d, t)] * n)
    assert res.status is status
    assert res.iterations <= 10


def test_center_returns_the_newton_step_dual(monkeypatch, rng):
    # every dual point _center returns meets the dual's equality constraints
    # to round-off and is PSD: sum_i Y_i = I per block for the criterion,
    # <Y, G_k> = c_k over the oracle engine's strings G_k and costs c
    problems, checked = [], []
    engine, center = sdp._max_affine_min_eig, sdp._center
    mode = []

    def engine_with_problem(coeffs, strings, mu=1.0):
        problems.append((strings[1:], coeffs[1:]))
        try:
            return engine(coeffs, strings, mu)
        finally:
            problems.pop()

    def checked_center(*args):
        out = center(*args)
        y = out[4]
        norm = np.linalg.norm(y)
        if y.ndim == 4:  # criterion blocks (blocks, N, b, b)
            assert np.abs(y.sum(axis=1) - np.eye(y.shape[-1])).max() <= 1e-9
            checked.append("criterion")
        else:
            strings, c = problems[-1]
            checked.append(mode[-1])
            residual = np.einsum("kab,ba->k", strings, y).real - c
            assert np.abs(residual).max() <= 1e-9 * max(1.0, norm)
        assert np.linalg.eigvalsh(y)[..., 0].min() >= -1e-10 * norm
        return out

    monkeypatch.setattr(sdp, "_max_affine_min_eig", engine_with_problem)
    monkeypatch.setattr(sdp, "_center", checked_center)
    solve_domination(DominationProblem(_random_blocks(rng, 3, 4, 3)))
    dense = tuple(
        g_matrix(random_channel(rng, 3), random_basis(rng, 3)) - omega(3)
        for _ in range(2)
    )
    solve_domination(DominationProblem(dense))
    # the Schur pair's Choi matrices are rank-deficient
    schur = [make_schur(np.array([[1.0, b], [b, 1.0]])) for b in (0.5, 0.3)]
    mode.append("lambda")
    for channels in (
        [make_depolarizing(2, 0.6)] * 2,
        [make_depolarizing(2, 0.75)] * 2,
        [make_depolarizing(2, 0.5)] * 3,
        schur,
    ):
        solve_joint_channel(channels)
    solve_povm_joint([random_povm(rng, 2, 2), random_povm(rng, 2, 3)])
    mode.append("radius")
    u = (np.cos(0.6), np.sin(0.6))
    for channels in ([make_depolarizing(2, 0.9), make_depolarizing(2, 0.95)], schur):
        sdp._joint_channel_radius(channels, u, 1.0 / max(u))
    assert set(checked) == {"criterion", "lambda", "radius"}


def test_budget_error_names_dimension():
    # d=3, N=4: m = 4 * 3^4 - 3 * 3^2 = 297 fixed strings of dimension
    # D = 3^5 = 243 make m * D^2 = 17,537,553, over the budget of 2^22
    with pytest.raises(OracleBudgetError, match=(
        r"dimensions \(3, 3, 3, 3, 3\) has m = 297 fixed strings of dimension "
        r"D = 243: m \* D\^2 = 17537553 is over the oracle budget 4194304"
    )):
        solve_joint_channel([make_depolarizing(3, 0.5)] * 4)


def test_budget_check_comes_before_any_array():
    # nine qubit channels: m = 4 * (1 + 9 * 3) = 112 strings of dimension
    # 2^10 are refused; a check after the label grid would first allocate
    # its 4^10 * 10 int64 entries, ~84 MB
    channels = [make_depolarizing(2, 0.5)] * 9
    tracemalloc.start()
    try:
        with pytest.raises(OracleBudgetError, match="m = 112 .* D = 1024"):
            solve_joint_channel(channels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("case", ["id2-pair", "random-qubit-pairs", "id2-triple", "id3-pair"])
def test_ray_radius_is_lambda_star_at_the_ray_end(case, rng):
    # from the origin J(0) = I / d^N, so the radius is r_max / (1 - d^N lambda*)
    # with lambda* of solve_joint_channel at the ray's end, r_max once it is >= 0

    def rank2_qubit_channel():  # a random isometry C^2 -> C^2 (x) C^2, non-unital
        kraus = random_unitary(rng, 4)[:, :2].reshape(2, 2, 2).transpose(1, 0, 2)
        vecs = kraus.transpose(0, 2, 1).reshape(2, 4)
        return Channel(2, 2, vecs.T @ vecs.conj(), label="rank-2")

    u2 = (np.cos(0.6), np.sin(0.6))
    tuples = {
        "id2-pair": [([make_identity(2)] * 2, u2)],
        "random-qubit-pairs": [([rank2_qubit_channel(), rank2_qubit_channel()], u2)
                               for _ in range(3)],
        "id2-triple": [([make_identity(2)] * 3, (1 / np.sqrt(3),) * 3)],
        "id3-pair": [([make_identity(3)] * 2, u2)],
    }[case]
    for channels, u in tuples:
        d, n, r_max = channels[0].d, len(channels), 1.0 / max(u)
        (lo, hi), _ = sdp._joint_channel_radius(channels, u, r_max)
        end = solve_joint_channel([mix_toward_depolarizing(c, min(r_max * ui, 1.0))
                                   for c, ui in zip(channels, u)])
        ends = [r_max / (1.0 - min(d ** n * lam, 0.0))
                for lam in (end.lambda_star, end.lambda_star + end.gap)]
        assert max(lo, ends[0]) <= min(hi, ends[1])
        assert hi - lo <= sdp.FEASIBILITY_GAP_COARSE


def test_radius_sdp_holds_one_string_stack():
    # the qutrit identity pair's diagonal: m = 153 strings of dimension D = 27.
    # A Newton step holds the stack and two products of its size; a second
    # stack (a copy for the witness, or one padded by a slack entry) would
    # add one more
    stack = 153 * 27 ** 2 * 16
    u = (np.sqrt(0.5),) * 2
    tracemalloc.start()
    try:
        (lo, hi), _ = sdp._joint_channel_radius(
            [make_depolarizing(3, 1.0)] * 2, u, np.sqrt(2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.75 * stack
    # Werner's 1 -> 2 qutrit cloning bound s* = 5/8 on both channels
    assert lo <= 5 / 8 * np.sqrt(2.0) <= hi


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


def test_one_channel_or_povm_runs_the_barrier_over_t_alone(rng):
    # one channel or POVM fixes every string, so the witness is j0 and
    # lambda* its least eigenvalue, with a certified gap from the barrier
    channels = [make_depolarizing(2, 0.5), make_identity(2), random_channel(rng, 3)]
    povms = [random_povm(rng, 2, 3), Povm(2, tuple(np.outer(v, v) for v in np.eye(2)))]
    results = [solve_joint_channel([c]) for c in channels]
    results += [solve_povm_joint([p]) for p in povms]
    for res in results:
        assert abs(res.lambda_star - np.linalg.eigvalsh(res.witness)[0]) <= 1e-15
        assert res.iterations > 0 and 0.0 <= res.gap <= sdp.FEASIBILITY_GAP_COARSE
    assert [res.status for res in results] == [
        Feasibility.FEASIBLE, Feasibility.MARGINAL, Feasibility.FEASIBLE,
        Feasibility.FEASIBLE, Feasibility.MARGINAL]


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
    # five 4-outcome qubit POVMs: m = 4 * (1 + 5 * 3) = 64 strings of
    # dimension D = 4^5 * 2 = 2048, m * D^2 over the budget of 2^22
    with pytest.raises(OracleBudgetError, match=(
        r"m = 64 .* D = 2048: m \* D\^2 = 268435456 is over the oracle budget 4194304"
    )):
        solve_povm_joint([p, p, p, p, p])
