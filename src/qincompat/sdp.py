"""Two small dense semidefinite solvers.

(a) ``solve_domination``: minimize Tr H subject to H >= G_i, read in place
    off one checked read-only (N, dim, dim) stack of Hermitian constraints.

    The index set is split into the connected components of the support of
    sum_i |G_i| (entries below 1e-13 of its largest count as zero).  Pinching
    a feasible H onto those blocks keeps it feasible and keeps Tr H, so when
    every component has the same size b the solver runs over stacks of
    shape (blocks, N, b, b); any other support is a single block of all
    indices.  The dropped off-block parts E_i are added back as
    dim * max_i ||E_i||_F, the trace of a shift that makes the assembled H
    dominate every full G_i (||E||_F >= ||E||_2).  The blocks are scaled by
    a power of two to max_i |lambda(G_i)| ~ 1, so no solve depends on scale.

    Pairs have a closed form, commuting or not: H = G_2 + (G_1 - G_2)_+,
    Y_1 the projector onto the positive part of G_1 - G_2, Y_2 = I - Y_1
    (Zhu, Sci. Rep. 5, 14317 (2015)).  So do commuting constraints (MUB
    tuples of depolarizing channels, one constraint): in a common
    eigenbasis V, H = V diag(max_i lambda_ik) V^+ with Y_i the projector
    onto the directions where G_i attains the max.  That H is returned
    when its certified gap meets the target, with no Newton step; else
    (three or more constraints that do not commute) a log-det barrier is
    driven down a geometric schedule with damped Newton centering steps,
    until a stage's certified gap meets it:

        minimize  Tr H - mu * sum_i log det(H - G_i + eps I).

    Its dual point is the one of the last Newton step (see ``_center``):
    Y_i = mu (U_i - U_i dH U_i) with U_i = (H - G_i + eps I)^-1, PSD and
    summing to I.  By weak duality sum_i Tr(Y_i G_i) is a lower bound on
    the optimum for either dual point, returned as ``SdpResult.dual``.  The
    Y_i are block-diagonal, so the bound is taken per block, and it is made
    safe from round-off: each Y_i is shifted by its round-off negative
    eigenvalue, the block's sum is divided by lambda_max(sum_i Y_i), and
    the float error bound gamma_n sum_i |Y_i||G_i| is subtracted.  Every
    candidate H, the closed form and each stage's iterate, is read one
    way: each block is shifted by its measured max_i lambda_max(G_i - H)
    plus a round-off margin, and the reported gap is the distance from the
    shifted Tr H down to that bound, so it is never negative.

(b) ``solve_joint_channel`` / ``solve_povm_joint``: decide whether a joint
    channel (or joint measurement) with prescribed marginals exists.  Over
    Kronecker strings of per-factor Hermitian bases with member 0 the
    normalized identity, factor 0 shared by every marginal, the marginals
    fix exactly the strings with at most one non-identity factor past 0,
    each coefficient read off one target.  One barrier engine solves the
    oracle's program in dual form over those fixed strings (Vandenberghe
    & Boyd, SIAM Rev. 38, 49 (1996)).  The verdict is

        lambda* = min <Y, j0>  subject to  Y = I/D + sum_k a_k F_k >= 0,

    with F_k the traceless fixed strings and j0 the fixed part of any joint
    operator with the marginals.  Each iterate Y is PSD, so its value
    bounds lambda* from above; the Newton-step dual carries the fixed
    coefficients of j0, and j0 plus its free part is a witness whose
    lambda_min bounds lambda* from below.  Along a ray of noise-scaled
    channels J(r) = J(0) + r E with J(0) = I / d^N, so J(r_max) - lambda
    J(0) = (1 - lambda) J(r_max / (1 - lambda)): the radius is r_max / (1 -
    lambda*) with lambda* of d^N J(r_max) against I, and r_max when lambda*
    >= 0; its last iterate Y bounds lambda* at every noise vector x by 1 +
    x.b, a dual half-plane (``_joint_channel_radius``).

One stage loop, ``_barrier``, runs both barriers under one policy: mu
falls 1000-fold per stage down to a floor, never below 1e-14, and both
solvers read a certified bracket after every stage, stopping once it is
closed or at the one Newton cap.  One
routine, ``_center``, centers every stage by damped Newton with an
Armijo line search along the slack direction dS, until the Newton
decrement is at most 1 (dec2 <= mu).  The search reads every trial step
off the eigenvalues of K dS K^+, K = L^-1 for the Cholesky factor L of the
slack S, and takes one Cholesky per Newton step, of the accepted slack,
which gives the next step's K and U = K^+ K.  It returns the dual
point of its last Newton step, mu (U - U dS U) with U the inverse slack:
the Newton equations are the dual's equality constraints, and the point
is PSD at that decrement (Boyd & Vandenberghe, Convex Optimization,
11.2.2 and 11.3.3).  Each solver supplies its Newton system and reads
its certificate.  The domination Newton step is preconditioned CG on
block-diagonal Hermitian matrices.  The oracle step builds its Newton
system from matmuls over the fixed strings flattened once (the Hessian as
one real product of the (Re, Im) views).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import Channel, shared_dimension
from .linalg import check_hermitian

DOMINATION_GAP_TOL = 1e-6
FEASIBILITY_GAP_COARSE = 1e-5
FEASIBILITY_GAP_FINE = 5e-8
FEASIBLE_BAND = 1e-7
# m * D^2, the entries of the stack of m fixed strings of dimension D; 2^22
# admits d=2 with N <= 6, d=3 with N <= 3 and d=4 pairs, nothing larger
ORACLE_BUDGET = 2 ** 22
_MAX_NEWTON_STEPS = 800
_MU_MIN = 1e-14

_BARRIER_SHIFT = 1e-12
# entries of sum_i |G_i| below this fraction of its largest split no blocks
_BLOCK_ZERO = 1e-13
# long steps: the Newton-step dual of _center is exact at decrement 1
_MU_FACTOR = 1e-3
_ARMIJO = 0.01


class OracleBudgetError(ValueError):
    """An oracle instance's fixed-string stack has more than ``ORACLE_BUDGET`` entries."""


class SolverStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max-iterations"
    NUMERICAL_FAILURE = "numerical-failure"


class Feasibility(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class DominationProblem:
    """The program min Tr H s.t. H >= constraints[i], kept as one checked read-only stack."""

    constraints: np.ndarray

    def __post_init__(self):
        mats = [check_hermitian(c) for c in self.constraints]
        if not mats:
            raise ValueError("at least one constraint is required")
        stack = np.stack(mats)
        stack.setflags(write=False)
        object.__setattr__(self, "constraints", stack)

    @property
    def dim(self) -> int:
        return self.constraints.shape[-1]


@dataclass(frozen=True)
class SdpResult:
    """lower_bound <= min Tr H <= value = Tr optimizer, the optimizer dominating every G_i.

    OPTIMAL means exactly 0 <= gap = value - lower_bound <= the solve's gap_tol.
    ``dual`` is (the ``_support_blocks`` index, the (blocks, N, b, b) dual of ``lower_bound``).
    """

    value: float
    optimizer: np.ndarray
    lower_bound: float
    gap: float
    iterations: int
    status: SolverStatus
    dual: tuple


@dataclass(frozen=True)
class FeasibilityResult:
    lambda_star: float
    witness: np.ndarray
    status: Feasibility
    gap: float = float("nan")
    iterations: int = 0


# ---------------------------------------------------------------------------
# domination solver
# ---------------------------------------------------------------------------

def _inv_chol(s):
    """K = L^-1 with L L^+ = s, for a positive definite matrix (or stack), else None."""
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    if np.any(np.diagonal(chol, axis1=-2, axis2=-1).real <= 0.0):
        return None
    return np.linalg.inv(chol)


def _center(z, s, k, cost, mu, newton, steps):
    """Damped Newton on cost(z) - mu * log det S(z) at fixed mu, S affine in z.

    ``k`` is ``_inv_chol(s)``.  ``newton(u, mu)`` maps the inverse slack u =
    S^-1 = K^+ K to ``(dz, dS, dcost, dec2)``: the step, its image in S,
    its change of the linear cost and the squared Newton decrement.
    Centered once dec2 <= max(mu, 1e-13 (1 + |cost|)).  Each step halves t
    from 1 by the Armijo rule, read off the eigenvalues lambda_i of K dS
    K^+: S + t dS is positive definite iff 1 + t min lambda > 0, and log
    det(S + t dS) - log det S = sum_i log(1 + t lambda_i), so t passes iff
    t dcost - mu sum_i log(1 + t lambda_i) <= -_ARMIJO t dec2.  The passing
    S + t dS takes the step's one Cholesky factor, the next step's K; one
    that fails from round-off halves t on.  Returns ``(z, S, K, cost, y,
    steps, ok)`` with y = mu (u - u dS u), the dual point of the last Newton
    step at the returned S: the Newton equations are the dual's equality
    constraints, and y is PSD once dec2 <= mu, as ||u^1/2 dS u^1/2||_2^2 <=
    dec2 / mu.  ``ok`` is False when a line search found no step.
    ``steps`` counts on from the given value and stops at ``_MAX_NEWTON_STEPS``.
    """
    ok = True
    while True:
        u = _adjoint(k) @ k
        u = (u + _adjoint(u)) / 2.0
        dz, ds, dcost, dec2 = newton(u, mu)
        if steps >= _MAX_NEWTON_STEPS or dec2 <= max(mu, 1e-13 * (1.0 + abs(cost))):
            break
        steps += 1
        lam = np.linalg.eigvalsh(k @ ds @ _adjoint(k)).reshape(-1)
        t = 1.0
        while t > 1e-13:
            if (1.0 + t * lam.min() > 0.0
                    and t * dcost - mu * float(np.log1p(t * lam).sum())
                    <= -_ARMIJO * t * dec2):
                k_try = _inv_chol(s + t * ds)
                if k_try is not None:
                    break
            t *= 0.5
        else:
            ok = False
            break
        z, s, k, cost = z + t * dz, s + t * ds, k_try, cost + t * dcost
    y = mu * (u - u @ ds @ u)
    return z, s, k, cost, (y + _adjoint(y)) / 2.0, steps, ok


def _barrier(z, s, cost, mu, mu_min, newton, read, closed):
    """Center from S(z) = s down mu's schedule; the last ``(lo, hi, payload, z, steps, ok)``.

    After each ``_center`` stage ``read(z, cost, y)`` maps the iterate and
    its Newton-step dual y to a certified bracket ``(lo, hi, payload)``.
    The stages stop once ``closed(lo, hi)``, after a line search found no
    step (``ok`` False), after the stage at the floor max(``mu_min``,
    ``_MU_MIN``) or at ``_MAX_NEWTON_STEPS``; else mu falls by
    ``_MU_FACTOR``, never below the floor (a stage's gap, of order mu
    times its dimension, is round-off below ``_MU_MIN`` for the order-one
    values both programs are scaled to).  The start S is positive definite:
    I / D for the oracle, at least I for the scaled domination.
    """
    k, steps, mu_min = _inv_chol(s), 0, max(mu_min, _MU_MIN)
    while True:
        z, s, k, cost, y, steps, ok = _center(z, s, k, cost, mu, newton, steps)
        lo, hi, payload = read(z, cost, y)
        if closed(lo, hi) or not ok or mu <= mu_min or steps >= _MAX_NEWTON_STEPS:
            return lo, hi, payload, z, steps, ok
        mu = max(mu * _MU_FACTOR, mu_min)


def _newton_cg(u_stack, mu, rhs_mat):
    """Solve mu * sum_i U_i X U_i = rhs over block-diagonal Hermitian X by PCG.

    ``u_stack`` has shape (blocks, N, b, b) and ``rhs_mat`` (blocks, b, b);
    inner products and norms sum over the blocks.  PCG stops at a residual
    of 1e-12 max(1, ||rhs||), or after 4 (blocks b)^2 iterations.
    """
    n_cons = u_stack.shape[1]
    mean_u = u_stack.sum(axis=1) / n_cons
    mean_inv = np.linalg.inv(mean_u)
    mean_inv = (mean_inv + _adjoint(mean_inv)) / 2.0
    scale = mu * n_cons

    def hv(x):
        return mu * (u_stack @ x[:, None] @ u_stack).sum(axis=1)

    def pre(r):
        return (mean_inv @ r @ mean_inv) / scale

    x = np.zeros_like(rhs_mat)
    r = rhs_mat.copy()
    z = pre(r)
    p = z
    rz = np.vdot(r, z).real
    b_norm = np.linalg.norm(rhs_mat)
    for _ in range(4 * (len(u_stack) * u_stack.shape[-1]) ** 2):
        if np.linalg.norm(r) <= 1e-12 * max(1.0, b_norm):
            break
        hp = hv(p)
        alpha = rz / max(np.vdot(p, hp).real, 1e-300)
        x = x + alpha * p
        r = r - alpha * hp
        z = pre(r)
        rz_new = np.vdot(r, z).real
        p = z + (rz_new / max(rz, 1e-300)) * p
        rz = rz_new
    return (x + _adjoint(x)) / 2.0


def _adjoint(m):
    return m.conj().swapaxes(-1, -2)


def _support_blocks(g_stack):
    """Index sets of the blocks the domination SDP splits into, shape (blocks, b).

    The blocks are the connected components of the support of sum_i |G_i|,
    with entries below ``_BLOCK_ZERO`` times its largest counted as zero,
    each listed in ascending order and ordered by its smallest index.
    Components of unequal size give one block of all indices.
    """
    mag = np.abs(g_stack).sum(axis=0)
    dim = mag.shape[0]
    adjacent = mag > _BLOCK_ZERO * mag.max()
    # every index takes the smallest label among its neighbours until stable:
    # then each component carries its smallest index
    labels = np.arange(dim)
    while True:
        nxt = np.minimum(labels, np.where(adjacent, labels, dim).min(axis=1))
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    _, component, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if sizes.min() != sizes.max():
        return np.arange(dim)[None, :]
    return np.argsort(component, kind="stable").reshape(len(sizes), -1)


def solve_domination(
    problem: DominationProblem,
    *,
    gap_tol: float = DOMINATION_GAP_TOL,
) -> SdpResult:
    """Minimize Tr H over H dominating every constraint in the PSD order.

    The index set splits into the blocks of ``_support_blocks``: equal-size
    connected components of the support of sum_i |G_i|, else one block.
    They are solved divided by 2^round(log2 max_i |lambda(G_i)|), which is
    exact and 1 for a G-matrix, and the results multiplied back (``gap_tol``
    stays absolute).  The closed form (``_closed_form``, exact for a pair
    and when each block's G_i commute) and each barrier stage are read one
    way: each block is shifted by its measured max_i lambda_max(G_i - H)
    plus a round-off margin, and ``optimizer``, the assembled iterate plus
    max_i ||E_i||_F I (E_i the part of G_i off the blocks), dominates every
    full G_i; ``lower_bound`` is ``_dual_bound`` at ``dual``.  The closed
    form is returned after no Newton step when its certified gap is at most
    ``gap_tol`` > 0; else one barrier runs over the blocks until a stage's
    is.  OPTIMAL means exactly that, 0 <= gap <= gap_tol; a barrier that
    reaches mu = max(gap_tol / (4 N dim), ``_MU_MIN``) on the scaled blocks
    or its Newton cap first ends MAX_ITERATIONS, one whose line search
    found no step NUMERICAL_FAILURE.
    """
    if not gap_tol > 0.0:
        raise ValueError(f"gap_tol must be positive, got {gap_tol!r}")
    g_stack, dim = problem.constraints, problem.dim
    index = _support_blocks(g_stack)
    rows, cols = index[:, :, None], index[:, None, :]
    g_blocks = g_stack[:, rows, cols].swapaxes(0, 1)  # (blocks, N, b, b)
    # E_i, G_i off the blocks (a mask on flat's (Re, Im) pairs), has ||E_i||_F >= ||E_i||_2
    off = np.ones((dim, dim), dtype=bool)
    off[rows, cols] = False
    flat = g_stack.view(np.float64)
    dropped = float(np.sqrt(np.einsum("kab,kab,ab->k", flat, flat, off.repeat(2, axis=1)).max()))
    eye = np.eye(index.shape[1])
    g_eigs = np.linalg.eigvalsh(g_blocks)
    top = float(np.abs(g_eigs).max())
    scale = 2.0 ** round(math.log2(top or 1.0))  # exact, and 1 for a G-matrix
    g_blocks /= scale
    g_eigs /= scale
    dropped, gap_tol = dropped / scale, gap_tol / scale
    floor = g_eigs[..., 0].max(axis=1)
    # the measured excess and any later eigvalsh of the assembled optimizer
    # minus G_i each err by ~ dim eps ||G_i - H||, with ||H|| <= max_i ||G_i||
    margin = 4.0 * len(index) * len(eye) * np.finfo(float).eps * top / scale

    def read(h, _cost, y_stack):
        excess = np.linalg.eigvalsh(g_blocks - h[:, None])[..., -1].max(axis=1)
        h = h + (excess + margin)[:, None, None] * eye
        optimizer = dropped * np.eye(dim, dtype=np.complex128)
        optimizer[rows, cols] += (h + _adjoint(h)) / 2.0
        lower = _dual_bound(y_stack, g_blocks, floor)
        return lower, float(np.trace(optimizer).real), (optimizer, y_stack)

    def closed(lo, hi):
        return hi - lo <= gap_tol

    def trace(m):
        return float(np.einsum("kii->", m).real)

    def newton(u_stack, mu):
        grad = eye - mu * u_stack.sum(axis=1)
        step = _newton_cg(u_stack, mu, -grad)
        return step, step[:, None], trace(step), float(np.vdot(step, -grad).real)

    h, y_stack = _closed_form(g_blocks)
    lo, hi, (optimizer, y_stack) = read(h, None, y_stack)
    steps, ok = 0, True
    if not closed(lo, hi):
        h = np.repeat((float(g_eigs[..., -1].max()) + 1.0) * eye[None], len(index), axis=0)
        lo, hi, (optimizer, y_stack), _, steps, ok = _barrier(
            h, h[:, None] - (g_blocks - _BARRIER_SHIFT * eye), trace(h), 1.0,
            gap_tol / (4.0 * len(g_stack) * dim), newton, read, closed,
        )
    status = (SolverStatus.OPTIMAL if closed(lo, hi)
              else SolverStatus.MAX_ITERATIONS if ok else SolverStatus.NUMERICAL_FAILURE)
    lo, hi = lo * scale, hi * scale
    return SdpResult(hi, optimizer * scale, lo, hi - lo, steps, status, (index, y_stack))


def _closed_form(g_blocks):
    """Block iterate H and dual Y of min Tr H s.t. H >= G_i, exact for pairs or commuting G_i.

    Per block, a pair takes H = G_2 + (G_1 - G_2)_+ with Y_1 the projector
    onto the positive part of G_1 - G_2 and Y_2 = I - Y_1, which is the
    optimum with no commutation (Zhu, Sci. Rep. 5, 14317 (2015)).  Else V
    diagonalizes the fixed combination sum_i e^(i/2) G_i (the weights are
    powers of a transcendental number, so no rational relation among them
    merges eigenvalues the G_i tell apart), lambda_ik is the diagonal of
    V^+ G_i V, H = V diag(max_i lambda_ik) V^+ and Y_i = V 1[argmax_j
    lambda_jk = i] V^+, the optimum sum_k max_i lambda_ik when the G_i
    commute.
    """
    n_cons = g_blocks.shape[1]
    if n_cons == 2:
        delta, v = np.linalg.eigh(g_blocks[:, 0] - g_blocks[:, 1])
        h = g_blocks[:, 1] + (v * np.maximum(delta, 0.0)[:, None]) @ _adjoint(v)
        picked = np.stack([delta > 0.0, delta <= 0.0], axis=1)
    else:
        weights = np.exp(np.arange(n_cons) / 2.0)
        _, v = np.linalg.eigh(np.einsum("i,kiab->kab", weights, g_blocks))
        lam = np.diagonal(_adjoint(v)[:, None] @ g_blocks @ v[:, None],
                          axis1=-2, axis2=-1).real
        h = (v * lam.max(axis=1)[:, None]) @ _adjoint(v)
        picked = lam.argmax(axis=1)[:, None] == np.arange(n_cons)[:, None]
    return h, (v[:, None] * picked[..., None, :]) @ _adjoint(v)[:, None]


def _shifted_dual(y):
    """Each Y_i shifted by its round-off negative eigenvalue; per block lambda_max(sum Y_i)."""
    y = y + np.maximum(0.0, -np.linalg.eigvalsh(y)[..., :1, None]) * np.eye(y.shape[-1])
    return y, np.linalg.eigvalsh(y.sum(axis=1))[:, -1]


def _dual_bound(y, g_blocks, floor):
    """Lower bound on min Tr H from the block dual point ``y``, safe from round-off.

    Per block k, H_kk >= G_i,kk >= c_k I with ``floor[k]`` = c_k =
    max_i lambda_min(G_i,kk), so for PSD Y_i with sum_i Y_i <= lambda_k I,
    Tr H_kk >= c_k b + sum_i <Y_i, G_i,kk - c_k I> / lambda_k.  Each Y_i is
    first shifted by its round-off negative eigenvalue, and the float error
    of the inner products, at most gamma_n sum |Y_i||G_i - c_k I| with
    gamma_n = n eps / (1 - n eps), is subtracted; n counts the real
    products of all blocks, more than any one block's sum takes.
    """
    y, lam = _shifted_dual(y)
    b = y.shape[-1]
    g = g_blocks - floor[:, None, None, None] * np.eye(b)
    n_eps = 2 * g.size * np.finfo(float).eps
    err = n_eps / (1.0 - n_eps) * np.einsum("kiab,kiba->k", np.abs(y), np.abs(g))
    inner = np.einsum("kiab,kiba->k", y, g).real
    return float(((inner - err) / lam).sum() + b * floor.sum())


# ---------------------------------------------------------------------------
# dual-form oracle engine
# ---------------------------------------------------------------------------

def _classify(lam: float, ub: float) -> Feasibility:
    """Band rule on the certified bracket lam <= lambda* <= ub."""
    if lam >= FEASIBLE_BAND:
        return Feasibility.FEASIBLE
    if ub <= -FEASIBLE_BAND:
        return Feasibility.INFEASIBLE
    return Feasibility.MARGINAL


def _max_affine_min_eig(coeffs, strings, mu=1.0):
    """Classified lambda* of the joint operators with coefficients ``coeffs``, and final z.

    lambda* is the largest lambda with W >= lambda I for a W with the fixed
    coefficients of j0 = sum coeffs * strings (strings[0] = I / sqrt(D)).
    ``_barrier`` runs its dual from z = 0 and mu = ``mu``: min c.z, c_k =
    coeffs[k], over Y = I / D + sum_k z_k F_k >= 0, F_k = strings[k], k >=
    1.  Each stage reads j_0 / sqrt(D) + c.z as the upper end and
    lambda_min(W) as the lower, W being j0 plus the free part of the
    Newton-step dual y (<y, F_k> = c_k); it is closed at the fine gap, or
    the coarse one with the band rule decided.  The final z's Y is PSD: the
    line search's Cholesky of it passed.  A Newton step is plain matmuls:
    for Hermitian F, Re tr(M F) is the real dot product of the (Re, Im)
    views of M and F, so with U = Y^-1 and T_k = U F_k U the Hessian Re
    tr(T_k F_l) is one real product of half the complex flops.  Near a
    degenerate optimum its condition number passes 1 / eps, and a plain
    solve returns round-off as the step, which ruins y; a ridge of 1e-13 of
    its largest diagonal entry damps the directions lost.
    """
    m, dim = strings.shape[0] - 1, strings.shape[-1]
    c = coeffs[1:]
    rows = strings[1:].reshape(m * dim, dim)
    flat = np.asarray(strings[1:], np.complex128).reshape(m, dim * dim).view(np.float64)

    def newton(u, mu):
        t_stack = u @ (rows @ u).reshape(m, dim, dim)
        grad = mu * (flat @ u.reshape(-1).view(np.float64)) - c  # minus the gradient
        hess = mu * (t_stack.reshape(m, dim * dim).view(np.float64) @ flat.T)
        hess[np.diag_indices(m)] += 1e-13 * hess.diagonal().max()
        dz = np.linalg.solve(hess, grad)
        ds = (dz @ flat).view(np.complex128).reshape(dim, dim)
        return dz, ds, float(c @ dz), float(grad @ dz)

    def read(_z, cost, y):
        delta = coeffs - (strings.reshape(m + 1, -1) @ y.reshape(-1).conj()).real
        witness = y + np.tensordot(delta, strings, axes=1)
        lam = float(np.linalg.eigvalsh(witness)[0])
        return lam, coeffs[0] / np.sqrt(dim) + cost, witness

    def closed(lo, hi):
        gap = hi - lo
        return gap <= FEASIBILITY_GAP_FINE or (
            gap <= FEASIBILITY_GAP_COARSE and _classify(lo, hi) is not Feasibility.MARGINAL)

    lam, ub, witness, z, steps, _ = _barrier(
        np.zeros(m), np.eye(dim, dtype=np.complex128) / dim, 0.0, mu, _MU_MIN,
        newton, read, closed)
    return FeasibilityResult(lam, witness, _classify(lam, ub), ub - lam, steps), z


# ---------------------------------------------------------------------------
# joint operators with prescribed marginals
# ---------------------------------------------------------------------------

def _diagonal_basis(k: int) -> np.ndarray:
    """Diagonal orthonormal basis diag(Helmert row j); member 0 is I/sqrt(k)."""
    h = np.tril(np.ones((k, k)), -1) - np.diag(np.arange(k))
    h[0] = 1.0
    return (h / np.linalg.norm(h, axis=1, keepdims=True))[:, None, :] * np.eye(k)


def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of d x d matrices; member 0 is I/sqrt(d).

    The diagonal members come first, then the symmetric and antisymmetric
    off-diagonal unit pairs scaled by 1/sqrt(2).
    """
    iu, ju = np.triu_indices(d, 1)
    upper = np.zeros((len(iu), d, d))
    upper[np.arange(len(iu)), iu, ju] = np.sqrt(0.5)
    lower = upper.transpose(0, 2, 1)
    return np.concatenate([_diagonal_basis(d), upper + lower, 1j * (lower - upper)])


def _marginal_family(factor_bases, targets):
    """The strings the marginals fix and the joint operator's coefficients on them.

    ``factor_bases[i]`` is an orthonormal Hermitian basis of factor i, whose
    dimension is its ``shape[-1]``, with member 0 the normalized identity;
    factor 0 is shared by every marginal.
    ``targets[i - 1]`` is the marginal on factors 0 and i (i >= 1), of
    shape (..., n, n); the one on factor 0 alone is the identity.  The
    marginals fix exactly the Kronecker strings with at most one
    non-identity factor past 0.  One whose such factor is i has the
    coefficient <b_0 (x) b_i, target_i> / sqrt(the product of the other
    dimensions past 0); with none, only the identity string's is nonzero.
    A target whose marginal on factor 0 is not the identity raises
    ``RuntimeError``.  Returns ``(coeffs, strings)`` of shapes (..., m) and
    (m, D, D), strings[0] = I / sqrt(D).  A stack of m D^2 >
    ``ORACLE_BUDGET`` entries raises ``OracleBudgetError`` before any array
    is built.
    """
    dims = [b.shape[-1] for b in factor_bases]
    total = math.prod(dims)
    sizes = [len(b) for b in factor_bases]
    m = sizes[0] * (1 + sum(k - 1 for k in sizes[1:]))
    if m * total * total > ORACLE_BUDGET:
        raise OracleBudgetError(
            f"oracle over factors of dimensions {tuple(dims)} has m = {m} fixed "
            f"strings of dimension D = {total}: m * D^2 = {m * total * total} is "
            f"over the oracle budget {ORACLE_BUDGET}"
        )
    labels = np.indices(sizes).reshape(len(dims), -1)
    labels = labels[:, (labels[1:] > 0).sum(axis=0) <= 1]
    still = (labels[1:] == 0).all(axis=0)
    coeffs = np.zeros(targets[0].shape[:-2] + (len(still),))
    coeffs[..., 0] = dims[0] / np.sqrt(total)
    for i, t in enumerate(targets, 1):
        t = t.reshape(t.shape[:-2] + (dims[0], dims[i]) * 2)
        table = np.einsum("apr,bqs,...pqrs->...ab",
                          factor_bases[0].conj(), factor_bases[i].conj(), t).real
        own = table[..., labels[0], labels[i]] * np.sqrt(dims[0] * dims[i] / total)
        # strings no factor past 0 moves see the marginal on factor 0, I
        residual = float(np.abs(own[..., still] - coeffs[..., still]).max())
        if residual > 1e-8 * (1.0 + float(np.abs(own).max())):
            raise RuntimeError(
                f"marginal constraints are inconsistent: residual {residual:.3e}"
            )
        coeffs[..., labels[i] > 0] = own[..., labels[i] > 0]

    strings = factor_bases[0][labels[0]]
    # the Kronecker strings of the fixed labels only
    for b, label in zip(factor_bases[1:], labels[1:]):
        m, n = len(label), strings.shape[1] * b.shape[1]
        strings = np.einsum("mij,mkl->mikjl", strings, b[label]).reshape(m, n, n)
    return coeffs, strings


# ---------------------------------------------------------------------------
# joint channel oracle
# ---------------------------------------------------------------------------

def _joint_channel_family(d: int, targets):
    """``_marginal_family`` of a d -> d^N joint Choi matrix: factor 0 is the input."""
    n = len(targets) + 1
    return _marginal_family([_hermitian_basis(d)] * n, targets)


def solve_joint_channel(channels) -> FeasibilityResult:
    """Decide whether the given channels are marginals of one joint channel.

    Maximizes the smallest eigenvalue over all Hermitian J of dimension
    d^(N+1) with Tr over all outputs equal to I_d and the i-th output
    marginal equal to the i-th Choi matrix.  A nonnegative optimum means a
    joint channel exists.  FEASIBLE needs the attained ``lambda_star`` at
    least ``FEASIBLE_BAND``, INFEASIBLE the dual bound ``lambda_star + gap``
    at most ``-FEASIBLE_BAND``; anything between is MARGINAL.  Instances
    whose m = N d^4 - (N - 1) d^2 fixed strings of dimension D = d^(N+1)
    need m D^2 > ``ORACLE_BUDGET`` (d=2 with N >= 7, d=3 with N >= 4, d=4
    with N >= 3, d >= 5) are refused with an ``OracleBudgetError``.
    """
    channels = list(channels)
    d = shared_dimension(channels)
    return _max_affine_min_eig(*_joint_channel_family(d, [c.choi for c in channels]))[0]


def _joint_channel_radius(channels, u, r_max: float):
    """Bracket (lo, hi) on min(r*, r_max), r* the largest compatible r along u; plane b.

    The marginals s_i Phi_i + (1 - s_i) Delta with s = r u are affine in r,
    and so are the fixed coefficients: J(r) = J(0) + r E with J(0) = I /
    d^N.  So J(r_max) - lambda J(0) = (1 - lambda) J(r_max / (1 - lambda)),
    and min(r*, r_max) = r_max / (1 - min(lambda*, 0)) with lambda* of the
    ray's end against J(0): that of d^N J(r_max) against I, one
    ``_max_affine_min_eig`` from mu = 0.1.  A joint channel exists at lo,
    and none at any r in (hi, r_max].  Its final Y = I / D + sum_k z_k F_k
    is PSD with Tr Y = 1, so lambda* of J(x) against J(0) is at most <d^N
    Y, J(x)> = 1 + x.b at every noise vector x, b_i = d^N z.(the
    non-identity fixed coefficients at the unit point e_i, which are linear
    in x): no joint channel exists where 1 + x.b < 0.
    """
    d, n = shared_dimension(channels), len(channels)
    delta = np.eye(d * d) / d
    points = np.vstack([r_max * np.asarray(u, dtype=float), np.eye(n)])
    coeffs, strings = _joint_channel_family(d, [
        delta + np.multiply.outer(points[:, i], c.choi - delta)
        for i, c in enumerate(channels)
    ])
    result, z = _max_affine_min_eig(coeffs[0] * d ** n, strings, 0.1)
    lam = result.lambda_star
    bracket = tuple(float(r_max / (1.0 - min(x, 0.0))) for x in (lam, lam + result.gap))
    return bracket, d ** n * (coeffs[1:, 1:] @ z)


def joint_witness_channel(result: FeasibilityResult, d: int, n: int) -> Channel:
    """Package a feasible oracle witness as a d -> d^n channel."""
    if result.status is not Feasibility.FEASIBLE:
        raise ValueError(
            f"witness with status {result.status.value} is not a certified channel"
        )
    return Channel(d, d ** n, result.witness, label="joint-witness")


# ---------------------------------------------------------------------------
# joint measurement oracle
# ---------------------------------------------------------------------------

def solve_povm_joint(povms) -> FeasibilityResult:
    """Decide joint measurability of the given POVMs.

    The joint operator lives on the system (x) one classical register per
    POVM, the system first as the factor every marginal shares.  Diagonal
    register bases keep it block-diagonal in the joint outcomes, one d x d
    block each; marginal matching is affine and positivity of every block
    is the PSD constraint, so the same lambda_min engine applies.  POVMs of
    k_i outcomes fix m = d^2 (1 + sum_i (k_i - 1)) strings of dimension D =
    d prod_i k_i; m D^2 > ``ORACLE_BUDGET`` is refused, the budget error
    listing the dimensions (d, k_1, ..., k_N).
    """
    povms = list(povms)
    d = shared_dimension(povms, "POVM")
    counts = [len(p) for p in povms]
    return _max_affine_min_eig(*_marginal_family(
        [_hermitian_basis(d)] + [_diagonal_basis(k) for k in counts],
        [sum(np.kron(e, np.diag(row)) for row, e in zip(np.eye(k), p.effects))
         for k, p in zip(counts, povms)],
    ))[0]
