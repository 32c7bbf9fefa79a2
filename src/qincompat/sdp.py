"""Two small dense semidefinite solvers.

(a) ``solve_domination``: minimize Tr H subject to H >= G_i for a list of
    Hermitian constraints.  A log-det barrier is driven down a geometric
    schedule with damped Newton centering steps:

        minimize  Tr H - mu * sum_i log det(H - G_i + eps I).

    The index set is split into the connected components of the support of
    sum_i |G_i| (entries below 1e-13 of its largest count as zero).  Pinching
    a feasible H onto those blocks keeps it feasible and keeps Tr H, so when
    every component has the same size b the one barrier runs over stacks of
    shape (blocks, N, b, b); any other support is a single block of all
    indices.  The dropped off-block parts E_i are added back as
    dim * max_i ||E_i||_2, the trace of the shift that makes the assembled H
    dominate every full G_i.

    The last iterate H implies a dual point: with U_i = (H - G_i + eps I)^-1
    and S = sum_i U_i, the Y_i = S^-1/2 U_i S^-1/2 are PSD and sum to I, so
    by weak duality sum_i Tr(Y_i G_i) is a lower bound on the optimum.  The
    Y_i are block-diagonal, so the bound is taken per block, and it is made
    safe from round-off: each Y_i is shifted by its round-off negative
    eigenvalue, the block's sum is divided by lambda_max(sum_i Y_i), and the
    float error bound gamma_n sum_i |Y_i||G_i| is subtracted.  The reported
    gap is the measured distance from Tr H down to that bound.

(b) ``solve_joint_channel`` / ``solve_povm_joint``: decide whether a joint
    channel (or joint measurement) with prescribed marginals exists.  Over
    Kronecker strings of per-factor Hermitian bases with member 0 the
    normalized identity, the marginals fix exactly the strings with at most
    one non-identity constrained factor.  The others span the free
    directions, an inclusion-exclusion sum of the embedded targets is the
    minimum-norm particular solution j0, and one barrier engine maximizes

        t  subject to  j0 + sum_k x_k B_k + t A >= 0.

    A = -I makes t lambda_min, the oracle's verdict.  Along a ray of
    noise-scaled channels the particular solution is I/d^N + r E, with E
    traceless and orthogonal to the free directions, so A = E gives the
    compatibility radius (``_joint_channel_radius``).  The attained t bounds
    the optimum from below; the inverse slack of the last iterate, scaled to
    <Y, A> = -1, projected off the free directions, shifted by c I until it
    is PSD and divided by 1 - c Tr A, is a dual point whose value <Y, j0>
    bounds it from above.

Both barriers are centered by one routine, ``_center``: damped Newton at a
fixed mu and a Cholesky-guarded Armijo line search along the slack
direction dS, until the squared Newton decrement is at most mu times the
caller's threshold: 2^-12 where a certificate is read (every oracle stage,
the criterion's last), 1 on the criterion's earlier stages, whose mu falls
1000-fold per stage.  Each solver supplies its Newton system, its mu
schedule and its certificate.  The domination Newton step is
preconditioned CG on block-diagonal Hermitian matrices.  The oracle step
builds its Newton system from matmuls over the basis flattened once (the
Hessian as one real product of the (Re, Im) views).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import Channel, shared_dimension
from .linalg import check_hermitian, partial_trace

DOMINATION_GAP_TOL = 1e-6
FEASIBILITY_GAP_COARSE = 1e-5
FEASIBILITY_GAP_FINE = 5e-8
FEASIBLE_BAND = 1e-7
# N * (d^(N+1))^2; 2000 admits d=2 with N <= 3 and d=3 pairs, nothing larger
ORACLE_BUDGET = 2000
_ORACLE_MAX_NEWTON_STEPS = 4000
_DOMINATION_MAX_NEWTON_STEPS = 800

_BARRIER_SHIFT = 1e-12
# entries of sum_i |G_i| below this fraction of its largest split no blocks
_BLOCK_ZERO = 1e-13
_MU_FACTOR = 0.2
# the criterion reads its certificate from the last stage only: long steps
_DOMINATION_MU_FACTOR = 1e-3
_ARMIJO = 0.01
# a certificate is read from iterates centered to dec2 <= mu * 2^-12; at
# mu / 16 the oracle's dual bound from a stage's last iterate stays too far
# above lambda* to decide some verdicts near the boundary
_CENTERED = 2.0 ** -12


class OracleBudgetError(ValueError):
    """An oracle instance is larger than ``ORACLE_BUDGET`` allows."""


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
    """Constraints of the program min Tr H s.t. H >= constraints[i]."""

    dim: int
    constraints: tuple

    def __post_init__(self):
        if not self.constraints:
            raise ValueError("at least one constraint is required")
        mats = tuple(check_hermitian(c) for c in self.constraints)
        for k, c in enumerate(mats):
            if c.shape != (self.dim, self.dim):
                raise ValueError(
                    f"constraint {k} has shape {c.shape}, expected ({self.dim}, {self.dim})"
                )
        object.__setattr__(self, "constraints", mats)


@dataclass(frozen=True)
class SdpResult:
    value: float
    optimizer: np.ndarray
    lower_bound: float
    gap: float
    iterations: int
    status: SolverStatus


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

def _chol_logdet(s):
    """Total log-det of a positive definite matrix (or stack) by Cholesky, else None."""
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    diags = np.diagonal(chol, axis1=-2, axis2=-1).real
    if np.any(diags <= 0.0):
        return None
    return 2.0 * float(np.log(diags).sum())


def _center(z, s, logdet, cost, mu, newton, steps, max_steps, centered):
    """Damped Newton on cost(z) - mu * log det S(z) at fixed mu, S affine in z.

    ``newton(u)`` maps the inverse slack u = S^-1 to ``(dz, dS, dcost,
    dec2)``: the step, its image in S, its change of the linear cost and
    the squared Newton decrement.  Centered once dec2 <= max(mu * centered,
    1e-13 (1 + |cost|)).  Each step halves t until S + t dS has a Cholesky
    factor and passes the Armijo test.  Returns ``(z, S, logdet, cost, u,
    steps, ok)``, u the inverse of the returned S; ``ok`` is False when a
    line search found no step.  ``steps`` counts on from the given value and
    stops at ``max_steps``.
    """
    while True:
        u = np.linalg.inv(s)
        u = (u + _adjoint(u)) / 2.0
        if steps >= max_steps:
            return z, s, logdet, cost, u, steps, True
        dz, ds, dcost, dec2 = newton(u)
        if dec2 <= max(mu * centered, 1e-13 * (1.0 + abs(cost))):
            return z, s, logdet, cost, u, steps, True
        steps += 1
        phi0 = cost - mu * logdet
        t = 1.0
        while t > 1e-13:
            s_try = s + t * ds
            logdet_try = _chol_logdet(s_try)
            if logdet_try is not None and (
                cost + t * dcost - mu * logdet_try <= phi0 - _ARMIJO * t * dec2
            ):
                break
            t *= 0.5
        else:
            return z, s, logdet, cost, u, steps, False
        z, s, logdet, cost = z + t * dz, s_try, logdet_try, cost + t * dcost


def _newton_cg(u_stack, mu, rhs_mat, tol, max_iter):
    """Solve mu * sum_i U_i X U_i = rhs over block-diagonal Hermitian X by PCG.

    ``u_stack`` has shape (blocks, N, b, b) and ``rhs_mat`` (blocks, b, b);
    inner products and norms sum over the blocks.
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
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol * max(1.0, b_norm):
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

    One barrier runs over the blocks of ``_support_blocks``: equal-size
    connected components of the support of sum_i |G_i|, else one block.
    ``optimizer`` is the assembled dim x dim iterate plus max_i ||E_i||_2 I,
    where E_i is the part of G_i off the blocks (entries below the split
    threshold), so it dominates every full G_i and ``value`` is its trace.
    ``lower_bound`` is ``_dual_bound`` at the last iterate (-inf if none).
    A single constraint is its own optimizer: ``value`` is Tr G after no
    Newton step, and ``lower_bound`` is ``_dual_bound`` at Y = I.
    """
    g_stack = np.stack(problem.constraints)
    n_cons, dim = g_stack.shape[0], problem.dim
    if n_cons == 1:
        value = float(np.trace(g_stack[0]).real)
        lower_bound = _dual_bound(
            np.eye(dim)[None, None], g_stack[None], np.linalg.eigvalsh(g_stack[0])[:1]
        )
        return SdpResult(
            value=value,
            optimizer=g_stack[0],
            lower_bound=lower_bound,
            gap=value - lower_bound,
            iterations=0,
            status=SolverStatus.OPTIMAL,
        )
    nu = n_cons * dim
    index = _support_blocks(g_stack)
    rows, cols = index[:, :, None], index[:, None, :]
    g_blocks = g_stack[:, rows, cols].swapaxes(0, 1)  # (blocks, N, b, b)
    off_blocks = g_stack.copy()
    off_blocks[:, rows, cols] = 0.0
    dropped = 0.0
    if off_blocks.any():
        dropped = float(np.abs(np.linalg.eigvalsh(off_blocks)).max())
    eye = np.eye(index.shape[1])
    shifted = g_blocks - _BARRIER_SHIFT * eye

    g_eigs = np.linalg.eigvalsh(g_blocks)
    lam_top = float(g_eigs[..., -1].max())
    h = np.repeat((lam_top + 1.0) * eye[None], len(index), axis=0)

    mu = 1.0
    mu_final = gap_tol / (4.0 * nu)

    def trace(m):
        return float(np.einsum("kii->", m).real)

    def newton(u_stack):
        grad = eye - mu * u_stack.sum(axis=1)
        step = _newton_cg(u_stack, mu, -grad, 1e-12, 4 * dim * dim)
        return step, step[:, None], trace(step), float(np.vdot(step, -grad).real)

    steps = 0
    s_stack = h[:, None] - shifted
    logdet, cost, u_stack = _chol_logdet(s_stack), trace(h), None
    status = SolverStatus.NUMERICAL_FAILURE if logdet is None else SolverStatus.OPTIMAL
    while status is SolverStatus.OPTIMAL:
        h, s_stack, logdet, cost, u_stack, steps, ok = _center(
            h, s_stack, logdet, cost, mu, newton, steps, _DOMINATION_MAX_NEWTON_STEPS,
            _CENTERED if mu <= mu_final else 1.0,
        )
        if not ok:
            status = SolverStatus.NUMERICAL_FAILURE
        elif steps >= _DOMINATION_MAX_NEWTON_STEPS:
            status = SolverStatus.MAX_ITERATIONS
        elif mu <= mu_final:
            break
        mu = max(mu * _DOMINATION_MU_FACTOR, mu_final)

    h = (h + _adjoint(h)) / 2.0
    optimizer = _assemble(h, rows, cols, dim) + dropped * np.eye(dim)
    value = float(np.trace(optimizer).real)
    lower_bound = -np.inf if u_stack is None else _dual_bound(
        _dual_point(u_stack), g_blocks, g_eigs[..., 0].max(axis=1)
    )
    return SdpResult(
        value=value,
        optimizer=optimizer,
        lower_bound=lower_bound,
        gap=value - lower_bound,
        iterations=steps,
        status=status,
    )


def _assemble(blocks, rows, cols, dim):
    """Scatter (..., blocks, b, b) onto the (..., dim, dim) block-diagonal matrix."""
    full = np.zeros(blocks.shape[:-3] + (dim, dim), dtype=np.complex128)
    full[..., rows, cols] = blocks
    return full


def _dual_point(u_stack):
    """Y_i = S^-1/2 U_i S^-1/2, S = sum_i U_i, per block; shape (blocks, N, b, b)."""
    w, v = np.linalg.eigh(u_stack.sum(axis=1))
    s_inv_half = (v / np.sqrt(w)[:, None, :]) @ _adjoint(v)
    return s_inv_half[:, None] @ u_stack @ s_inv_half[:, None]


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
    b = y.shape[-1]
    y = y + np.maximum(0.0, -np.linalg.eigvalsh(y)[..., :1, None]) * np.eye(b)
    lam = np.linalg.eigvalsh(y.sum(axis=1))[:, -1]
    g = g_blocks - floor[:, None, None, None] * np.eye(b)
    n_eps = 2 * g.size * np.finfo(float).eps
    err = n_eps / (1.0 - n_eps) * np.einsum("kiab,kiba->k", np.abs(y), np.abs(g))
    inner = np.einsum("kiab,kiba->k", y, g).real
    return float(((inner - err) / lam).sum() + b * floor.sum())


# ---------------------------------------------------------------------------
# affine lambda_min maximization engine
# ---------------------------------------------------------------------------

def _classify(lam: float, ub: float) -> Feasibility:
    """Band rule on the certified bracket lam <= lambda* <= ub."""
    if lam >= FEASIBLE_BAND:
        return Feasibility.FEASIBLE
    if ub <= -FEASIBLE_BAND:
        return Feasibility.INFEASIBLE
    return Feasibility.MARGINAL


def _max_affine_min_eig(j0: np.ndarray, basis: np.ndarray, direction=None):
    """Maximize t subject to j0 + sum_k x_k basis[k] + t A >= 0 over (x, t).

    A = ``direction`` defaults to -I, making t lambda_min at x; any other A
    must be Hermitian and orthogonal to the basis, with j0 positive definite
    (the barrier starts at t = 0) and a finite optimum.  Returns ``(x,
    t_attained, upper_bound, steps)`` of the last stage; t_attained is
    lambda_min at x for A = -I, else the iterate's t (its slack is PD).
    ``basis`` must be orthonormal in the Frobenius inner product, with
    Hermitian traceless members.  A Newton step is plain matmuls: for
    Hermitian B, Re tr(M B) is the real dot product of the (Re, Im) views of
    M and B, so with U = S^-1 and T_k = U B_k U the Hessian Re tr(T_k B_l)
    is one real product of half the complex flops.  ``_center`` moves S
    along dS = sum_k dx_k B_k + dt A.
    """
    dim = j0.shape[0]
    m = basis.shape[0]
    a = -np.eye(dim) if direction is None else direction

    if m == 0 and direction is None:
        lam = float(np.linalg.eigvalsh(j0)[0])
        return np.zeros(0), lam, lam, 0

    if np.abs(np.einsum("kpp->k", basis)).max(initial=0.0) > 1e-8:
        raise ValueError("free directions must be traceless for the optimum bound")

    basis_rows = basis.reshape(m * dim, dim)
    basis_re = np.asarray(basis, np.complex128).reshape(m, -1).view(np.float64)
    a_re = np.asarray(a, np.complex128).reshape(-1).view(np.float64)

    def along(coeffs):  # sum_k coeffs[k] basis[k]
        return (coeffs @ basis_re).view(np.complex128).reshape(dim, dim)

    def newton(u):
        t_stack = u @ (basis_rows @ u).reshape(m, dim, dim)
        u_re = u.reshape(-1).view(np.float64)
        uau_re = (u @ a @ u).reshape(-1).view(np.float64)
        gx = mu * (basis_re @ u_re)
        gt = 1.0 + mu * float(u_re @ a_re)
        mat = np.empty((m + 1, m + 1))
        mat[:m, :m] = mu * (t_stack.reshape(m, -1).view(np.float64) @ basis_re.T)
        mat[:m, m] = mat[m, :m] = mu * (basis_re @ uau_re)
        mat[m, m] = mu * float(uau_re @ a_re)
        grad = np.concatenate([gx, [gt]])
        try:
            dz = np.linalg.solve(mat, grad)
        except np.linalg.LinAlgError:
            dz = np.linalg.lstsq(mat, grad, rcond=None)[0]
        return dz, along(dz[:m]) + dz[m] * a, -dz[m], float(grad @ dz)

    # z = (x, t); the cost minimized is -t
    z = np.zeros(m + 1)
    if direction is None:
        z[m] = float(np.linalg.eigvalsh(j0)[0]) - 1.0
    mu = 1.0
    steps = 0
    s = j0 + z[m] * a

    while True:
        logdet = _chol_logdet(s)
        if logdet is None:
            raise RuntimeError("barrier iterate left the feasible cone")
        z, _, _, _, u, steps, ok = _center(
            z, s, logdet, -z[m], mu, newton, steps, _ORACLE_MAX_NEWTON_STEPS, _CENTERED
        )
        x, t = z[:m], float(z[m])

        s = j0 + along(x) + t * a
        t_att = t if direction is not None else t + float(np.linalg.eigvalsh(s)[0])
        # certificate: scale the inverse slack to <Y, A> = -1, project out
        # the free directions, shift by c I until PSD and rescale so that
        # <Y, A> = -1 again; then t <= <Y, j0> for every feasible (x, t).
        # With <U, A> = 0 (a radius solve stopped at its start) there is none
        ua = float(u.reshape(-1).view(np.float64) @ a_re)
        ub = np.inf
        if ua != 0.0 and np.isfinite(ua):
            y = u / -ua
            y_proj = y - along(basis_re @ y.reshape(-1).view(np.float64))
            c = max(0.0, -float(np.linalg.eigvalsh(y_proj)[0]))
            ub = (float(np.vdot(y_proj, j0).real) + c * float(np.trace(j0).real)) / (
                1.0 - c * float(np.trace(a).real)
            )

        gap = ub - t_att
        decided = _classify(t_att, ub) is not Feasibility.MARGINAL
        if gap <= FEASIBILITY_GAP_FINE or (gap <= FEASIBILITY_GAP_COARSE and decided):
            break
        if not ok or mu <= 1e-13 or steps >= _ORACLE_MAX_NEWTON_STEPS:
            break
        mu *= _MU_FACTOR

    return x, t_att, ub, steps


def _solve_family(j0, basis) -> FeasibilityResult:
    """Maximize lambda_min over j0 + span(basis) and classify the bracket."""
    x, lam, ub, steps = _max_affine_min_eig(j0, basis)
    witness = j0 + np.tensordot(x, basis, axes=1)
    witness = (witness + witness.conj().T) / 2.0
    return FeasibilityResult(
        lambda_star=lam,
        witness=witness,
        status=_classify(lam, ub),
        gap=ub - lam,
        iterations=steps,
    )


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


def _embed_for_partial_trace(small: np.ndarray, dims, keep) -> np.ndarray:
    """Adjoint of the partial trace: <embed(A), M> == <A, Tr_discarded(M)>."""
    dims = list(dims)
    k = len(dims)
    kept = sorted(keep)
    traced = [i for i in range(k) if i not in kept]
    d_tr = int(np.prod([dims[i] for i in traced])) if traced else 1
    big = np.kron(small, np.eye(d_tr, dtype=np.complex128))
    order = kept + traced
    dims_in_order = [dims[i] for i in order]
    t = big.reshape(dims_in_order + dims_in_order)
    perm = list(np.argsort(order))
    t = t.transpose(perm + [p + k for p in perm])
    total = int(np.prod(dims))
    return np.ascontiguousarray(t.reshape(total, total))


def _marginal_family(dims, factor_bases, shared, targets):
    """Minimum-norm ``j0`` with the given marginals and a basis of the rest.

    ``factor_bases[i]`` is an orthonormal Hermitian basis of factor i with
    member 0 the normalized identity.  ``targets`` are the marginals on each
    other factor (in order) with ``shared``; the one on ``shared`` alone is
    the identity.  ``basis`` stacks the Kronecker strings with two or
    more non-identity constrained factors, the strings no marginal sees.
    """
    dims = list(dims)
    total = int(np.prod(dims))
    constrained = [i for i in range(len(dims)) if i != shared]
    # inclusion-exclusion: the pair terms count the shared marginal N times
    marginals = [({shared}, np.eye(dims[shared]), 1 - len(targets))] + [
        ({shared, i}, t, dims[i]) for i, t in zip(constrained, targets)
    ]
    j0 = sum(
        w * dims[shared] / total * _embed_for_partial_trace(t, dims, keep)
        for keep, t, w in marginals
    )
    for keep, t, _ in marginals:
        residual = float(np.linalg.norm(partial_trace(j0, dims, keep) - t))
        if residual > 1e-8 * (1.0 + float(np.linalg.norm(t))):
            raise RuntimeError(
                f"marginal constraints are inconsistent: residual {residual:.3e}"
            )

    strings = factor_bases[0]
    for b in factor_bases[1:]:
        k, n = strings.shape[0] * b.shape[0], strings.shape[1] * b.shape[1]
        strings = np.einsum("aij,bkl->abikjl", strings, b).reshape(k, n, n)
    labels = np.indices([len(b) for b in factor_bases]).reshape(len(dims), -1)
    non_identity = (labels[constrained] > 0).sum(axis=0)
    return j0, strings[non_identity >= 2]


# ---------------------------------------------------------------------------
# joint channel oracle
# ---------------------------------------------------------------------------

def _joint_channel_family(d: int, targets):
    """``_marginal_family`` of a d -> d^N joint Choi matrix, within the budget."""
    n = len(targets)
    big_dim = d ** (n + 1)
    cost = n * big_dim * big_dim
    if cost > ORACLE_BUDGET:
        raise OracleBudgetError(
            f"joint Choi matrix of dimension {d}^{n + 1} = {big_dim} needs "
            f"N * dim^2 = {cost}, over the oracle budget {ORACLE_BUDGET}"
        )
    # factor 0 is the input, factors 1..N the outputs
    return _marginal_family([d] * (n + 1), [_hermitian_basis(d)] * (n + 1), 0, targets)


def solve_joint_channel(channels) -> FeasibilityResult:
    """Decide whether the given channels are marginals of one joint channel.

    Maximizes the smallest eigenvalue over all Hermitian J of dimension
    d^(N+1) with Tr over all outputs equal to I_d and the i-th output
    marginal equal to the i-th Choi matrix.  A nonnegative optimum means a
    joint channel exists.  FEASIBLE needs the attained ``lambda_star`` at
    least ``FEASIBLE_BAND``, INFEASIBLE the dual bound ``lambda_star + gap``
    at most ``-FEASIBLE_BAND``; anything between is MARGINAL.  Instances
    whose cost N * dim^2 exceeds ``ORACLE_BUDGET`` (d=2 with N >= 4, d=3
    with N >= 3) are refused with an ``OracleBudgetError``.
    """
    channels = list(channels)
    d = shared_dimension(channels)
    return _solve_family(*_joint_channel_family(d, [c.choi for c in channels]))


def _joint_channel_radius(channels, u):
    """Certified bracket (lo, hi) on the largest r with compatible s_i = r u_i.

    The marginals s_i Phi_i + (1 - s_i) Delta are affine in r, so the
    minimum-norm joint operator is J(r) = I / d^N + r E with E traceless
    and orthogonal to every free direction, and the radius is one program:
    max r s.t. J(r) + sum_k x_k B_k >= 0.  A joint channel exists at lo and
    none past hi.  The caller makes sure the ray's end is infeasible;
    otherwise the optimum, if finite, lies past it, where some s_i > 1.
    """
    d = shared_dimension(channels)
    delta = np.eye(d * d) / d
    j0, basis = _joint_channel_family(d, [delta] * len(channels))
    j1, _ = _joint_channel_family(
        d, [delta + ui * (c.choi - delta) for c, ui in zip(channels, u)]
    )
    _, lo, hi, _ = _max_affine_min_eig(j0, basis, j1 - j0)
    return lo, hi


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

    The joint measurement is a block-diagonal variable with one d x d block
    per joint outcome; marginal matching is affine and positivity of every
    block is the PSD constraint, so the same lambda_min engine applies.
    """
    povms = list(povms)
    d = shared_dimension(povms, "POVM")
    counts = [len(p) for p in povms]
    n_out = int(np.prod(counts))
    big_dim = n_out * d
    if big_dim * big_dim > ORACLE_BUDGET:
        raise OracleBudgetError(
            f"joint measurement block matrix of dimension {n_out} * {d} = {big_dim} "
            f"needs dim^2 = {big_dim * big_dim}, over the oracle budget {ORACLE_BUDGET}"
        )

    # one classical outcome register per POVM, then the system; diagonal
    # register bases keep every candidate block-diagonal
    j0, basis = _marginal_family(
        counts + [d],
        [_diagonal_basis(k) for k in counts] + [_hermitian_basis(d)],
        len(povms),
        [
            sum(np.kron(np.diag(row), e) for row, e in zip(np.eye(k), p.effects))
            for k, p in zip(counts, povms)
        ],
    )
    return _solve_family(j0, basis)
