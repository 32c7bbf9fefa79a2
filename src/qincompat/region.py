"""Map compatibility regions along rays and emit figure datasets.

The compatibility region of a channel tuple collects the noise vectors s
for which the channels s_i * Phi_i + (1 - s_i) * Delta stay compatible.
It is convex, closed, contains the origin and every coordinate unit
vector, so along any ray from the origin there is a single crossing.
Criterion boundaries are outer bounds on the region; oracle boundaries
are exact up to the tolerance.

Noise scaling is affine on the effects of each induced measurement,
A_k(s) = s A_k + (1 - s) I/d, and each G-matrix is a sum of x x^+ / tau
with x and tau > 0 affine in s, so the criterion value v(r) along a ray
is convex with v(0) = 1.  Each criterion solve at r brackets the crossing
v = d: below by its value, through the chord from v(0) (or 1 + r^2 kappa
when every Tr A_k is 1 and G_i(s) = omega + s^2 (G_i - omega)), above by
its dual, through the root of a minorant tangent at r.  Along a ray every
marginal s_i Phi_i + (1 - s_i) Delta is affine in r, and so is the
minimum-norm joint operator, J(r) = J(0) + r E.  So J(r_max) - lambda J(0)
= (1 - lambda) J(r_max / (1 - lambda)), and one lambda* solve at the ray's
end, measured against J(0), gives the oracle radius r_max / (1 -
lambda*), or r_max when lambda* >= 0.  One rule reads both brackets.

The ``fig1`` oracle grid decides by theorem every cell with s + t <= 1
(compatible) and every edge cell whose pure Schur channel meets a
coherent partner (incompatible).  Rays from the origin decide the rest,
the diagonal first, then one through the open cell at the median angle:
each ray's bracket decides the cells on it, the convex hull of the points
certified compatible the cells inside it, and the ray's dual half-plane
the cells beyond it (sandwich approximation of a convex set; Rote,
Computing 48, 337 (1992)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import VALIDATION_TOL, induced_effects, make_schur, shared_dimension
from .criteria import _schur_ellipse, select_bases
from .fisher import ZERO_EFFECT_TOL, _g_from_effects, _weyl_coordinates, beta
from .sdp import (
    DominationProblem,
    SolverStatus,
    _joint_channel_radius,
    _shifted_dual,
    solve_domination,
)

BISECT_TOL = 1e-3
MIN_BISECT_TOL = 1e-4


@dataclass(frozen=True)
class RayResult:
    direction: tuple
    criterion_radius: float
    oracle_radius: float | None = None


@dataclass(frozen=True)
class RegionReport:
    channel_labels: tuple
    rays: tuple


def ray_directions(n_channels: int, count: int):
    """Evenly spread unit directions in the positive orthant (pairs only)."""
    if n_channels != 2:
        raise ValueError(
            "automatic ray generation is implemented for channel pairs; "
            "pass explicit directions for larger tuples"
        )
    if count < 1:
        raise ValueError("at least one ray is required")
    if count == 1:
        angles = [np.pi / 4]
    else:
        angles = np.linspace(0.0, np.pi / 2, count)
    return [(float(np.cos(a)), float(np.sin(a))) for a in angles]


def _point(v) -> str:
    return f"({', '.join(f'{x:.6g}' for x in v)})"


def _read_bracket(bracket, r_max: float, tol: float, what: str) -> float:
    """Radius of a bracket (lo, hi) on min(r*, r_max): r_max if hi reaches it, else lo.

    A bracket wider than ``tol`` raises ``RuntimeError`` naming ``what``.
    """
    lo, hi = bracket
    if not hi - lo <= tol:  # a nan bound raises too
        raise RuntimeError(
            f"{what} not decided: bracket [{lo:.6g}, {hi:.6g}] is wider than {tol:g}"
        )
    return r_max if hi >= r_max else lo


def _oracle_line(channels, u, r_max: float, tol: float):
    """Bracket, dual half-plane and radius of the radius solve along ``u``, r <= r_max."""
    bracket, plane = _joint_channel_radius(channels, u, r_max)
    what = f"oracle radius along u = {_point(u)}"
    return bracket, plane, _read_bracket(bracket, r_max, tol, what)


def _tangent_root(effects, dual, u, r: float) -> float:
    """Root in (0, r] of L(t) = d, L the dual minorant of the solve at r along ``u``.

    ``dual`` is that solve's (index, y), shifted and divided per block as in
    ``_dual_bound`` to Y^_i >= 0 with sum_i Y^_i <= I, so L(t) = sum_i <Y^_i,
    G_i(t u_i)> <= v(t).  With x_k(s) = w(I/d) + s w(A_k - I/d), w the Weyl
    coordinates the G-matrices are written in, and tau_k(s) = 1 + s (Tr A_k
    - 1) each term is sum_k x_k^+ Y^_i x_k / tau_k (0 where tau_k <=
    ``ZERO_EFFECT_TOL``): L is convex, L(0) <= 1 < d, and Newton's method
    from r falls to the root (r itself when L(r) <= d).
    """
    index, (y, lam), d = dual[0], _shifted_dual(dual[1]), effects.shape[-1]
    y = (y / lam[:, None, None, None]).swapaxes(0, 1)  # (N, blocks, b, b)
    mixed = _weyl_coordinates(np.eye(d) / d)
    dx = (_weyl_coordinates(effects) - mixed)[..., index] * u[:, None, None, None]
    x = np.stack(np.broadcast_arrays(mixed[index], dx))  # x_k(t u_i) = x[0] + t x[1]
    (q0, q1), (_, q2) = np.einsum("pijkb,ikbc,qijkc->pqij", x.conj(), y, x).real
    delta = (np.trace(effects, axis1=2, axis2=3).real - 1.0) * u[:, None]
    while True:  # each Newton step goes to the root of L's tangent at the current r
        tau = 1.0 + delta * r
        w = (tau > ZERO_EFFECT_TOL) / np.maximum(tau, ZERO_EFFECT_TOL)  # 1 / tau, or 0
        num = q0 + (2.0 * q1 + q2 * r) * r
        f, slope = (w * num).sum() - d, (w * (2.0 * (q1 + q2 * r) - delta * num * w)).sum()
        if not (f > 0.0 and slope > 0.0 and r - f / slope < r):
            return r
        r -= f / slope


def scan_rays(
    base_channels,
    directions,
    use_oracle: bool = False,
    bisect_tol: float = BISECT_TOL,
) -> RegionReport:
    """Find the criterion (and optionally oracle) boundary along each ray.

    The criterion measures in the ``select_bases`` defaults.  Its bracket
    starts at (0, r_max), and each solve runs at its top: the value raises
    the bottom, a dual bound above d lowers the top (``_tangent_root``, or
    kappa's rule when every effect has unit trace within ``VALIDATION_TOL``),
    until the bracket is within ``bisect_tol`` or the top stays.  The oracle
    radius is one lambda* solve at the ray's end, measured against the
    origin's joint operator.  Each radius is the lower end of a certified
    bracket no wider than ``bisect_tol``, or the ray's end.  An SDP that
    does not decide (an open bracket, a failed solve) raises
    ``RuntimeError`` naming the ray.  Rays are reported in the input order.
    """
    base_channels = list(base_channels)
    # every ray reaches r_max = 1 / max(u) >= 1: a tolerance of 1 could read any radius
    if not MIN_BISECT_TOL <= bisect_tol < 1.0:
        raise ValueError(f"bisect_tol must lie in [{MIN_BISECT_TOL}, 1)")
    d = shared_dimension(base_channels)
    n = len(base_channels)
    dirs = []
    for u in directions:
        u = np.asarray(u, dtype=float)
        # written so that a NaN entry, whose norm compares false, fails too
        if u.shape != (n,) or not abs(float(np.linalg.norm(u)) - 1.0) <= VALIDATION_TOL:
            raise ValueError(f"direction {u} is not a unit vector of length {n}")
        if np.any(u < -1e-12):
            raise ValueError(f"direction {u} leaves the positive orthant")
        dirs.append(np.clip(u, 0.0, None))

    bases, _ = select_bases(d, n)
    effects = np.stack([induced_effects(c, e) for c, e in zip(base_channels, bases)])
    unit_trace = np.abs(np.trace(effects, axis1=2, axis2=3) - 1.0).max() <= VALIDATION_TOL
    power = 0.5 if unit_trace else 1.0  # v = 1 + r^2 kappa exactly, else the chord from v(0)
    mixed = np.eye(d) / d

    def criterion_radius(u, r_max):
        what = f"criterion radius along u = {_point(u)}"
        lo, hi = 0.0, r_max
        while True:
            r = hi
            gs = [_g_from_effects(s * a + (1.0 - s) * mixed)
                  for s, a in zip(np.minimum(r * u, 1.0), effects)]
            res = solve_domination(DominationProblem(gs))
            if res.status is not SolverStatus.OPTIMAL:
                raise RuntimeError(
                    f"{what} at r = {r:.6g}: criterion SDP did not converge "
                    f"({res.status.value}, gap {res.gap:.2e})")
            lo = max(lo, r * ((d - 1) / (res.value - 1)) ** power) if res.value > d else r
            if res.lower_bound > d:
                hi = (r * math.sqrt((d - 1) / (res.lower_bound - 1)) if unit_trace
                      else _tangent_root(effects, res.dual, u, r))
            if hi - lo <= bisect_tol or hi == r:
                return _read_bracket((lo, hi), r_max, bisect_tol, what)

    def run_ray(u):
        r_max = float(1.0 / u[u > 1e-12].max())
        crit = criterion_radius(u, r_max)
        orac = None
        if use_oracle:
            orac = _oracle_line(base_channels, u, r_max, bisect_tol)[2]
        return RayResult(
            direction=tuple(float(v) for v in u),
            criterion_radius=float(crit),
            oracle_radius=orac,
        )

    return RegionReport(
        channel_labels=tuple(c.label for c in base_channels),
        rays=tuple(run_ray(u) for u in dirs),
    )


# ---------------------------------------------------------------------------
# figure datasets
# ---------------------------------------------------------------------------

def exact_pair_root(d: int, s: float) -> float:
    """Value of t solving t + s - (2/d) sqrt((1-t)(1-s)) = 1 for given s."""
    if d < 2:
        raise ValueError(f"dimension d={d} must be at least 2")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s={s} outside [0, 1]")
    b = 1.0 - s
    y = math.sqrt(b / (d * d) + 1.0 - b) - math.sqrt(b) / d
    return 1.0 - y * y


def emit_figure2_data(ds, resolution: int) -> dict:
    """Exact vs criterion thresholds for depolarizing pairs, per dimension.

    Rows are (d, s, t_exact, t_criterion) with t_exact the exact-boundary
    root and t_criterion = sqrt(1 - s^2) the criterion circle.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    rows = []
    for d in ds:
        for s in np.linspace(0.0, 1.0, resolution):
            s = float(s)
            t_exact = exact_pair_root(int(d), s)
            t_criterion = math.sqrt(max(0.0, 1.0 - s * s))
            rows.append([int(d), s, t_exact, t_criterion])
    return {
        "columns": ["d", "s", "t_exact", "t_criterion"],
        "rows": rows,
        "meta": {
            "description": "exact and criterion compatibility thresholds "
            "for pairs of depolarizing channels",
        },
    }


def _coherent(m) -> bool:
    """Some off-diagonal entry of ``m`` exceeds ``VALIDATION_TOL`` in modulus."""
    return bool(np.abs(m - np.diag(np.diag(m))).max() > VALIDATION_TOL)


def _upper_hull(points):
    """Vertices of the upper hull of (x, y) ``points`` by increasing x (monotone chain)."""
    hull = []
    for p in sorted(points):
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                                  >= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])):
            hull.pop()
        hull.append(p)
    return hull


def _oracle_grid(pair, coherent, grid):
    """Oracle column of the ``fig1`` grid and the diagonal's radius.

    Cell [i, j] of the column tells whether (grid[i], grid[j]) is
    compatible.  ``coherent`` tells, per Schur matrix of ``pair``, whether it
    has an off-diagonal entry (``_coherent``).  Two theorems decide cells
    with no solve.  A cell with s + t <= 1 is compatible: with probability
    s, t and 1 - s - t the joint channel outputs Phi_B(rho) (x) I/d, I/d (x)
    Phi_C(rho) and I/d (x) I/d.  Every channel compatible with Phi factors
    through Phi's complementary channel (Heinosaari & Miyadera, J. Phys. A
    50, 135302 (2017)); with B_ij = <g_i, g_j> that of the pure Schur
    channel Phi_B is rho -> sum_i rho_ii |g_i><g_i|, which erases every
    coherence, while t Phi_C + (1 - t) Delta keeps t C_ij off the diagonal.
    So (1, t), t > 0, is incompatible when C is coherent, (s, 1), s > 0,
    when B is, and the corner when either is.

    The other cells are decided by rays from the origin, each one radius
    solve to the square's edge with the radius measured as max(s, t): the
    diagonal first, then one through the open cell at the median angle.
    A ray decides its open cells by its bracket: at or below ``lo``
    compatible, above ``hi`` not, and between them compatible iff
    ``_read_bracket`` reads the cell's radius (it raises on an open
    bracket) off the bracket of a radius solve along the ray that ends at
    the cell, which at the ray's end is the ray's own solve.  The region is
    convex, so every open cell in the hull of the certified points (the
    origin, both unit points, each ray's lo u and every compatible cell) is
    compatible, and every open cell where a ray's dual half-plane has
    1 + x.b < 0 is not.  Each ray decides at least the cell it passes
    through.
    """
    n = len(grid)
    open_cells = np.add.outer(grid, grid) > 1.0 + 1e-12
    ok = ~open_cells
    coherent_b, coherent_c = coherent
    if coherent_c:
        open_cells[n - 1] = False
    if coherent_b:
        open_cells[:, n - 1] = False
    i, j = np.indices((n, n))
    s, t = grid[i], grid[j]
    radius = np.maximum(s, t)  # along each ray, whose end has max(u) = 1

    hull, cell, diagonal = [(0.0, 1.0), (1.0, 0.0)], (n - 1, n - 1), None
    while cell is not None:
        u = grid[list(cell)] / grid[list(cell)].max()
        (lo, hi), plane, r = _oracle_line(pair, u, 1.0, BISECT_TOL)
        diagonal = r if diagonal is None else diagonal
        on = open_cells & (i * cell[1] == j * cell[0])
        ok |= on & (radius <= lo)
        for a, b in np.argwhere(on & (radius > lo) & (radius <= hi)):
            rc = radius[a, b]  # at the ray's own end, 1, the ray's solve is the cell's
            ok[a, b] = (r if rc == 1.0 else _oracle_line(pair, u, rc, BISECT_TOL)[2]) == rc
        # the hull of the certified points is 0 <= t <= their upper hull at s
        hull = _upper_hull(hull + [tuple(lo * u)] + list(zip(s[on & ok], t[on & ok])))
        inside = open_cells & ~on & (t <= np.interp(s, *zip(*hull)))
        ok |= inside
        open_cells &= ~on & ~inside & (1.0 + s * plane[0] + t * plane[1] >= 0.0)
        todo = np.argwhere(open_cells)
        cell = None if not len(todo) else tuple(todo[
            np.argsort(np.arctan2(todo[:, 1], todo[:, 0]))[len(todo) // 2]])
    return ok, diagonal


def emit_figure1_data(b, c, resolution: int, use_oracle: bool = False) -> dict:
    """Criterion region (and optional oracle samples) for a Schur pair.

    Rows are (s, t, criterion_inside, oracle_compatible); the oracle column
    is empty unless requested.  With the oracle on, the boundary radii
    along both axes and the diagonal are recorded in the metadata; those
    are the maximally compatible mixtures in the respective directions.
    The diagonal one is the oracle grid's first ray, inside and at most
    ``BISECT_TOL`` below the boundary; the axis ones are 1.  The oracle
    column (``_oracle_grid``) decides by theorem every cell with s + t <= 1
    and every edge cell whose partner matrix is coherent, and the rest by
    rays from the origin and convexity: one radius solve per ray (one to
    32 on coherent qubit pairs at resolution 200), and one more per cell
    inside a ray's bracket short of its end, that ray's solve ended at the
    cell.  A solve that does not decide raises ``RuntimeError``.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    pair = [make_schur(b), make_schur(c)]
    shared_dimension(pair)
    beta_b, beta_c = beta(b), beta(c)

    grid = np.linspace(0.0, 1.0, resolution)
    meta = {
        "beta_b": beta_b,
        "beta_c": beta_c,
        "criterion_region": "s^2 + beta_c t^2 <= 1 and beta_b s^2 + t^2 <= 1",
    }
    oracle = None
    if use_oracle:
        oracle, r = _oracle_grid(pair, (_coherent(b), _coherent(c)), grid)
        meta["boundary_points"] = {
            "diagonal_coordinate": r,
            "axis_s": 1.0,
            "axis_t": 1.0,
        }
        meta["boundary_interpretation"] = (
            "oracle compatibility boundary along the coordinate axes and "
            "the diagonal; these are the maximally compatible mixtures in "
            "those directions"
        )
    rows = []
    for i, s in enumerate(grid):
        for j, t in enumerate(grid):
            s, t = float(s), float(t)
            rows.append([s, t, _schur_ellipse(s, t, beta_b, beta_c)[2],
                         None if oracle is None else bool(oracle[i, j])])
    return {
        "columns": ["s", "t", "criterion_inside", "oracle_compatible"],
        "rows": rows,
        "meta": meta,
    }


# ---------------------------------------------------------------------------
# tabular output
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def dataset_to_csv(dataset: dict) -> str:
    lines = [",".join(dataset["columns"])]
    for row in dataset["rows"]:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def region_report_to_dataset(report: RegionReport) -> dict:
    n = len(report.rays[0].direction) if report.rays else 0
    columns = [f"u{i}" for i in range(n)]
    columns += ["criterion_radius", "oracle_radius"]
    rows = []
    for ray in report.rays:
        rows.append(list(ray.direction) + [ray.criterion_radius, ray.oracle_radius])
    return {
        "columns": columns,
        "rows": rows,
        "meta": {"channels": list(report.channel_labels)},
    }
