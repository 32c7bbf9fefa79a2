"""Map compatibility regions along rays and emit figure datasets.

The compatibility region of a channel tuple collects the noise vectors s
for which the channels s_i * Phi_i + (1 - s_i) * Delta stay compatible.
It is convex, closed, contains the origin and every coordinate unit
vector, so along any ray from the origin there is a single crossing.
Criterion boundaries are outer bounds on the region; oracle boundaries
are exact up to the tolerance.

For unital channels noise scaling is exact on the G-matrices,
G_i(s) = omega + s^2 (G_i - omega), so the criterion value along a ray
is 1 + r^2 kappa and one SDP for kappa gives the criterion radius.  Along
a ray every marginal s_i Phi_i + (1 - s_i) Delta is affine in r, and so
is the minimum-norm joint operator, J(r) = J(0) + r E.  So J(r_max) -
lambda J(0) = (1 - lambda) J(r_max / (1 - lambda)), and one lambda* solve
at the ray's end, measured against J(0), gives the oracle radius r_max /
(1 - lambda*), or r_max when lambda* >= 0.  One rule reads both off their
certified brackets, and bisection remains only for non-unital criterion rays.

The same solve runs along any line from a point whose joint operator is
positive definite.  The ``fig1`` oracle grid decides by theorem every cell
with s + t <= 1 (compatible) and every edge cell whose pure Schur channel
meets a coherent partner (incompatible: a channel compatible with Phi
factors through Phi's complementary channel, which for a pure Schur
channel erases coherences).  The rest take one solve per row that still
has such a cell, and the diagonal's: by convexity the compatible cells on
a line from an axis point form an interval that starts there, so one
certified bracket decides every cell outside it; a cell inside it, or an
open cell on the edge s = 1, takes lambda*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import VALIDATION_TOL, Channel, make_schur, shared_dimension
from .criteria import (
    VerdictKind,
    _schur_ellipse,
    select_bases,
    zhu_criterion_channels,
)
from .fisher import beta, g_matrix, omega
from .linalg import partial_trace
from .sdp import (
    DominationProblem,
    FEASIBILITY_GAP_FINE,
    Feasibility,
    SolverStatus,
    _joint_channel_radius,
    solve_domination,
    solve_joint_channel,
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


def mix_toward_depolarizing(channel: Channel, s: float) -> Channel:
    """Noise-scale a channel: s * Phi + (1 - s) * Delta as a Choi mixture."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"mixing weight {s} outside [0, 1]")
    d = channel.d
    delta_choi = np.eye(d * d) / d
    return Channel(
        d,
        d,
        s * channel.choi + (1.0 - s) * delta_choi,
        label=f"{channel.label}*{s:.6f}",
    )


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


def bisect_boundary(inside, r_max: float, tol: float) -> float:
    """Largest certified-inside radius along a ray, by bisection.

    ``inside`` must be monotone (single crossing) and true at 0, which is
    assumed, not probed.  For the criterion it always holds: each G_i(r)
    is a sum of x x^+ / tau with x and tau > 0 affine in r, so it is
    operator-convex, the criterion value is convex, and at r = 0 (every
    channel Delta, every G-matrix omega) it is 1 < d, so the radii the
    criterion does not certify form [0, r*] up to the solver gap.
    Returns a radius r with inside(r) true and inside(r') false for some
    r' <= r + tol, or r_max when the whole segment is inside.
    """
    if inside(r_max):
        return r_max
    lo, hi = 0.0, r_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _scaled(channels, u, r):
    """The channels noise-scaled to s_i = min(r u_i, 1)."""
    return [mix_toward_depolarizing(c, min(r * ui, 1.0)) for c, ui in zip(channels, u)]


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


def _oracle_line(channels, start, u, r_max: float, tol: float):
    """Bracket and radius of one radius solve along ``start + r u``, r <= r_max."""
    bracket = _joint_channel_radius(channels, start, u, r_max)
    what = f"oracle radius from {_point(start)} along u = {_point(u)}"
    return bracket, _read_bracket(bracket, r_max, tol, what)


def _is_unital(channel: Channel) -> bool:
    """Phi(I) = Tr_in(choi) equals I within the validation tolerance."""
    image = partial_trace(channel.choi, [channel.d_in, channel.d_out], keep={1})
    return float(np.abs(image - np.eye(channel.d_out)).max()) <= VALIDATION_TOL


def _unital_criterion_radius(base_channels, bases, u, r_max: float, tol: float):
    """Criterion radius along ``u`` from one SDP.

    With H = omega + r^2 K the criterion value at radius r is 1 + r^2 kappa,
    kappa = min Tr K s.t. K >= u_i^2 (G_i - omega).  At r = sqrt((d - 1) /
    kappa_value) that value is at most d, so no dual bound certifies; past
    sqrt((d - 1) / kappa_lower) every optimum exceeds d.  ``_read_bracket``
    reads that bracket clamped to r_max; a failed kappa SDP raises.
    """
    d = base_channels[0].d
    w = omega(d)
    result = solve_domination(DominationProblem(d * d, tuple(
        ui * ui * (g_matrix(c, e) - w) for c, e, ui in zip(base_channels, bases, u)
    )))
    what = f"criterion radius along u = {_point(u)}"
    if result.status is not SolverStatus.OPTIMAL:
        raise RuntimeError(f"{what}: kappa SDP ended {result.status.value}")

    def radius(kappa):  # 1 + r^2 kappa = d, clamped to r_max
        return r_max if kappa * r_max * r_max <= d - 1 else math.sqrt((d - 1) / kappa)

    bracket = radius(result.value), radius(result.lower_bound)
    return _read_bracket(bracket, r_max, tol, what)


def scan_rays(
    base_channels,
    directions,
    use_oracle: bool = False,
    bisect_tol: float = BISECT_TOL,
) -> RegionReport:
    """Find the criterion (and optionally oracle) boundary along each ray.

    The criterion measures in the ``select_bases`` defaults.  Its radius
    is one SDP when every channel is unital, bisection otherwise; the
    oracle radius is one lambda* solve at the ray's end, measured against
    the origin's joint operator.  Each radius is inside, with an outside
    point at most ``bisect_tol`` beyond it, or the ray's end.  An SDP that
    does not decide (a bracket wider than ``bisect_tol``, a failed solve)
    raises ``RuntimeError`` naming the ray.  Rays are reported in the input
    order.
    """
    base_channels = list(base_channels)
    # every ray reaches r_max = 1 / max(u) >= 1, so a tolerance of 1 or more
    # would stop before the first probe inside the segment
    if not MIN_BISECT_TOL <= bisect_tol < 1.0:
        raise ValueError(f"bisect_tol must lie in [{MIN_BISECT_TOL}, 1)")
    d = shared_dimension(base_channels)
    n = len(base_channels)
    dirs = []
    for u in directions:
        u = np.asarray(u, dtype=float)
        if u.shape != (n,) or abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
            raise ValueError(f"direction {u} is not a unit vector of length {n}")
        if np.any(u < -1e-12):
            raise ValueError(f"direction {u} leaves the positive orthant")
        dirs.append(np.clip(u, 0.0, None))

    bases, labels = select_bases(d, n)
    unital = all(_is_unital(c) for c in base_channels)

    def criterion_inside(r, u):
        verdict = zhu_criterion_channels(
            _scaled(base_channels, u, r), bases, basis_labels=labels
        )
        if verdict.value is None:  # the SDP did not converge
            raise RuntimeError(f"criterion radius along u = {_point(u)} at "
                               f"r = {r:.6g}: {verdict.certificate}")
        return verdict.kind is not VerdictKind.INCOMPATIBLE_CERTIFIED

    def run_ray(u):
        r_max = float(1.0 / u[u > 1e-12].max())
        if unital:
            crit = _unital_criterion_radius(base_channels, bases, u, r_max, bisect_tol)
        else:
            crit = bisect_boundary(lambda r: criterion_inside(r, u), r_max, bisect_tol)
        orac = None
        if use_oracle:
            _, orac = _oracle_line(base_channels, (0.0,) * n, u, r_max, bisect_tol)
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


def _oracle_grid(pair, coherent, grid, diagonal) -> np.ndarray:
    """Oracle column of the ``fig1`` grid: [i, j] is (grid[i], grid[j]) compatible.

    ``coherent`` tells, per Schur matrix of ``pair``, whether it has an
    off-diagonal entry (``_coherent``).  Two theorems decide cells with no
    solve.  A cell with s + t <= 1 is compatible: with probability s, t and
    1 - s - t the joint channel outputs Phi_B(rho) (x) I/d, I/d (x)
    Phi_C(rho) and I/d (x) I/d.  Every channel compatible with Phi factors
    through Phi's complementary channel (Heinosaari & Miyadera, J. Phys. A
    50, 135302 (2017)); with B_ij = <g_i, g_j> that of the pure Schur
    channel Phi_B is rho -> sum_i rho_ii |g_i><g_i|, which erases every
    coherence, while t Phi_C + (1 - t) Delta keeps t C_ij off the diagonal.
    So (1, t), t > 0, is incompatible when C is coherent, (s, 1), s > 0,
    when B is, and the corner when either is.

    The region is convex and holds both axes, so along the row from (s, 0),
    0 < s < 1, the compatible cells form an interval that starts there, and
    one radius solve, run only for a row with a cell still open, decides it:
    a cell at or below the bracket's ``lo`` is compatible, one above its
    ``hi`` is not.  An open corner reads ``diagonal``.  An open cell inside
    a bracket, and an open (1, t), takes ``solve_joint_channel``: MARGINAL
    counts inside (the region is closed) if its gap closed to
    ``FEASIBILITY_GAP_FINE``, else it raises.  A pure Schur Choi matrix is
    singular, and so is every joint operator with it as a marginal: (1, 0)
    starts no line, and a compatible (1, t) has lambda* = 0: no ``lo``
    reaches it.
    """
    n = len(grid)
    open_cells = np.add.outer(grid, grid) > 1.0 + 1e-12
    ok = ~open_cells
    coherent_b, coherent_c = coherent
    if coherent_c:
        open_cells[n - 1] = False
    if coherent_b:
        open_cells[:, n - 1] = False

    def compatible(cell):
        result = solve_joint_channel(_scaled(pair, cell, 1.0))
        if result.status is Feasibility.MARGINAL and result.gap > FEASIBILITY_GAP_FINE:
            raise RuntimeError(f"oracle cell {_point(cell)} not decided: lambda* "
                               f"solve stopped at gap {result.gap:.3g}")
        return result.status is not Feasibility.INFEASIBLE

    def decide(bracket, r, cell):  # outside its bracket, the line decides
        lo, hi = bracket
        return r <= lo or (r <= hi and compatible(cell))

    for i in range(1, n - 1):
        s = float(grid[i])
        if open_cells[i].any():
            row, _ = _oracle_line(pair, (s, 0.0), (0.0, 1.0), 1.0, BISECT_TOL)
            for j in np.flatnonzero(open_cells[i]):
                ok[i, j] = decide(row, float(grid[j]), (s, float(grid[j])))
        if open_cells[n - 1, i]:  # no line starts at (1, 0)
            ok[n - 1, i] = compatible((1.0, s))
    if open_cells[n - 1, n - 1]:
        ok[n - 1, n - 1] = decide(diagonal, math.sqrt(2.0), (1.0, 1.0))
    return ok


def emit_figure1_data(b, c, resolution: int, use_oracle: bool = False) -> dict:
    """Criterion region (and optional oracle samples) for a Schur pair.

    Rows are (s, t, criterion_inside, oracle_compatible); the oracle column
    is empty unless requested.  With the oracle on, the boundary radii
    along both axes and the diagonal are recorded in the metadata; those
    are the maximally compatible mixtures in the respective directions.
    The diagonal one is one radius solve along the diagonal, inside and
    at most ``BISECT_TOL`` below the boundary; the axis ones are 1.  The
    oracle column (``_oracle_grid``) decides by theorem every cell with s +
    t <= 1 and every edge cell whose partner matrix is coherent; from
    resolution 3 on, a coherent pair takes resolution - 2 radius solves
    (the diagonal's and the rows' with s >= 2 / (resolution - 1)) and no
    lambda* solve unless a cell falls inside a line's bracket.  A solve
    that does not decide raises ``RuntimeError``.
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
        r_diag = math.sqrt(2.0)
        u = (math.sqrt(0.5),) * 2
        diagonal, r = _oracle_line(pair, (0.0, 0.0), u, r_diag, BISECT_TOL)
        oracle = _oracle_grid(pair, (_coherent(b), _coherent(c)), grid, diagonal)
        meta["boundary_points"] = {
            "diagonal_coordinate": r / r_diag,
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
