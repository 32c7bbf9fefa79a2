"""Seeded task generators and reference checks for the benchmark workloads.

A task is one public library call that yields a verdict, a radius or a
figure dataset.  Every reference a task is checked against is a closed
form coded in this file; no library helper that computes the same
quantity is called, so a change to the library cannot move both sides of
a check.  The library only receives the generated channels, POVMs, bases
and spec files.

Each workload is a fixed mix of task kinds.  A round draws fresh
instances for every kind from ``numpy.random.default_rng([seed, 1,
round])`` and shuffles them, so the same seed gives the same inputs, no
two tasks of a run share an input, and every round has the same mix of
sizes.  The counts per round and the number of rounds put the median and
the tail percentile inside one size class, away from the edge between
two.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# tolerances of the reference checks
CLOSED_FORM_TOL = 1e-6  # criterion value against 1 + (d - 1) sum t_i^2
VERDICT_BAND = 1e-5  # closer to a threshold than this, no verdict is due
SDP_GAP = 1e-6  # the gap zhu_criterion_channels is asked for
BISECT_TOL = 1e-3  # region rays
RADIUS_SLACK = 1e-6  # solver accuracy on top of the bisection tolerance
OUTER_BOUND_SLACK = 1e-4  # oracle radius <= criterion radius + this
FIG1_RESOLUTION = 3


@dataclass
class Task:
    """One public call plus the check of its output.

    ``check`` returns None when the output is right, else a reason.
    ``size_class`` groups tasks of one problem size; the worker runs one
    untimed warm-up task per size class.
    """

    kind: str
    size_class: str
    params: dict
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    # (count per round, factory(q, rng, count) -> list of tasks)
    mix: list
    # a round's duration on a 2-core host; a run measures
    # round(seconds / round_s) rounds
    round_s: float

    def round_tasks(self, q, seed: int, index: int) -> list:
        rng = np.random.default_rng([seed, 1, index])
        tasks = []
        for count, factory in self.mix:
            tasks.extend(factory(q, rng, count))
        return [tasks[i] for i in rng.permutation(len(tasks))]

    def warmup_tasks(self, q, seed: int) -> list:
        """First task of every size class, drawn from a separate stream."""
        rng = np.random.default_rng([seed, 0])
        seen = {}
        for count, factory in self.mix:
            for task in factory(q, rng, count):
                seen.setdefault(task.size_class, task)
        return list(seen.values())


# ---------------------------------------------------------------------------
# inputs built from first principles (Choi convention of the library:
# input factor first, choi = sum_ij |i><j| (x) Phi(|i><j|))
# ---------------------------------------------------------------------------

def depolarizing_choi(d: int, t: float) -> np.ndarray:
    omega = np.eye(d).reshape(-1)
    return t * np.outer(omega, omega) + (1.0 - t) * np.eye(d * d) / d


def schur_choi(b: np.ndarray) -> np.ndarray:
    d = b.shape[0]
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    pos = np.arange(d) * (d + 1)
    choi[np.ix_(pos, pos)] = b
    return choi


def gaussian(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, d: int) -> np.ndarray:
    qm, r = np.linalg.qr(gaussian(rng, d, d))
    return qm * (np.diag(r) / np.abs(np.diag(r)))


def kraus_choi(kraus) -> np.ndarray:
    rows = [k.T.reshape(-1) for k in kraus]
    return sum(np.outer(w, w.conj()) for w in rows)


def random_channel_choi(rng, d_in: int, d_out: int, rank: int) -> np.ndarray:
    """Choi matrix of a random channel from a random Stinespring isometry."""
    iso, _ = np.linalg.qr(gaussian(rng, d_out * rank, d_in))
    return kraus_choi([iso[k * d_out:(k + 1) * d_out] for k in range(rank)])


def random_correlation(rng, d: int) -> np.ndarray:
    """PSD matrix with unit diagonal (a valid Schur multiplier)."""
    w = gaussian(rng, d, d)
    m = w @ w.conj().T
    scale = 1.0 / np.sqrt(np.diag(m).real)
    return scale[:, None] * m * scale[None, :]


def fourier(d: int) -> np.ndarray:
    j, s = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * s / d) / np.sqrt(d)


def mub_bases(d: int) -> list:
    """The d + 1 mutually unbiased bases of a prime d, one vector per row."""
    bases = [np.eye(d, dtype=np.complex128)]
    if d == 2:
        s = 1.0 / math.sqrt(2.0)
        bases.append(np.array([[s, s], [s, -s]], dtype=np.complex128))
        bases.append(np.array([[s, 1j * s], [s, -1j * s]], dtype=np.complex128))
        return bases
    j, s = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    for k in range(d):
        bases.append(np.exp(2j * np.pi * ((k * s * s + j * s) % d) / d) / np.sqrt(d))
    return bases


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def pair_lhs(d: int, s: float, t: float) -> float:
    """Exact depolarizing pair: compatible iff this is <= 1."""
    return s + t - (2.0 / d) * math.sqrt(max(0.0, (1.0 - s) * (1.0 - t)))


def bisect_root(f, lo: float, hi: float) -> float:
    """Root of an increasing f on [lo, hi] with f(lo) <= 0 < f(hi)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return lo


def fisher_trace(choi: np.ndarray, d: int, basis: np.ndarray) -> float:
    """Tr G = sum_s Tr(A_s^2) / Tr(A_s) over the effects A_s = Phi*(|e_s><e_s|)."""
    c = choi.reshape(d, d, d, d)
    total = 0.0
    for v in basis:
        effect = np.einsum("iajb,ab->ij", c.conj(), np.outer(v, v.conj()))
        tr = float(np.trace(effect).real)
        if tr > 1e-12:
            total += float(np.vdot(effect, effect).real) / tr
    return total


def ray_radius(inside, r_max: float) -> float:
    """Exact boundary radius along a ray for a monotone ``inside(r)`` test."""
    if inside(r_max):
        return r_max
    return bisect_root(lambda r: 0.0 if inside(r) else 1.0, 0.0, r_max)


# ---------------------------------------------------------------------------
# criterion workload: zhu_criterion_channels only
# ---------------------------------------------------------------------------

def _criterion_task(q, kind, d, chois, bases, check, params):
    chans = [q.Channel(d, d, c, label=f"{kind}-{i}") for i, c in enumerate(chois)]
    return Task(
        kind=kind,
        size_class=f"criterion d={d}",
        params=dict(params, d=d, n=len(chois)),
        run=lambda: q.zhu_criterion_channels(chans, bases, sdp_gap=SDP_GAP),
        check=check,
    )


def _closed_form_check(d, ts):
    expected = 1.0 + (d - 1) * float(sum(t * t for t in ts))
    # away from the threshold the verdict is due: certified above d, and
    # undetermined below (the criterion never certifies compatibility)
    due = None if abs(expected - d) <= VERDICT_BAND else expected > d

    def check(verdict):
        if verdict.value is None:
            return f"solver did not converge: {verdict.certificate}"
        err = abs(verdict.value - expected)
        if err > CLOSED_FORM_TOL:
            return f"value {verdict.value:.9f} vs closed form {expected:.9f}"
        certified = verdict.kind.value == "incompatible-certified"
        if due is not None and certified != due:
            return f"verdict {verdict.kind.value} at closed form {expected:.9f} vs {d}"
        return None

    return check


def _trace_bounds_check(d, chois, bases):
    traces = [fisher_trace(c, d, b) for c, b in zip(chois, bases)]
    lo, hi = max(traces) - SDP_GAP, sum(traces) + SDP_GAP

    def check(verdict):
        if verdict.value is None:
            return f"solver did not converge: {verdict.certificate}"
        if not lo <= verdict.value <= hi:
            return f"value {verdict.value:.9f} outside [{lo:.9f}, {hi:.9f}]"
        return None

    return check


def dep_mub(d, n):
    def factory(q, rng, count):
        bases = mub_bases(d)[:n]
        out = []
        for _ in range(count):
            ts = [float(t) for t in rng.uniform(0.3, 1.0, n)]
            chois = [depolarizing_choi(d, t) for t in ts]
            out.append(_criterion_task(
                q, "dep-mub", d, chois, bases, _closed_form_check(d, ts),
                {"t": ts},
            ))
        return out

    return factory


def dep_canonical_fourier(d):
    def factory(q, rng, count):
        bases = [np.eye(d, dtype=np.complex128), fourier(d)]
        out = []
        for _ in range(count):
            ts = [float(t) for t in rng.uniform(0.3, 1.0, 2)]
            chois = [depolarizing_choi(d, t) for t in ts]
            out.append(_criterion_task(
                q, "dep-canonical-fourier", d, chois, bases,
                _closed_form_check(d, ts), {"t": ts},
            ))
        return out

    return factory


def schur_pair(d):
    def factory(q, rng, count):
        bases = [np.eye(d, dtype=np.complex128), fourier(d)]
        out = []
        for _ in range(count):
            ss = [float(s) for s in rng.uniform(0.5, 1.0, 2)]
            chois = [
                s * schur_choi(random_correlation(rng, d))
                + (1.0 - s) * np.eye(d * d) / d
                for s in ss
            ]
            out.append(_criterion_task(
                q, "schur", d, chois, bases,
                _trace_bounds_check(d, chois, bases), {"s": ss},
            ))
        return out

    return factory


def random_pair(d):
    def factory(q, rng, count):
        out = []
        for _ in range(count):
            chois = [random_channel_choi(rng, d, d, 2) for _ in range(2)]
            bases = [random_unitary(rng, d) for _ in range(2)]
            out.append(_criterion_task(
                q, "random-non-unital", d, chois, bases,
                _trace_bounds_check(d, chois, bases), {},
            ))
        return out

    return factory


def criterion_workload() -> Workload:
    mix = [(1, dep_mub(d, n)) for d in (2, 3, 5, 7, 11)
           for n in range(2, min(d + 1, 4) + 1)]
    # five d=4 tasks put the median in the middle of their class
    mix += [
        (4, dep_canonical_fourier(4)),
        (1, schur_pair(2)),
        (1, schur_pair(3)),
        (1, random_pair(2)),
        (1, random_pair(3)),
        (1, random_pair(4)),
    ]
    return Workload(mix, 12.0)


# ---------------------------------------------------------------------------
# region workload: scan_rays and `figure fig1 --oracle` through the CLI
# ---------------------------------------------------------------------------

def stratified_angles(rng, count: int, lo: float = 0.2, hi: float = math.pi / 2 - 0.2):
    """One angle per stratum, so every round covers the quadrant alike."""
    width = (hi - lo) / count
    angles = [lo + (k + rng.random()) * width for k in range(count)]
    return [angles[k] for k in rng.permutation(count)]


def _ray_task(q, kind, d, chois, angle, use_oracle, checks, params):
    chans = [q.Channel(d, d, c, label=f"{kind}-{i}") for i, c in enumerate(chois)]
    u = (math.cos(angle), math.sin(angle))
    r_max = 1.0 / max(u)

    def check(report):
        if len(report.rays) != 1:
            return f"{len(report.rays)} rays returned for one direction"
        ray = report.rays[0]
        radii = [ray.criterion_radius]
        if use_oracle:
            if ray.oracle_radius is None:
                return "oracle radius missing"
            radii.append(ray.oracle_radius)
            if ray.oracle_radius > ray.criterion_radius + OUTER_BOUND_SLACK:
                return (f"oracle radius {ray.oracle_radius:.6f} above criterion "
                        f"radius {ray.criterion_radius:.6f}")
        if any(not 0.0 <= r <= r_max + 1e-12 for r in radii):
            return f"radius outside [0, {r_max:.6f}]: {radii}"
        for name, value, expected in checks(ray, u, r_max):
            if abs(value - expected) > BISECT_TOL + RADIUS_SLACK:
                return f"{name} radius {value:.6f} vs exact {expected:.6f}"
        return None

    return Task(
        kind=kind,
        size_class=f"ray-{'oracle' if use_oracle else 'criterion'} d={d}",
        params=dict(params, d=d, angle=angle),
        run=lambda: q.scan_rays(chans, [u], use_oracle=use_oracle,
                                bisect_tol=BISECT_TOL),
        check=check,
    )


def _dep_ray_checks(d, ts, use_oracle):
    def checks(ray, u, r_max):
        def noise(r):
            return [t * min(r * ui, 1.0) for t, ui in zip(ts, u)]

        # criterion circle sum s_i^2 <= 1 over unbiased bases
        crit = ray_radius(lambda r: sum(s * s for s in noise(r)) <= 1.0, r_max)
        out = [("criterion", ray.criterion_radius, crit)]
        if use_oracle:
            exact = ray_radius(lambda r: pair_lhs(d, *noise(r)) <= 1.0, r_max)
            out.append(("oracle", ray.oracle_radius, exact))
        return out

    return checks


def dep_ray(d, use_oracle):
    def factory(q, rng, count):
        out = []
        for angle in stratified_angles(rng, count):
            ts = [float(t) for t in rng.uniform(0.85, 1.0, 2)]
            chois = [depolarizing_choi(d, t) for t in ts]
            out.append(_ray_task(q, "dep-ray", d, chois, angle, use_oracle,
                                 _dep_ray_checks(d, ts, use_oracle), {"t": ts}))
        return out

    return factory


def no_closed_form(ray, u, r_max):
    return []


def schur_ray(d):
    def factory(q, rng, count):
        out = []
        for angle in stratified_angles(rng, count):
            chois = [schur_choi(random_correlation(rng, d)) for _ in range(2)]
            out.append(_ray_task(q, "schur-ray", d, chois, angle, True,
                                 no_closed_form, {}))
        return out

    return factory


def random_ray(d):
    def factory(q, rng, count):
        out = []
        for angle in stratified_angles(rng, count):
            chois = [random_channel_choi(rng, d, d, 2) for _ in range(2)]
            out.append(_ray_task(q, "random-non-unital-ray", d, chois, angle,
                                 True, no_closed_form, {}))
        return out

    return factory


def noisy_projective(basis: np.ndarray, t: float) -> list:
    """Effects t |v><v| + (1 - t) I / d for the rows v of ``basis``."""
    d = basis.shape[0]
    return [t * np.outer(v, v.conj()) + (1.0 - t) * np.eye(d) / d for v in basis]


def qubit_mub_povms(q, rng, count):
    """`solve_povm_joint` on noisy Z and X qubit measurements.

    The pair is jointly measurable iff t_1^2 + t_2^2 <= 1; noise levels
    closer than 0.02 to that circle are drawn again.
    """
    z, x = mub_bases(2)[:2]
    out = []
    for _ in range(count):
        while True:
            ts = [float(t) for t in rng.uniform(0.4, 1.0, 2)]
            norm = math.hypot(*ts)
            if abs(norm - 1.0) >= 0.02:
                break
        povms = [q.Povm(2, noisy_projective(b, t)) for b, t in zip((z, x), ts)]
        due = "feasible" if norm < 1.0 else "infeasible"

        def check(result, due=due, norm=norm):
            if result.status.value != due:
                return f"status {result.status.value} at |t| = {norm:.6f}, expected {due}"
            return None

        out.append(Task("povm-mub", "povm d=2", {"t": ts},
                        lambda povms=povms: q.solve_povm_joint(povms), check))
    return out


def _pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def schur_beta(b: np.ndarray) -> float:
    """Off-diagonal weight sum_{i != j} |b_ij|^2 / (d (d - 1))."""
    d = b.shape[0]
    off = float((np.abs(b) ** 2).sum() - (np.abs(np.diag(b)) ** 2).sum())
    return off / (d * (d - 1))


def _fig1_check(b, c):
    """Check a `figure fig1 --oracle` dataset against closed forms.

    With noise weights s, t the pair is compatible whenever s + t <= 1
    (mix each channel with the other's fully depolarized output), and the
    criterion says incompatible outside the ellipses s^2 + beta_C t^2 <= 1
    and beta_B s^2 + t^2 <= 1, which the oracle must respect.
    """
    beta_b, beta_c = schur_beta(b), schur_beta(c)

    def ellipse_excess(s, t):
        return max(s * s + beta_c * t * t, beta_b * s * s + t * t) - 1.0

    def check(code, output):
        if code != 0:
            return f"exit code {code}"
        with open(output, encoding="utf-8") as fh:
            dataset = json.load(fh)
        rows = dataset["rows"]
        if len(rows) != FIG1_RESOLUTION ** 2:
            return f"{len(rows)} rows, expected {FIG1_RESOLUTION ** 2}"
        for s, t, inside, compatible in rows:
            if not isinstance(compatible, bool):
                return f"oracle column at ({s}, {t}) is {compatible!r}, not a verdict"
            excess = ellipse_excess(s, t)
            if abs(excess) > VERDICT_BAND and inside != (excess < 0.0):
                return f"criterion column at ({s}, {t}) is {inside}, excess {excess:.3e}"
            if s + t <= 1.0 + 1e-12 and not compatible:
                return f"({s}, {t}) with s + t <= 1 reported incompatible"
            if compatible and excess > VERDICT_BAND:
                return f"({s}, {t}) reported compatible outside the criterion region"
        points = dataset["meta"]["boundary_points"]
        for axis in ("axis_s", "axis_t"):
            if points[axis] < 1.0 - BISECT_TOL:
                return f"{axis} boundary {points[axis]:.6f}, exact 1"
        diagonal = points["diagonal_coordinate"]
        outer = 1.0 / math.sqrt(1.0 + max(beta_b, beta_c))
        if not 0.5 - BISECT_TOL <= diagonal <= outer + OUTER_BOUND_SLACK:
            return f"diagonal boundary {diagonal:.6f} outside [0.5, {outer:.6f}]"
        return None

    return check


def figure1_cli(tmpdir):
    """`qincompat figure fig1 --oracle` on Schur spec files written to tmpdir."""
    numbers = itertools.count()

    def factory(q, rng, count):
        out = []
        for _ in range(count):
            stem = tmpdir / f"fig1-{next(numbers)}"
            b, c = random_correlation(rng, 2), random_correlation(rng, 2)
            specs = {"B": _pairs(b), "C": _pairs(c)}
            paths = {}
            for key, matrix in specs.items():
                paths[key] = f"{stem}-{key}.json"
                with open(paths[key], "w", encoding="utf-8") as fh:
                    json.dump({"B": matrix}, fh)
            output = f"{stem}-out.json"
            argv = ["figure", "fig1", "--oracle", "--B", paths["B"], "--C", paths["C"],
                    "--resolution", str(FIG1_RESOLUTION), "--output", output]

            def run(argv=argv):
                # the command reports its own soundness check on stderr
                with contextlib.redirect_stderr(io.StringIO()):
                    return q.cli.main(argv)

            check = functools.partial(_fig1_check(b, c), output=output)
            out.append(Task("fig1-cli", "fig1 d=2", specs, run, check))
        return out

    return factory


def region_workload(tmpdir) -> Workload:
    # four fig1 tasks per round keep the tail percentile inside their class,
    # and the median among the oracle rays
    mix = [
        (3, dep_ray(2, True)),
        (1, schur_ray(2)),
        (1, random_ray(2)),
        (2, dep_ray(3, False)),
        (4, figure1_cli(tmpdir)),
        (2, qubit_mub_povms),
    ]
    return Workload(mix, 8.5)


# name -> constructor(tmpdir); tmpdir takes the files a workload writes
WORKLOADS = {
    "criterion": lambda tmpdir: criterion_workload(),
    "region": region_workload,
}
