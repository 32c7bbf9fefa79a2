"""Spans recorded around the library's public functions, and per-layer metrics.

The library's modules import functions by name (``from .sdp import
solve_domination``), so a wrapper has to replace the function at every
lookup site: every ``qincompat`` module attribute bound to it.  A span is
(name, start, end, parent, task, extra); spans are kept in memory and
written out when the run ends.  ``uninstall`` puts the original
functions back, so untraced executions run the unmodified library.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# (defining module, attribute, span name)
TARGETS = [
    ("qincompat.cli", "main", "cli.main"),
    ("qincompat.region", "scan_rays", "region.scan_rays"),
    ("qincompat.region", "emit_figure1_data", "region.figure1"),
    ("qincompat.criteria", "zhu_criterion_channels", "criteria.criterion"),
    ("qincompat.fisher", "g_matrix", "fisher.g_matrix"),
    ("qincompat.sdp", "solve_domination", "sdp.domination"),
    ("qincompat.sdp", "solve_joint_channel", "sdp.joint_channel"),
    ("qincompat.sdp", "solve_povm_joint", "sdp.povm_joint"),
    ("qincompat.channels", "validate_channel", "channels.validate"),
    # the oracle's Newton loop, a private stage: its time stays in the
    # calling solver's layer and the rest of that layer is the set-up
    ("qincompat.sdp", "_max_affine_min_eig", "sdp.oracle_newton"),
]
STAGE_SPANS = {"sdp.oracle_newton"}
DOMINATION_DIMS = (2, 3, 4, 5, 7, 11)

# per-layer metrics, in report order: name -> unit
PER_LAYER_UNITS = {
    "sdp.domination.calls": "count",
    "sdp.domination.self_s": "s",
    "sdp.domination.newton_steps": "count",
    "sdp.domination.ms_per_step": "ms",
    "sdp.domination.not_optimal": "count",
    **{f"sdp.domination.self_s.d{d}": "s" for d in DOMINATION_DIMS},
    "sdp.joint_channel.calls": "count",
    "sdp.joint_channel.self_s": "s",
    "sdp.joint_channel.newton_steps": "count",
    "sdp.joint_channel.ms_per_step": "ms",
    "sdp.joint_channel.marginal": "count",
    "sdp.joint_channel.setup_s": "s",
    "sdp.joint_channel.newton_s": "s",
    "sdp.povm_joint.calls": "count",
    "sdp.povm_joint.self_s": "s",
    "sdp.povm_joint.newton_steps": "count",
    "region.solves_per_radius": "ratio",
    "region.scan_rays.self_s": "s",
    "region.figure1.self_s": "s",
    "fisher.g_matrix.calls": "count",
    "fisher.g_matrix.self_s": "s",
    "channels.validate.calls": "count",
    "channels.validate.self_s": "s",
    "criteria.criterion.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


def _extra(name, args, kwargs, out):
    """Counters read from a call's arguments and result."""
    if name == "sdp.domination":
        problem = args[0] if args else kwargs["problem"]
        return {
            "d": math.isqrt(problem.dim),
            "steps": out.iterations,
            "optimal": out.status.value == "optimal",
        }
    if name in ("sdp.joint_channel", "sdp.povm_joint"):
        return {"steps": out.iterations, "status": out.status.value}
    if name == "region.scan_rays":
        return {"radii": sum(1 + (r.oracle_radius is not None) for r in out.rays)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, task, extra]
        self.task = None
        self._stack = []
        self._patches = []
        self.absent = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.task, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            rec[5] = _extra(name, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qincompat" or key.startswith("qincompat.")]
        self.absent = []
        for mod_name, attr, span in TARGETS:
            orig = getattr(sys.modules.get(mod_name), attr, None)
            if orig is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(orig, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches = []

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, task, extra) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "task": task, "extra": extra,
                }) + "\n")


def layer_metrics(spans, rounds, plain_task_s, traced_task_s, absent=()):
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Times and counts are per round of the workload's fixed mix.  A span's
    self time is its duration minus that of its child spans; the private
    oracle stage counts towards the solver that called it.
    """
    child_time = defaultdict(float)
    children = defaultdict(list)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
            if name not in STAGE_SPANS:
                child_time[parent] += end - start

    calls = defaultdict(int)
    self_s = defaultdict(float)
    steps = defaultdict(int)
    stage_s = defaultdict(float)
    counts = defaultdict(int)
    root_s = 0.0
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        dur = end - start
        if parent is None:
            root_s += dur
        if name in STAGE_SPANS:
            caller = spans[parent][0] if parent is not None else None
            stage_s[(caller, name)] += dur
            continue
        calls[name] += 1
        self_s[name] += dur - child_time[i]
        extra = extra or {}
        steps[name] += extra.get("steps", 0)
        if name == "sdp.domination":
            self_s[f"{name}.d{extra.get('d')}"] += dur - child_time[i]
            counts["not_optimal"] += not extra.get("optimal", False)
        elif name == "sdp.joint_channel":
            counts["marginal"] += extra.get("status") == "marginal"
        elif name == "region.scan_rays":
            counts["radii"] += extra.get("radii", 0)
            counts["ray_solves"] += _count_below(
                i, spans, children, {"sdp.domination", "sdp.joint_channel"})

    def per_round(x):
        return x / rounds

    def ms_per_step(name):
        return 1000.0 * self_s[name] / steps[name] if steps[name] else 0.0

    newton = stage_s[("sdp.joint_channel", "sdp.oracle_newton")]
    out = {
        "sdp.domination.calls": per_round(calls["sdp.domination"]),
        "sdp.domination.self_s": per_round(self_s["sdp.domination"]),
        "sdp.domination.newton_steps": per_round(steps["sdp.domination"]),
        "sdp.domination.ms_per_step": ms_per_step("sdp.domination"),
        "sdp.domination.not_optimal": per_round(counts["not_optimal"]),
        **{f"sdp.domination.self_s.d{d}": per_round(self_s[f"sdp.domination.d{d}"])
           for d in DOMINATION_DIMS},
        "sdp.joint_channel.calls": per_round(calls["sdp.joint_channel"]),
        "sdp.joint_channel.self_s": per_round(self_s["sdp.joint_channel"]),
        "sdp.joint_channel.newton_steps": per_round(steps["sdp.joint_channel"]),
        "sdp.joint_channel.ms_per_step": ms_per_step("sdp.joint_channel"),
        "sdp.joint_channel.marginal": per_round(counts["marginal"]),
        "sdp.joint_channel.setup_s": per_round(self_s["sdp.joint_channel"] - newton),
        "sdp.joint_channel.newton_s": per_round(newton),
        "sdp.povm_joint.calls": per_round(calls["sdp.povm_joint"]),
        "sdp.povm_joint.self_s": per_round(self_s["sdp.povm_joint"]),
        "sdp.povm_joint.newton_steps": per_round(steps["sdp.povm_joint"]),
        "region.solves_per_radius": (
            counts["ray_solves"] / counts["radii"] if counts["radii"] else 0.0),
        "region.scan_rays.self_s": per_round(self_s["region.scan_rays"]),
        "region.figure1.self_s": per_round(self_s["region.figure1"]),
        "fisher.g_matrix.calls": per_round(calls["fisher.g_matrix"]),
        "fisher.g_matrix.self_s": per_round(self_s["fisher.g_matrix"]),
        "channels.validate.calls": per_round(calls["channels.validate"]),
        "channels.validate.self_s": per_round(self_s["channels.validate"]),
        "criteria.criterion.self_s": per_round(self_s["criteria.criterion"]),
        "cli.main.calls": per_round(calls["cli.main"]),
        "cli.main.self_s": per_round(self_s["cli.main"]),
        "trace.overhead_frac": traced_task_s / plain_task_s - 1.0,
        "trace.unattributed_s": per_round(traced_task_s - root_s),
    }
    if "qincompat.sdp._max_affine_min_eig" in absent:
        # the set-up / Newton split needs the private stage functions
        del out["sdp.joint_channel.setup_s"], out["sdp.joint_channel.newton_s"]
    return out


def _count_below(i, spans, children, names):
    total, todo = 0, list(children[i])
    while todo:
        j = todo.pop()
        total += spans[j][0] in names
        todo.extend(children[j])
    return total
