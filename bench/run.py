#!/usr/bin/env python3
"""Outside-in benchmark of qincompat: seeded workloads of checked tasks.

    python3 bench/run.py --workload criterion --seed 1 --seconds 36 --trace 0

Run from a source checkout; the package is imported from ``src/``.  The
workload runs in a fresh worker process, a closed loop of one task at a
time, with one OpenBLAS thread (BLAS_THREADS).  The worker sets up
(import, input generation, one untimed warm-up task per size class), then
runs round(seconds / round_s) whole rounds of the workload's fixed task
mix, which take about ``--seconds`` on a 2-core host, checking every
output against a reference.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
``setup_s`` is the median over the worker and SETUP_PROBES extra fresh
processes of the time from process start to the first timed task.  With
``--trace 1`` every task runs twice, once plain and once with spans around
the library's functions (order alternating), and the last line holds the
per-layer metrics; the spans go to ``.bench_out/``.  The line before the
last is a record with the run's metadata, tail percentile, failures and
task counts per size class.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("criterion", "region")
SETUP_PROBES = 4
# Small solves (d <= 4 criterion, qubit oracle) vary by up to 50% from run to
# run with two OpenBLAS threads on two shared cores and by about 5% with one.
BLAS_THREADS = 1
# the whole command has to end within 180 s
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10
MAX_RUN_FACTOR = 2.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def execute(task):
    """Run one task; return its latency and None or the reason it failed."""
    start = time.perf_counter()
    try:
        out = task.run()
    except Exception as exc:  # a raising task is a failed task, not a crash
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, task.check(out)
    except Exception as exc:
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def blas_info(np):
    info = {"library": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    libs_dir = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_lines():
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "qincompat").rglob("*.py"))
    )


def worker(args, probe):
    sys.path.insert(0, str(SRC))
    import numpy as np
    import qincompat as q
    import qincompat.cli  # noqa: F401  (tasks call q.cli.main)

    if not Path(q.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported qincompat from {q.__file__}, not from {SRC}")
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](tmpdir)
        for task in workload.warmup_tasks(q, args.seed):
            execute(task)
        print("ready", flush=True)
        if not probe:
            result = timed_run(args, q, workload, tracing)
            result["record"].update(
                git_commit=git_commit(),
                nproc=os.cpu_count(),
                blas=blas_info(np),
                python=sys.version.split()[0],
                numpy=np.__version__,
                src_qincompat_lines=src_lines(),
            )
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def timed_run(args, q, workload, tracing):
    tracer = tracing.Tracer() if args.trace else None
    latencies, failures = [], []
    per_class = defaultdict(list)  # plain latencies by size class
    task_s = {False: 0.0, True: 0.0}  # by traced
    attempted = rounds = 0
    # A fixed number of rounds, so every run of a workload executes the same
    # mix and count of tasks and the median and tail fall on the same ranks;
    # the time cap only guards the command's overall limit on a slow host.
    target = max(1, round(args.seconds / workload.round_s))
    start = time.perf_counter()
    while rounds < target and (
            rounds == 0 or time.perf_counter() - start < MAX_RUN_FACTOR * args.seconds):
        for k, task in enumerate(workload.round_tasks(q, args.seed, rounds)):
            # traced runs execute every task plain and traced, order alternating
            modes = (False,) if tracer is None else ((False, True), (True, False))[k % 2]
            for traced in modes:
                if traced:
                    tracer.task = f"{rounds}.{k}"
                    tracer.install()
                try:
                    elapsed, reason = execute(task)
                finally:
                    if traced:
                        tracer.uninstall()
                attempted += 1
                task_s[traced] += elapsed
                if not traced:
                    latencies.append(elapsed)
                    per_class[task.size_class].append(elapsed)
                if reason is not None:
                    failures.append({
                        "seed": args.seed, "round": rounds, "kind": task.kind,
                        "traced": traced, "params": task.params, "reason": reason,
                    })
        rounds += 1
    elapsed = time.perf_counter() - start

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "elapsed_s": elapsed,
        "tasks_per_size_class": {k: len(v) for k, v in sorted(per_class.items())},
        "p50_ms_per_size_class": {
            k: 1000.0 * statistics.median(v) for k, v in sorted(per_class.items())},
        "failed_frac": len(failures) / attempted, "failures": failures,
    }
    if tracer is None:
        tail_s, pct, beyond = tail(latencies)
        record["tail"] = {"percentile": pct, "samples": len(latencies),
                          "beyond": beyond}
        metrics = {
            "tasks_per_s": len(latencies) / sum(latencies),
            "task_p50_ms": 1000.0 * statistics.median(latencies),
            "task_tail_ms": 1000.0 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["task_s_per_round"] = {"plain": task_s[False] / rounds,
                                      "traced": task_s[True] / rounds}
        record["absent"] = tracer.absent
        metrics = tracing.layer_metrics(
            tracer.spans, rounds, task_s[False], task_s[True], tracer.absent)
    return {"attempted": attempted, "failed": len(failures),
            "metrics": metrics, "record": record}


# ---------------------------------------------------------------------------
# parent process
# ---------------------------------------------------------------------------

def spawn(role, args, deadline):
    """Run a worker or probe; return its set-up time and the rest of its output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise SystemExit(f"error: {role} process exited with code {code}")
    return setup_s, rest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "worker", "probe"),
                        default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.role != "main":
        worker(args, probe=args.role == "probe")
        return 0
    if not (SRC / "qincompat" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source under {SRC}\n")
        return 1

    deadline = time.monotonic() + RUN_LIMIT_S
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup_samples.append(spawn("probe", args, deadline)[0])
    setup_s, output = spawn("worker", args, deadline)
    setup_samples.append(setup_s)
    result = json.loads(output.strip().splitlines()[-1])

    metrics = result["metrics"]
    if args.trace:
        import tracing

        units = tracing.PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
        metrics["setup_s"] = statistics.median(setup_samples)
        result["record"]["setup_samples_s"] = setup_samples
    print(json.dumps({"record": result["record"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
