#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics on unchanged code.

    python3 bench/steadiness.py --runs 10 [--sets 2]

Runs the command in BENCHMARK.json ``--runs`` times on every workload it
lists, with seeds 1 .. runs and tracing off.  For every end-to-end metric
it prints the median and the spread, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.  A spread is "ok" below a third of
the bound, "WITHIN BOUND" up to the bound and "TOO WIDE" above it.  With
``--sets 2`` the runs are repeated with the same seeds, and the drift of
each median from the first set to the second (positive: worse) is checked
against the bound as well.  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
        sys.stderr.write(f"{workload} seed {seed}: failures {record['failures']}\n")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, before, after):
    """Share by which ``after`` is worse than ``before`` (negative: better)."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def status(values, bound):
    if all(x < bound / 3 for x in values):
        return "ok"
    return "WITHIN BOUND" if all(x <= bound for x in values) else "TOO WIDE"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        failed = attempted = 0
        for _ in range(args.sets):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in range(1, args.runs + 1):
                result = run_once(spec, workload, seed)
                failed += result["failed"]
                attempted += result["attempted"]
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        print(f"{workload}: {args.runs} runs x {args.sets} set(s), "
              f"{failed} of {attempted} tasks failed")
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = {
                "median": [statistics.median(s[name]) for s in sets],
                "spread": [spread(s[name]) for s in sets],
                "bound": bound,
                "values": [s[name] for s in sets],
            }
            line = (f"  {name:14s} median {row['median'][-1]:12.4f} {metric['unit']:4s}"
                    f" spread {', '.join(f'{x:.3f}' for x in row['spread'])}"
                    f" {status(row['spread'], bound)}")
            if args.sets == 2:
                row["drift"] = worse_by(metric, row["median"][0], row["median"][1])
                line += f"  drift {row['drift']:+.3f} {status([row['drift']], bound)}"
            print(f"{line}  (bound {bound:.3f})")
            rows[name] = row
        summary[workload] = rows
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
