"""Record solver results and workload outputs, to compare two trees of the library.

As a pytest plugin it records every ``sdp.solve_domination`` and
``sdp._max_affine_min_eig`` call of a test run, keyed by the test's node id
and the call's index in it::

    PARITY_OUT=a.pkl PYTHONPATH=src:tests python -m pytest -q -p parity --hypothesis-seed=0

As a script it records the output of every benchmark task of seeds
``SEEDS``, rounds ``0 .. ROUNDS - 1``, or compares two recordings::

    PYTHONPATH=src python tests/parity.py record b.pkl
    python tests/parity.py compare a.pkl b.pkl

Run both from the root of each tree, with a copy of this file in a tree
that lacks it.  The comparison counts the records present in both and
those that are bit-identical; for the rest it reports whether status and
step count agree and the largest difference of a float entry relative to
max(1, |x|).
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import enum
import functools
import os
import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = (1, 2, 3)
ROUNDS = 4


def canon(obj):
    """``obj`` as nested tuples of plain values and arrays, comparable with ``same``."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            (f.name, canon(getattr(obj, f.name))) for f in dataclasses.fields(obj))
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return tuple(canon(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, canon(v)) for k, v in obj.items()))
    if isinstance(obj, np.ndarray):
        return np.array(obj)
    return obj


def same(a, b) -> bool:
    """Bit-identical: equal structure, equal scalars, arrays of equal dtype, shape and bytes."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def drift(a, b) -> float:
    """Largest |x - y| / max(1, |x|) over the float entries of two records of one structure."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.shape == b.shape:
        if a.size == 0 or not np.issubdtype(a.dtype, np.inexact):
            return 0.0 if np.array_equal(a, b) else float("inf")
        return float((np.abs(a - b) / np.maximum(1.0, np.abs(a))).max())
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        return max((drift(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (np.isnan(a) and np.isnan(b)):
            return 0.0
        return abs(a - b) / max(1.0, abs(a))
    return 0.0 if a == b else float("inf")


def _steps(record):
    """(status, Newton steps) of a recorded solver result, None for other records.

    An oracle record is ``(FeasibilityResult, z)``; its result is read.
    """
    head = record[:1] if isinstance(record, tuple) else ()
    if head and isinstance(head[0], tuple) and head[0][:1] == ("FeasibilityResult",):
        record = head[0]
    fields = dict(record[1:]) if isinstance(record, tuple) and record[:1] in (
        ("SdpResult",), ("FeasibilityResult",)) else None
    return None if fields is None else (fields["status"], fields["iterations"])


# ---------------------------------------------------------------------------
# pytest plugin
# ---------------------------------------------------------------------------

_RECORDS = {}
_CALLS = collections.Counter()
_TEST = [None]


def _recorded(kind, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        key = (_TEST[0], kind, _CALLS[_TEST[0], kind])
        _CALLS[_TEST[0], kind] += 1
        _RECORDS[key] = canon(out)
        return out
    return wrapper


def pytest_configure(config):
    if "PARITY_OUT" not in os.environ:
        return
    import qincompat
    from qincompat import criteria, region, sdp

    solve = _recorded("solve_domination", sdp.solve_domination)
    for module in (qincompat, sdp, criteria, region):
        module.solve_domination = solve
    sdp._max_affine_min_eig = _recorded("_max_affine_min_eig", sdp._max_affine_min_eig)


def pytest_runtest_setup(item):
    _TEST[0] = item.nodeid


def pytest_unconfigure(config):
    if "PARITY_OUT" in os.environ:
        with open(os.environ["PARITY_OUT"], "wb") as fh:
            pickle.dump(_RECORDS, fh)


# ---------------------------------------------------------------------------
# script
# ---------------------------------------------------------------------------

def record_workloads() -> dict:
    """Output of every task of both benchmark workloads, keyed (workload, seed, round, k)."""
    import qincompat as q
    import qincompat.cli  # noqa: F401  (tasks call q.cli.main)

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in sorted(workloads.WORKLOADS.items()):
            workload = make(Path(tmp))
            for seed in SEEDS:
                for index in range(ROUNDS):
                    for k, task in enumerate(workload.round_tasks(q, seed, index)):
                        out = task.run()
                        written = getattr(task.check, "keywords", {}).get("output")
                        if written is not None:
                            out = (out, Path(written).read_text(encoding="utf-8"))
                        records[name, seed, index, k, task.kind] = canon(out)
    return records


def compare(parent: dict, change: dict) -> int:
    """Print the comparison of two recordings; 1 when a common record differs beyond 1e-15."""
    common = sorted(set(parent) & set(change), key=repr)
    print(f"{len(parent)} and {len(change)} records, {len(common)} in both")
    identical, worst, moved = 0, 0.0, []
    for key in common:
        if same(parent[key], change[key]):
            identical += 1
            continue
        size = drift(parent[key], change[key])
        worst = max(worst, size)
        if _steps(parent[key]) != _steps(change[key]) or not size <= 1e-15:
            moved.append((key, _steps(parent[key]), _steps(change[key]), size))
    print(f"{identical} bit-identical, largest relative drift of the rest {worst:.3g}")
    for key, before, after, size in moved:
        print(f"MOVED {key}: status and steps {before} -> {after}, drift {size:.3g}")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("out")
    cmp = sub.add_parser("compare")
    cmp.add_argument("parent")
    cmp.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "record":
        with open(args.out, "wb") as fh:
            pickle.dump(record_workloads(), fh)
        return 0
    with open(args.parent, "rb") as a, open(args.change, "rb") as b:
        return compare(pickle.load(a), pickle.load(b))


if __name__ == "__main__":
    sys.exit(main())
