"""Command-line interface.

Commands: check, assemblage, region, figure, validate.  Input channels and
POVMs are JSON specs (see ``channels.channel_from_spec``); reports are
JSON (``region`` and ``figure`` tables also CSV).  Tolerances and the
oracle budget are library constants, fixed per release (``--version``), so
reports do not repeat them.  Each command takes only the options it reads.
Exit codes for ``check``: 0 compatible-certified, 2 incompatible-certified,
3 undetermined, 1 usage or IO error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .assemblage import classify
from .channels import (
    ChannelValidationError,
    PovmValidationError,
    _matrix_from_pairs,
    channel_from_spec,
    povm_from_spec,
    shared_dimension,
)
from .criteria import (
    VerdictKind,
    oracle_verdict,
    select_bases,
    zhu_criterion_channels,
)
from .linalg import check_basis
from .region import (
    dataset_to_csv,
    emit_figure1_data,
    emit_figure2_data,
    ray_directions,
    region_report_to_dataset,
    scan_rays,
)
from .sdp import Feasibility, solve_joint_channel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCOMPATIBLE = 2
EXIT_UNDETERMINED = 3


class CliError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(
            f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc


def _load_channel(path: str):
    try:
        return channel_from_spec(_load_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad channel spec {path}: {exc}") from exc


def _load_schur(path: str):
    try:
        return _matrix_from_pairs(_load_json(path)["B"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad Schur spec {path}: {exc}") from exc


def _load_bases(arg: str, d: int, count: int):
    if arg == "auto":
        return select_bases(d, count)
    spec = _load_json(arg)
    try:
        bases = [check_basis(_matrix_from_pairs(rows)) for rows in spec["bases"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad bases spec {arg}: {exc}") from exc
    if len(bases) != count:
        raise CliError(f"bases spec {arg} holds {len(bases)} bases, need {count}")
    return bases, [f"user-{i}" for i in range(count)]


def _emit(args, payload) -> None:
    if getattr(args, "format", "json") == "csv":
        text = dataset_to_csv(payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verdict_dict(v) -> dict:
    return {
        "kind": v.kind.value,
        "value": v.value,
        "certificate": v.certificate,
    }


def _cmd_check(args) -> int:
    channels = [_load_channel(p) for p in args.specs]
    d = shared_dimension(channels)
    bases, labels = _load_bases(args.bases, d, len(channels))
    verdict = zhu_criterion_channels(channels, bases, basis_labels=labels)
    report = {
        "command": "check",
        "channels": [c.label for c in channels],
        "criterion": _verdict_dict(verdict),
    }
    code = (
        EXIT_INCOMPATIBLE
        if verdict.kind is VerdictKind.INCOMPATIBLE_CERTIFIED
        else EXIT_UNDETERMINED
    )
    if args.oracle:
        result = solve_joint_channel(channels)
        report["oracle"] = {
            "status": result.status.value,
            "lambda_star": result.lambda_star,
            "gap": result.gap,
            "iterations": result.iterations,
        }
        report["oracle_verdict"] = _verdict_dict(oracle_verdict(result))
        if result.status is Feasibility.FEASIBLE:
            if verdict.kind is VerdictKind.INCOMPATIBLE_CERTIFIED:
                raise CliError(
                    "criterion and oracle disagree; this indicates a bug, "
                    "please report the input specs"
                )
            code = EXIT_OK
        elif result.status is Feasibility.INFEASIBLE:
            code = EXIT_INCOMPATIBLE
    _emit(args, report)
    return code


def _cmd_assemblage(args) -> int:
    channels = [_load_channel(p) for p in args.specs]
    if not 1 <= args.k <= len(channels):
        raise CliError(f"k={args.k} out of range for {len(channels)} channels")
    report = classify(channels, args.k, use_oracle=args.oracle)
    payload = {
        "command": "assemblage",
        "n": report.n,
        "k": report.k,
        "labels": sorted(label.value for label in report.labels),
        "subsets": {
            ",".join(map(str, s)): _verdict_dict(v)
            for s, v in report.subset_verdicts.items()
        },
        "higher_subsets": {
            ",".join(map(str, s)): _verdict_dict(v)
            for s, v in report.higher_verdicts.items()
        },
        "undetermined_subsets": [
            ",".join(map(str, s)) for s in report.undetermined_subsets
        ],
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_region(args) -> int:
    if len(args.specs) != 2:
        raise CliError(
            f"region scans channel pairs: pass 2 specs, got {len(args.specs)}"
        )
    channels = [_load_channel(p) for p in args.specs]
    directions = ray_directions(len(channels), args.rays)
    report = scan_rays(channels, directions, use_oracle=args.oracle)
    dataset = region_report_to_dataset(report)
    _emit(args, dataset)
    ok = all(
        r.oracle_radius is None or r.oracle_radius <= r.criterion_radius + 1e-4
        for r in report.rays
    )
    sys.stderr.write(
        f"region: {len(report.rays)} rays, outer-bound check "
        f"{'passed' if ok else 'FAILED'}\n"
    )
    return EXIT_OK if ok else EXIT_USAGE


def _dimension(item: str) -> int:
    try:
        return int(item)
    except ValueError:
        raise CliError(f"figure fig2 --d takes integers, got {item!r}") from None


def _cmd_figure(args) -> int:
    if args.name == "fig2":
        ds = [_dimension(x) for x in args.d.split(",") if x]
        if not ds:
            raise CliError("figure fig2 needs at least one dimension in --d")
        dataset = emit_figure2_data(ds, args.resolution)
        check = all(row[2] <= row[3] + 1e-9 for row in dataset["rows"])
        label = "outer-bound"
    else:
        if not args.schur_b:
            raise CliError("figure fig1 needs --B pointing to a Schur matrix spec")
        b = _load_schur(args.schur_b)
        c = _load_schur(args.schur_c) if args.schur_c else b
        dataset = emit_figure1_data(b, c, args.resolution, use_oracle=args.oracle)
        check = all(
            (row[3] is None) or (not row[3]) or row[2]
            for row in dataset["rows"]
        )
        label = "soundness"
    _emit(args, dataset)
    sys.stderr.write(
        f"figure {args.name}: {len(dataset['rows'])} rows, {label} check "
        f"{'passed' if check else 'FAILED'}\n"
    )
    return EXIT_OK if check else EXIT_USAGE


def _cmd_validate(args) -> int:
    failures = []
    for path in args.specs:
        spec = _load_json(path)
        try:
            if isinstance(spec, dict) and spec.get("kind") == "povm":
                povm_from_spec(spec)
            else:
                channel_from_spec(spec)
        except (ChannelValidationError, PovmValidationError, ValueError,
                KeyError, TypeError) as exc:
            failures.append({"spec": path, "error": str(exc)})
    payload = {
        "command": "validate",
        "valid": not failures,
        "violations": failures,
    }
    _emit(args, payload)
    return EXIT_OK if not failures else EXIT_INCOMPATIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qincompat",
        description="decide and certify incompatibility of quantum channels",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_oracle(p):
        p.add_argument("--oracle", action="store_true",
                       help="also run the exact joint-channel oracle")

    def add_output(p, csv=False):
        p.add_argument("--output", help="write the report here instead of stdout")
        if csv:
            p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("check", help="criterion and oracle verdict for channels")
    p.add_argument("specs", nargs="+", help="channel spec JSON files")
    p.add_argument("--bases", default="auto",
                   help="'auto' or a bases JSON file")
    add_oracle(p)
    add_output(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("assemblage", help="classify K-subsets of a channel tuple")
    p.add_argument("specs", nargs="+")
    p.add_argument("--k", type=int, required=True, help="subset size")
    add_oracle(p)
    add_output(p)
    p.set_defaults(func=_cmd_assemblage)

    p = sub.add_parser("region", help="compatibility region boundaries along rays")
    p.add_argument("specs", nargs="+")
    p.add_argument("--rays", type=int, default=64)
    add_oracle(p)
    add_output(p, csv=True)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("figure", help="emit figure datasets")
    p.set_defaults(func=_cmd_figure)
    figures = p.add_subparsers(dest="name", required=True)
    f = figures.add_parser("fig1", help="criterion region of a Schur pair")
    f.add_argument("--B", dest="schur_b", help="Schur matrix spec JSON")
    f.add_argument("--C", dest="schur_c", help="second Schur matrix spec")
    f.add_argument("--resolution", type=int, default=200)
    add_oracle(f)
    add_output(f, csv=True)
    f = figures.add_parser("fig2", help="depolarizing-pair thresholds")
    f.add_argument("--d", default="2,5,20", help="comma-separated dimensions")
    f.add_argument("--resolution", type=int, default=200)
    add_output(f, csv=True)

    p = sub.add_parser("validate", help="run channel/POVM invariants on specs")
    p.add_argument("specs", nargs="+")
    add_output(p)
    p.set_defaults(func=_cmd_validate)

    return parser


# built on the first call and reused; parse_args keeps no state between calls
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 1
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, RuntimeError) as exc:
        # RuntimeError is solver trouble (a barrier start point outside the
        # cone, inconsistent marginals, an open oracle radius bracket):
        # report it, never a traceback
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
