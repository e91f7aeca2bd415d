#!/usr/bin/env python3
"""Command line of the benchmark.

``run``      one workload, one process, for ``--seconds``; the last line
             of standard output is the result object the driver reads.
``report``   every workload: K fresh processes of ``run`` one after the
             other, plus a traced one; medians with quartiles, a table of
             every metric by name, and a report file.
``compare``  two report files: one row per workload and end-to-end
             metric with a verdict; exit 1 on any ``worse``.

Run from the repository root; ``src/`` is put on the path here, nothing
needs installing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _paths() -> None:
    """Make ``repro`` and ``perfbench`` importable from a bare checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: {ROOT / 'src' / 'repro'} is missing: the "
                 "benchmark measures that package and cannot run without it")
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _cmd_run(args: argparse.Namespace) -> int:
    from perfbench.measure import measure
    from perfbench.spec import END_TO_END, PER_LAYER

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    for name, value in result.metrics.items():
        print(f"{name:34s} {value:>18.6f} {units[name]}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "problems": result.problems,
            **result.detail}, indent=1))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0 if result.correct else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from perfbench.report import run_report

    return run_report(
        seed=args.seed, repeats=1 if args.quick else args.repeats,
        workloads=args.workload, seconds=0.0 if args.quick else args.seconds,
        trace=args.trace and not args.quick, out=Path(args.out))


def _cmd_compare(args: argparse.Namespace) -> int:
    from perfbench.compare import compare_files

    return compare_files(Path(args.base), Path(args.new))


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and dispatch."""
    _paths()
    from perfbench.spec import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure one workload in this process")
    run.add_argument("--workload", required=True, choices=list(WORKLOADS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", help="also write the full detail as JSON here")
    run.set_defaults(func=_cmd_run)

    report = sub.add_parser("report", help="all workloads, K processes each")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--repeats", type=int, default=3, metavar="K")
    report.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="only this workload (repeatable)")
    report.add_argument("--seconds", type=float, default=RUN_SECONDS)
    report.add_argument("--quick", action="store_true",
                        help="one process of one round each, no trace")
    report.add_argument("--trace", action=argparse.BooleanOptionalAction,
                        default=True)
    report.add_argument("--out", default="perfbench/out/report.json")
    report.set_defaults(func=_cmd_report)

    compare = sub.add_parser("compare", help="verdicts between two reports")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
