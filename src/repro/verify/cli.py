"""``gpbft-experiments verify``: schedule exploration and artifact replay CLI.

Usage::

    gpbft-experiments verify                       # bounded exploration
    gpbft-experiments verify --protocol gpbft --n 8 --seeds 16 --jobs 4
    gpbft-experiments verify --fault 1:quorum_undercount
    gpbft-experiments verify --replay results/repro/violation-....json

Exit codes: ``0`` -- exploration clean / replay reproduced, ``1`` --
exploration found violations (artifacts written), ``2`` -- a bad
argument value (one ``error:`` line naming it) or a replay that did not
reproduce the artifact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.common.errors import ConfigurationError
from repro.experiments.cli import at_least
from repro.experiments.engine import Engine
from repro.verify.explorer import (
    DEFAULT_ARTIFACT_DIR,
    FAULT_REGISTRY,
    explore,
)
from repro.verify.replay import replay_artifact


def _fault(raw: str) -> tuple[int, str]:
    """argparse type for ``--fault``: ``NODE:NAME`` registry pairs."""
    node, sep, name = raw.partition(":")
    if not sep or name not in FAULT_REGISTRY:
        known = ", ".join(sorted(FAULT_REGISTRY))
        raise argparse.ArgumentTypeError(
            f"expected NODE:NAME with NAME one of {known}")
    try:
        return int(node), name
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad node id {node!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for ``repro verify``."""
    parser = argparse.ArgumentParser(
        prog="gpbft-experiments verify",
        description="Explore perturbed schedules under invariant "
                    "monitors, or replay a saved failing schedule.",
    )
    parser.add_argument("--replay", type=Path, default=None,
                        help="re-run a saved repro artifact and check it "
                             "still reproduces deterministically")
    parser.add_argument("--protocol", choices=("pbft", "gpbft"),
                        default="pbft", help="protocol to explore")
    parser.add_argument("--n", type=int, default=4,
                        help="committee / deployment size")
    parser.add_argument("--seeds", type=at_least(1), default=8,
                        help="number of seeded schedules to explore")
    parser.add_argument("--submissions", type=int, default=5,
                        help="transactions submitted per schedule")
    parser.add_argument("--horizon", type=float, default=90.0,
                        help="simulated seconds per schedule")
    parser.add_argument("--zones", type=int, default=1,
                        help="zones per schedule (gpbft only; > 1 explores "
                             "a hierarchical deployment of n/zones nodes "
                             "per zone)")
    parser.add_argument("--fault", type=_fault, action="append", default=[],
                        metavar="NODE:NAME",
                        help="plant a fault model (repeatable); names: "
                             + ", ".join(sorted(FAULT_REGISTRY)))
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the schedule fan-out")
    parser.add_argument("--out", type=Path, default=DEFAULT_ARTIFACT_DIR,
                        help="directory for failing-schedule artifacts")
    parser.add_argument("--shrink-budget", type=at_least(0), default=48,
                        help="max extra runs spent shrinking a failure")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run exploration or replay; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.replay is not None:
            result = replay_artifact(args.replay)
            print(result.summary())
            return 0 if result.reproduced else 2
        report = explore(
            protocol=args.protocol,
            n=args.n,
            seeds=range(args.seeds),
            submissions=args.submissions,
            horizon_s=args.horizon,
            faults=tuple(args.fault),
            engine=Engine(jobs=args.jobs, use_cache=False),
            out_dir=args.out,
            shrink_budget=args.shrink_budget,
            zones=args.zones,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.text())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
