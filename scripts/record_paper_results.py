#!/usr/bin/env python
"""Incrementally record paper-profile measurements to JSON.

Every (protocol, n, rep) cell is an engine :class:`PointSpec`, memoized
in the on-disk point cache under ``results/cache/``; rerunning the
script resumes where it stopped (useful under wall-clock limits) and
``--jobs`` fans the points of one node-count group across cores.
``--budget`` bounds one invocation's runtime.

The completed sweeps are serialized to ``results/paper_results.json``
via :meth:`SweepResult.to_json` (format 2, the only format
``summarize_paper_results.py`` reads).  The recorded numbers feed
EXPERIMENTS.md's paper-vs-measured tables.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.experiments.engine import Engine, PointSpec
from repro.experiments.profiles import PAPER
from repro.metrics.collector import SweepResult

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results" / "paper_results.json"
CACHE_DIR = ROOT / "results" / "cache"

Y_LABELS = {"latency": "consensus latency (s)", "traffic": "communication cost (KB)"}


def _specs(kind: str, protocol: str, n: int, reps: int) -> list[PointSpec]:
    """The engine specs of one (kind, protocol, n) cell group."""
    if kind == "traffic":
        extra = {"max_endorsers": PAPER.max_endorsers} if protocol == "gpbft" else {}
        return [PointSpec.make(protocol, "traffic", n, 0, **extra)]
    return [
        PointSpec.make(protocol, "latency", n, 1000 * n + rep,
                       **PAPER.latency_point_kwargs(protocol))
        for rep in range(reps)
    ]


def save(sweeps: dict[str, dict[str, SweepResult]]) -> None:
    """Serialize the completed sweeps (format 2, SweepResult.to_json)."""
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        kind: {protocol: sweep.to_json()
               for protocol, sweep in by_protocol.items()}
        for kind, by_protocol in sweeps.items()
    }
    payload["format"] = 2
    payload["profile"] = PAPER.name
    RESULTS.write_text(json.dumps(payload, indent=1, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--budget", type=float, default=520.0,
                        help="seconds of wall clock for this invocation")
    parser.add_argument("--reps", type=int, default=3,
                        help="latency repetitions per node count")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes per node-count group")
    args = parser.parse_args()

    engine = Engine(jobs=args.jobs, cache_dir=CACHE_DIR)

    deadline = time.perf_counter() + args.budget
    sweeps: dict[str, dict[str, SweepResult]] = {
        kind: {
            protocol: SweepResult(
                name="PBFT" if protocol == "pbft" else "G-PBFT",
                x_label="number of nodes", y_label=Y_LABELS[kind])
            for protocol in ("pbft", "gpbft")
        }
        for kind in ("latency", "traffic")
    }

    # group per (kind, protocol, n): traffic first (cheap), then latency
    # with the cheap protocol first; --jobs parallelizes within a group.
    groups = [("traffic", protocol, n)
              for protocol in ("pbft", "gpbft")
              for n in PAPER.traffic_node_counts]
    groups += [("latency", protocol, n)
               for protocol in ("gpbft", "pbft")
               for n in PAPER.latency_node_counts]

    def record(kind: str, protocol: str, n: int, specs, cached: bool) -> None:
        started = time.perf_counter()
        values = engine.map(specs)
        samples: list[float] = []
        for value in values:
            samples.extend(value if isinstance(value, list) else [value])
        sweeps[kind][protocol].merge_point(n, samples)
        save(sweeps)
        unit = "s" if kind == "latency" else "KB"
        mean = sum(samples) / len(samples)
        source = "cache" if cached else f"{time.perf_counter() - started:.0f}s wall"
        print(f"{kind} {protocol}:{n}: mean {mean:.2f}{unit} ({source})",
              flush=True)

    # merge every fully-cached group first, so a budget-exhausted run
    # still writes out everything recorded by earlier invocations
    pending = []
    for kind, protocol, n in groups:
        specs = _specs(kind, protocol, n, args.reps)
        if all(engine._cache_read(s) is not None for s in specs):
            record(kind, protocol, n, specs, cached=True)
        else:
            pending.append((kind, protocol, n, specs))

    for kind, protocol, n, specs in pending:
        if time.perf_counter() > deadline:
            print(f"budget exhausted ({kind} {protocol}:{n})")
            return 1
        record(kind, protocol, n, specs, cached=False)

    print("complete")
    print(engine.summary())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
