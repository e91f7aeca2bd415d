#!/usr/bin/env python
"""Summarize results/paper_results.json into EXPERIMENTS.md-ready tables.

Reads the format-2 file written by ``record_paper_results.py`` (sweeps
serialized via :meth:`SweepResult.to_json`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.metrics.collector import SweepResult
from repro.metrics.latency import BoxplotStats

RESULTS = Path(__file__).resolve().parent.parent / "results" / "paper_results.json"


def load_sweeps() -> dict[str, dict[str, SweepResult]]:
    """The recorded sweeps, as ``{kind: {protocol: SweepResult}}``."""
    data = json.loads(RESULTS.read_text())
    if data.get("format") != 2:
        raise SystemExit(
            f"{RESULTS} is a legacy format-1 file; rerun "
            "scripts/record_paper_results.py to record it afresh"
        )
    return {
        kind: {protocol: SweepResult.from_json(sweep)
               for protocol, sweep in data[kind].items()}
        for kind in ("latency", "traffic")
    }


def main() -> None:
    """Print the latency/traffic markdown tables plus the headline row."""
    sweeps = load_sweeps()
    latency, traffic = sweeps["latency"], sweeps["traffic"]

    # -- latency table ----------------------------------------------------
    ns = sorted({p.x for sweep in latency.values() for p in sweep.points})
    print("| n | PBFT mean (s) | PBFT min-max | G-PBFT mean (s) | G-PBFT min-max |")
    print("|---|---|---|---|---|")
    for n in ns:
        row = [f"{n:.0f}"]
        for protocol in ("pbft", "gpbft"):
            point = next((p for p in latency[protocol].points if p.x == n), None)
            if point is not None:
                stats = BoxplotStats.from_samples(point.samples)
                row.append(f"{stats.mean:.2f}")
                row.append(f"{stats.minimum:.2f}-{stats.maximum:.2f}")
            else:
                row.extend(["-", "-"])
        print("| " + " | ".join(row) + " |")

    # -- traffic table ------------------------------------------------------
    print()
    print("| n | PBFT (KB) | G-PBFT (KB) | ratio |")
    print("|---|---|---|---|")
    for n in sorted({p.x for sweep in traffic.values() for p in sweep.points}):
        try:
            pbft, gpbft = traffic["pbft"].mean_at(n), traffic["gpbft"].mean_at(n)
        except Exception:
            continue
        print(f"| {n:.0f} | {pbft:.1f} | {gpbft:.1f} | {gpbft / pbft:.2%} |")

    # -- headline -------------------------------------------------------------
    if not ns:
        return
    n = max(ns)
    try:
        pm, gm = latency["pbft"].mean_at(n), latency["gpbft"].mean_at(n)
        pk, gk = traffic["pbft"].mean_at(n), traffic["gpbft"].mean_at(n)
    except Exception:
        return
    print(f"\nheadline n={n:.0f}:")
    print(f"  latency: PBFT {pm:.2f}s vs G-PBFT {gm:.2f}s "
          f"(ratio {gm / pm:.2%}; paper 251.47 / 5.64 = 2.24%)")
    print(f"  traffic: PBFT {pk:.1f}KB vs G-PBFT {gk:.1f}KB "
          f"(ratio {gk / pk:.2%}; paper 8571.32 / 380.29 = 4.43%)")


if __name__ == "__main__":
    main()
