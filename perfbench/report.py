"""The full report: every workload, K fresh processes each, one at a time.

Noise handling: every repetition is a new interpreter (no warmed caches
or grown heaps carried over), repetitions never overlap (the box has two
cores and the simulator one thread), host-time metrics are reported as
median with quartiles over the K repetitions, and a repetition whose CPU
time fell below 90% of its wall time was descheduled and is re-run (at
most twice per workload, counted in ``discarded_runs``).

Simulated metrics are fixed by the seed, so they must be identical in
every repetition and in the traced one; a difference fails the report
and names the workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from perfbench.spec import DETERMINISTIC, END_TO_END, PER_LAYER, WORKLOADS
from perfbench.stats import quartiles

SCHEMA = "perfbench-report/1"

#: A repetition that got less CPU than this share of its wall time is
#: discarded and re-run.
MIN_CPU_OVER_WALL = 0.9
MAX_DISCARDED = 2

_RUN = Path(__file__).resolve().parent / "run.py"


def _spawn(name: str, seed: int, seconds: float, trace: bool,
           scratch: Path) -> dict[str, Any]:
    """One ``run`` in a fresh interpreter; its detail file, parsed."""
    scratch.parent.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(_RUN), "run", "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--out", str(scratch)]
    done = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
    if not scratch.is_file():
        raise RuntimeError(f"{name}: run exited {done.returncode} "
                           "without a result")
    detail = json.loads(scratch.read_text())
    scratch.unlink()
    return detail


def _one_workload(name: str, seed: int, repeats: int, seconds: float,
                  trace: bool, scratch: Path) -> dict[str, Any]:
    runs: list[dict[str, Any]] = []
    discarded = 0
    while len(runs) < repeats:
        detail = _spawn(name, seed, seconds, False, scratch)
        if (detail["cpu_over_wall"] < MIN_CPU_OVER_WALL
                and discarded < MAX_DISCARDED):
            discarded += 1
            continue
        runs.append(detail)
    every = runs + ([_spawn(name, seed, seconds, True, scratch)]
                    if trace else [])
    problems = [p for run in every for p in run["problems"]]
    reference = every[-1]
    for run in runs:
        if run["sim_digest"] != reference["sim_digest"]:
            problems.append("sim_digest differs between processes")
        for key in sorted(DETERMINISTIC):
            if reference["per_layer"][key] != run["per_layer"][key]:
                problems.append(f"{key} differs between processes")
    end_to_end = {}
    for metric in END_TO_END:
        values = [run["end_to_end"][metric.name] for run in runs]
        q1, median, q3 = quartiles(values)
        end_to_end[metric.name] = {
            "unit": metric.unit, "values": values,
            "q1": q1, "median": median, "q3": q3}
    return {
        "correct": not problems, "problems": sorted(set(problems)),
        "attempted": sum(run["attempted"] for run in every),
        "failed": sum(run["failed"] for run in every),
        "discarded_runs": discarded,
        "rounds": [run["rounds"] for run in runs],
        "sim_digest": reference["sim_digest"],
        "end_to_end": end_to_end,
        "per_layer": reference["per_layer"],
        "traced": trace,
    }


def _print_table(name: str, entry: dict[str, Any]) -> None:
    print(f"\n== {name}: {'ok' if entry['correct'] else 'FAILED'}, "
          f"{entry['failed']} of {entry['attempted']} failed, "
          f"sim_digest {entry['sim_digest'][:16]}")
    for metric, row in entry["end_to_end"].items():
        print(f"  {metric:32s} {row['median']:>16.6g} {row['unit']:8s} "
              f"[q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, "
              f"k={len(row['values'])}]")
    units = {m.name: m.unit for m in PER_LAYER}
    for metric, value in entry["per_layer"].items():
        print(f"  {metric:32s} {value:>16.6g} {units[metric]}")
    for problem in entry["problems"]:
        print(f"  problem: {problem}")


def run_report(seed: int, repeats: int, workloads: list[str] | None,
               seconds: float, trace: bool, out: Path) -> int:
    """Measure, print every metric by name, write *out*; 1 if a check failed."""
    started = time.perf_counter()
    report: dict[str, Any] = {
        "schema": SCHEMA, "seed": seed, "repeats": repeats,
        "run_seconds": seconds, "python": sys.version.split()[0],
        "workloads": {},
    }
    for name in workloads or list(WORKLOADS):
        entry = _one_workload(name, seed, repeats, seconds, trace,
                              out.with_suffix(".run.json"))
        report["workloads"][name] = entry
        _print_table(name, entry)
    report["elapsed_s"] = time.perf_counter() - started
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    failed = [n for n, e in report["workloads"].items() if not e["correct"]]
    print(f"\nwrote {out} ({report['elapsed_s']:.0f} s)"
          + (f"; checks FAILED on: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0
