#!/usr/bin/env python3
"""A/B the benchmark between two checkouts, as alternating pairs.

    scripts/perf_ab.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...]
                       [--pairs N] [--first-seed S] [--seconds T]

Pair *k* runs ``perfbench/run.py run --workload W --seed S+k-1`` once in
each checkout, each in its own process from that checkout's root; odd
pairs run the parent first, even pairs the change.  The metric list,
their directions and bounds and the run length come from the change's
``BENCHMARK.json``; this script reads the benchmark and changes nothing.

Prints two Markdown tables per invocation: every run, and per workload
and end-to-end metric both medians, the change/parent ratio, the parent's
interquartile distance, pairs better / worse / tied and a verdict:

``better``        the change wins at least nine tenths of the pairs and
                  the medians differ by more than the parent's
                  interquartile distance (the rule a claimed gain must meet);
``worse``         the change's median is worse than the parent's by more
                  than the metric's bound;
``within bound``  anything else.

Exit code 1 if any run failed (non-zero exit, ``failed`` > 0 or not
``correct``), else 0.  ``--pairs`` below 2 is refused with exit code 2
before any run: no pair leaves nothing to summarise, and one leaves no
interquartile distance to judge the medians by.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

# the benchmark's own quartile definition, so this table and ``report`` agree
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.stats import quartiles  # noqa: E402


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run`` process in *checkout*; its result object, plus ``ok``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "run", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"perf_ab: no result from {checkout} ({workload}, seed {seed}):\n"
                 f"{proc.stderr}")
    result["ok"] = (proc.returncode == 0 and result["correct"]
                    and result["failed"] == 0)
    return result


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> tuple[str, str]:
    """(summary row cells after the metric name, verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    losses = sum(sign * c > sign * p for p, c in zip(parent, change))
    ties = len(parent) - wins - losses
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1:
        verdict = "better"
    elif sign * (cm - pm) / pm > bound:
        verdict = "worse"
    else:
        verdict = "within bound"
    cells = (f"{pm:.4g} ({p1:.4g}-{p3:.4g}) | {cm:.4g} ({c1:.4g}-{c3:.4g}) | "
             f"x{cm / pm:.3f} | {p3 - p1:.4g} | {wins} / {losses} / {ties} | "
             f"{bound:.0%}")
    return cells, verdict


def pair_count(text: str) -> int:
    """``--pairs``' type: at least two, the fewest with a spread."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    """Parse the command line, run the pairs, print both tables."""
    parser = argparse.ArgumentParser(
        prog="scripts/perf_ab.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=pair_count, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: the benchmark's)")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    all_ok = True
    names = [m["name"] for m in metrics]
    print("| workload | seed | first | "
          + " | ".join(f"{n} parent | {n} change" for n in names) + " |")
    print("|---" * (3 + 2 * len(names)) + "|")
    summary: list[str] = []
    for workload in args.workload:
        values: dict[str, dict[str, list[float]]] = {
            side: {n: [] for n in names} for side in sides}
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], workload, seed, seconds)
                all_ok = all_ok and result["ok"]
                for n in names:
                    values[side][n].append(result["metrics"][n]["value"])
            print(f"| `{workload}` | {seed} | {order[0]} | " + " | ".join(
                f"{values['parent'][n][-1]:.4f} | {values['change'][n][-1]:.4f}"
                for n in names) + " |", flush=True)
        for m in metrics:
            cells, verdict = judge(values["parent"][m["name"]],
                                   values["change"][m["name"]],
                                   m["better"], m["bound"])
            summary.append(f"| `{workload}` | `{m['name']}` | {cells} | {verdict} |")

    print("\n| workload | metric | parent median (quartiles) | change median "
          "(quartiles) | change / parent | parent IQR | pairs better / worse / "
          "tied | bound | verdict |")
    print("|---" * 9 + "|")
    print("\n".join(summary))
    if not all_ok:
        print("perf_ab: at least one run failed its output checks", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
