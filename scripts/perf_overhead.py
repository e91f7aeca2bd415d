#!/usr/bin/env python3
"""Measure what a workload's variant costs as the median of alternating pairs.

    scripts/perf_overhead.py WORKLOAD [--pairs N] [--seed S]

Two ``perfbench`` workloads carry a variant that turns a feature on
without changing the simulation: ``gpbft_city_12z`` runs with
observability on (``obs.on_overhead_ratio``) and ``failover_n16`` with
every invariant monitor on (``verify.on_overhead_ratio``).  The
benchmark divides one variant round by one plain round, so its ratio
moves with whatever the host did during those two rounds.  This script
runs, in one process, one untimed warm-up round per side and then
*N* pairs (default 7), each a plain round ``cls(seed)`` and a variant
round ``cls(seed, variant)``, alternating which side goes first.  A
round is timed as the benchmark times ``wall_s``: its ``run`` call,
after a ``gc.collect()``, construction excluded.  It prints each pair,
then the median of the per-pair ratios (variant over plain) and their
quartiles.

Exit codes: 0 measured; 1 when any round's ``outcome().digest`` differs
from the first plain round's (the variant simulated something else);
2 for a workload with no variant or ``--pairs`` below 3, before any
round runs.  ``perfbench/`` is imported read-only from this checkout.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)


def time_round(cls, seed: int, variant: str) -> tuple[float, str]:
    """One round of *cls* in *variant*: (seconds in ``run``, sim digest)."""
    workload = cls(seed, variant)
    gc.collect()
    t0 = time.perf_counter()
    workload.run()
    wall_s = time.perf_counter() - t0
    return wall_s, workload.outcome().digest


def pair_count(text: str) -> int:
    """``--pairs``' type: at least three, the fewest with quartiles."""
    value = int(text)
    if value < 3:
        raise argparse.ArgumentTypeError(f"must be at least 3, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    """Parse the command line, run the pairs, print the ratio."""
    from perfbench.workloads import BY_NAME

    parser = argparse.ArgumentParser(
        prog="scripts/perf_overhead.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(BY_NAME))
    parser.add_argument("--pairs", type=pair_count, default=7, metavar="N")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    cls = BY_NAME[args.workload]
    if cls.extra_variant is None:
        with_variant = sorted(n for n, c in BY_NAME.items() if c.extra_variant)
        parser.error(f"{args.workload} has no variant "
                     f"(workloads with one: {', '.join(with_variant)})")
    metric, variant = cls.extra_variant

    _, reference = time_round(cls, args.seed, "plain")
    digests = [reference, time_round(cls, args.seed, variant)[1]]
    ratios = []
    print(f"workload {args.workload}  seed {args.seed}  variant {variant}  "
          f"({metric})")
    for index in range(args.pairs):
        order = ("plain", variant) if index % 2 == 0 else (variant, "plain")
        seconds = {}
        for side in order:
            seconds[side], digest = time_round(cls, args.seed, side)
            digests.append(digest)
        ratios.append(seconds[variant] / seconds["plain"])
        print(f"pair {index + 1:2d}  {order[0]:>8} first  plain {seconds['plain']:.4f} s  "
              f"{variant} {seconds[variant]:.4f} s  ratio {ratios[-1]:.3f}")
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"{metric}: median {median:.3f}  "
          f"quartiles {q1:.3f} .. {q3:.3f}  over {args.pairs} pairs")
    if any(digest != reference for digest in digests):
        print("perf_overhead: the rounds simulated different things "
              "(sim_digest differs)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
