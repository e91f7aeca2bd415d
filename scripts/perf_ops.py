#!/usr/bin/env python3
"""Count what one benchmark round costs the interpreter: a counter that repeats.

    scripts/perf_ops.py WORKLOAD [--seed N] [--top K] [--max-calls-per-msg X]

Builds one round of a ``perfbench`` workload (imported read-only from
this checkout), runs its timed ``run`` call under ``sys.settrace`` with
opcode events on, and prints Python-level calls and bytecode
instructions, both also per delivered message, the send operations
(calls of the network's ``send`` and ``multicast``) with the delivered
copies per operation, then the top *K* functions by instructions with
their calls and instructions per call.  A cost that is paid per
operation, not per copy, weighs most where an operation reaches few
copies: a small committee.
Before that it runs one plain round of the same seed and prints what the
cyclic garbage collector did during it: passes per generation and
seconds spent inside them.  Every object that outlives a young
generation -- a copy waiting in a backlogged inbox -- is scanned again,
and neither the bytecode counts nor the benchmark's per-layer times show
it (a pause is filed under whichever layer was allocating).

The counts depend on the code and the seed and on nothing else, so one
run per side is an exact A/B on a machine whose wall clock drifts: copy
this file into the other checkout's ``scripts/`` and run it there.  They
say nothing about time spent inside C (heap operations, hashing), which
is what ``scripts/perf_ab.py`` is for.  The collector's pass counts
repeat as long as nothing else in the process allocates differently;
its seconds are a clock reading and do not.  A traced round takes 30-60
times its plain wall time.

With ``--max-calls-per-msg`` the exit code is 1 when the round spent
more Python calls per delivered message than that (CI's hot-path guard).
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import CodeType, FrameType
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)


class OpCounter:
    """Per-code-object call and instruction counts of a traced region."""

    def __init__(self) -> None:
        self.calls: defaultdict[CodeType, int] = defaultdict(int)
        self.instructions: defaultdict[CodeType, int] = defaultdict(int)

    def _on_call(self, frame: FrameType, event: str, arg: Any) -> Any:
        self.calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return self._on_opcode

    def _on_opcode(self, frame: FrameType, event: str, arg: Any) -> Any:
        if event == "opcode":
            self.instructions[frame.f_code] += 1
        return self._on_opcode

    def run(self, fn: Any) -> None:
        """Call *fn()* with counting on; frames already running are not counted."""
        sys.settrace(self._on_call)
        try:
            fn()
        finally:
            sys.settrace(None)


def collector_line(fn: Any) -> str:
    """Call *fn()* untraced; report the collector's passes and seconds."""
    seconds = 0.0
    started = 0.0

    def on_gc(phase: str, info: dict[str, int]) -> None:
        nonlocal seconds, started
        if phase == "start":
            started = time.perf_counter()
        else:
            seconds += time.perf_counter() - started

    gc.collect()
    before = [gen["collections"] for gen in gc.get_stats()]
    gc.callbacks.append(on_gc)
    try:
        fn()
    finally:
        gc.callbacks.remove(on_gc)
    passes = [gen["collections"] - was for gen, was in zip(gc.get_stats(), before)]
    return (f"collector passes       gen0 {passes[0]}  gen1 {passes[1]}  "
            f"gen2 {passes[2]}  {seconds:.3f} s inside (plain round)")


def _name(code: CodeType) -> str:
    path = Path(code.co_filename)
    try:
        where = str(path.resolve().relative_to(ROOT))
    except ValueError:
        where = path.name
    return f"{where}:{code.co_qualname}"


def main(argv: list[str] | None = None) -> int:
    """Trace one round and print the counts."""
    from perfbench.workloads import BY_NAME
    from repro.net.network import SimulatedNetwork

    parser = argparse.ArgumentParser(
        prog="scripts/perf_ops.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=10, metavar="K")
    parser.add_argument("--max-calls-per-msg", type=float, default=None, metavar="X")
    args = parser.parse_args(argv)

    collector = collector_line(BY_NAME[args.workload](args.seed).run)
    workload = BY_NAME[args.workload](args.seed)
    counter = OpCounter()
    counter.run(workload.run)
    outcome = workload.outcome()

    calls = sum(counter.calls.values())
    instructions = sum(counter.instructions.values())
    msgs = outcome.msgs
    # a multicast that goes copy by copy (iid drops on, or a replaced
    # ``send``) adds its sends to this; no benchmark round does
    ops = sum(counter.calls[fn.__code__]
              for fn in (SimulatedNetwork.send, SimulatedNetwork.multicast))
    print(f"workload {args.workload}  seed {args.seed}  sim_digest {outcome.digest[:16]}")
    print(f"delivered messages     {msgs:>12d}")
    print(f"python calls           {calls:>12d}  {calls / msgs:8.2f} per message")
    print(f"bytecode instructions  {instructions:>12d}  {instructions / msgs:8.1f} per message")
    print(f"send operations        {ops:>12d}  {msgs / ops if ops else 0.0:8.2f} "
          f"delivered copies per operation")
    print(collector)
    print(f"\n| function | instructions | share | calls | per call |\n|---|---|---|---|---|")
    ranked = sorted(counter.instructions, key=lambda c: (-counter.instructions[c], _name(c)))
    for code in ranked[:args.top]:
        n, k = counter.instructions[code], counter.calls[code]
        print(f"| `{_name(code)}` | {n} | {n / instructions:.1%} | {k} | "
              f"{n / k if k else 0.0:.1f} |")
    if outcome.problems:
        print("perf_ops: the round failed its output checks: "
              + "; ".join(outcome.problems), file=sys.stderr)
        return 1
    if args.max_calls_per_msg is not None and calls / msgs > args.max_calls_per_msg:
        print(f"perf_ops: {calls / msgs:.2f} calls per delivered message exceeds "
              f"{args.max_calls_per_msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
