#!/usr/bin/env python3
"""Count what one benchmark round costs the interpreter: a counter that repeats.

    scripts/perf_ops.py WORKLOAD [--seed N] [--top K] [--max-calls-per-msg X]
    scripts/perf_ops.py WORKLOAD --setup [--seed N] [--top K] [--max-setup-calls X]
    scripts/perf_ops.py WORKLOAD --memory [--seed N] [--top K] [--max-peak-mb X]

Builds one round of a ``perfbench`` workload (imported read-only from
this checkout), runs its timed ``run`` call under ``sys.settrace`` with
opcode events on, and prints Python-level calls and bytecode
instructions, both also per delivered message, the send operations
(calls of the network's ``send`` and ``multicast``) with the delivered
copies per operation, then the top *K* functions by instructions with
their calls and instructions per call.  A cost that is paid per
operation, not per copy, weighs most where an operation reaches few
copies: a small committee.
Beside the tracer, a ``sys.setprofile`` hook counts the calls Python
code makes into C functions (``c_call`` events): their total, also per
delivered message, and the top *K* C callees by calls -- a SHA-256 is
one ``_hashlib.openssl_sha256``, a heap push one ``_heapq.heappush``.
C functions that C code calls directly are not seen.
Before that it runs one plain round of the same seed and prints what the
cyclic garbage collector did during it -- passes per generation and
seconds spent inside them -- and then the cyclic garbage the round left:
what ``gc.collect()`` finds while the workload is still referenced.
The simulator pauses the collector while it drains events, so the
passes are the few made outside a drain (building and reading the
round), about 0 / 0 / 0; neither the bytecode counts nor the
benchmark's per-layer times would show a pass (it is filed under
whichever layer was allocating).  The garbage count is what the pause
leaves for the next pass after the drain, and reads 0 as long as
reference counting frees everything a round churns.

The counts depend on the code and the seed and on nothing else, so one
run per side is an exact A/B on a machine whose wall clock drifts: copy
this file into the other checkout's ``scripts/`` and run it there.  A
cut inside C shows as fewer C calls, but how long each took is a clock
reading, which is what ``scripts/perf_ab.py`` is for.  The collector's
pass counts repeat as long as nothing else in the process allocates
differently; its seconds are a clock reading and do not.  A traced round
takes 30-60 times its plain wall time.

With ``--max-calls-per-msg`` the exit code is 1 when the round spent
more Python calls per delivered message than that (CI's hot-path guard).
A bound that no round can exceed or meet (``nan``, ``inf``, zero or
negative) is refused with exit code 2 before anything runs.

With ``--setup`` it counts the round's construction (``cls(seed)``, what
the benchmark's ``setup_s`` times) instead of its ``run``: one untraced
build first, so imports and first-use work are not counted, then a
traced one, printed as totals and the same two top-*K* tables.
``--max-setup-calls`` exits 1 when that build made more Python calls,
and refuses the same impossible bounds with exit code 2.

With ``--memory`` it builds one round untraced and runs it under
``tracemalloc``: the bytes still allocated at the end of the run (with
the round alive) and the peak while it ran, both counting only blocks
allocated during the run, then the top *K* source lines by bytes alive
at the end.  Allocation sizes depend on the code and the seed, not on
the clock or the hash seed, so the counts repeat like the others.
``--max-peak-mb`` exits 1 when the peak is above that many megabytes
(10**6 bytes) and refuses the same impossible bounds with exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import sys
import time
import tracemalloc
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
        self.c_calls: defaultdict[tuple[str | None, str], int] = defaultdict(int)

    def _on_call(self, frame: FrameType, event: str, arg: Any) -> Any:
        self.calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return self._on_opcode

    def _on_opcode(self, frame: FrameType, event: str, arg: Any) -> Any:
        if event == "opcode":
            self.instructions[frame.f_code] += 1
        return self._on_opcode

    def _on_profile(self, frame: FrameType, event: str, arg: Any) -> None:
        if event == "c_call":
            self.c_calls[getattr(arg, "__module__", None), arg.__qualname__] += 1

    def run(self, fn: Any) -> None:
        """Call *fn()* with counting on; frames already running are not
        counted (their C calls are)."""
        sys.settrace(self._on_call)
        sys.setprofile(self._on_profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
            sys.settrace(None)


def collector_line(fn: Any) -> str:
    """Call *fn()* untraced; report the collector's passes and seconds,
    and the cyclic garbage left while *fn* (a bound ``run``) is alive."""
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
            f"gen2 {passes[2]}  {seconds:.3f} s inside (plain round)\n"
            f"cyclic garbage         {gc.collect():>12d}  objects the plain round left")


def _where(filename: str) -> str:
    path = Path(filename)
    try:
        return str(path.resolve().relative_to(ROOT))
    except ValueError:
        return path.name


def _name(code: CodeType) -> str:
    return f"{_where(code.co_filename)}:{code.co_qualname}"


def _c_name(key: tuple[str | None, str]) -> str:
    module, qualname = key
    return qualname if module is None else f"{module}.{qualname}"


def positive_finite(text: str) -> float:
    """The bounds' type: one a count can pass or fail (``calls > nan`` is
    never true, so ``nan`` would pass them all)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def print_tables(counter: OpCounter, top: int, msgs: int | None) -> None:
    """The top-*top* functions by instructions and C callees by calls;
    a C callee's calls are also given per delivered message when *msgs*
    is."""
    instructions = sum(counter.instructions.values())
    c_calls = sum(counter.c_calls.values())
    print(f"\n| function | instructions | share | calls | per call |\n|---|---|---|---|---|")
    ranked = sorted(counter.instructions, key=lambda c: (-counter.instructions[c], _name(c)))
    for code in ranked[:top]:
        n, k = counter.instructions[code], counter.calls[code]
        print(f"| `{_name(code)}` | {n} | {n / instructions:.1%} | {k} | "
              f"{n / k if k else 0.0:.1f} |")
    if msgs is None:
        print(f"\n| C function | calls | share |\n|---|---|---|")
    else:
        print(f"\n| C function | calls | share | per message |\n|---|---|---|---|")
    for key in sorted(counter.c_calls, key=lambda k: (-counter.c_calls[k], _c_name(k)))[:top]:
        k = counter.c_calls[key]
        per_msg = "" if msgs is None else f" {k / msgs:.3f} |"
        print(f"| `{_c_name(key)}` | {k} | {k / c_calls:.1%} |{per_msg}")


def count_setup(cls: Any, seed: int, top: int, bound: float | None) -> int:
    """Trace one build of workload *cls* after an untraced one and print
    the counts; 1 when it made more Python calls than *bound*."""
    cls(seed)
    counter = OpCounter()
    counter.run(functools.partial(cls, seed))
    calls = sum(counter.calls.values())
    print(f"workload {cls.name}  seed {seed}  setup (one build, after an untraced one)")
    print(f"python calls           {calls:>12d}")
    print(f"bytecode instructions  {sum(counter.instructions.values()):>12d}")
    print(f"C calls                {sum(counter.c_calls.values()):>12d}")
    print_tables(counter, top, None)
    if bound is not None and calls > bound:
        print(f"perf_ops: {calls} Python calls in setup exceeds {bound}", file=sys.stderr)
        return 1
    return 0


def count_memory(workload: Any, top: int, bound: float | None) -> int:
    """Run the built *workload* under ``tracemalloc`` and print its end
    and peak bytes and top sites; 1 when the peak is above *bound* MB
    or the round failed its output checks."""
    tracemalloc.start()
    try:
        workload.run()
        end, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    outcome = workload.outcome()
    print(f"workload {workload.name}  sim_digest {outcome.digest[:16]}  "
          f"(one run under tracemalloc)")
    print(f"traced end             {end:>12d} B  {end / 1e6:8.2f} MB")
    print(f"traced peak            {peak:>12d} B  {peak / 1e6:8.2f} MB")
    print(f"\n| allocation site | bytes at end | share | blocks |\n|---|---|---|---|")
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        print(f"| `{_where(frame.filename)}:{frame.lineno}` | {stat.size} | "
              f"{stat.size / end if end else 0.0:.1%} | {stat.count} |")
    if outcome.problems:
        print("perf_ops: the round failed its output checks: "
              + "; ".join(outcome.problems), file=sys.stderr)
        return 1
    if bound is not None and peak > bound * 1e6:
        print(f"perf_ops: a traced peak of {peak / 1e6:.2f} MB exceeds {bound} MB",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Trace one round (or its build) and print the counts."""
    from perfbench.workloads import BY_NAME
    from repro.net.network import SimulatedNetwork

    parser = argparse.ArgumentParser(
        prog="scripts/perf_ops.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=10, metavar="K")
    parser.add_argument("--max-calls-per-msg", type=positive_finite, default=None,
                        metavar="X")
    parser.add_argument("--setup", action="store_true",
                        help="count the workload's construction, not its run")
    parser.add_argument("--max-setup-calls", type=positive_finite, default=None,
                        metavar="X")
    parser.add_argument("--memory", action="store_true",
                        help="trace the run's allocations, not its calls")
    parser.add_argument("--max-peak-mb", type=positive_finite, default=None,
                        metavar="X")
    args = parser.parse_args(argv)
    if args.setup and args.memory:
        parser.error("--setup and --memory count different things; pick one")
    if (args.setup or args.memory) and args.max_calls_per_msg is not None:
        parser.error("--max-calls-per-msg bounds a counted run; "
                     "--setup and --memory count no calls per message")
    if args.max_setup_calls is not None and not args.setup:
        parser.error("--max-setup-calls needs --setup")
    if args.max_peak_mb is not None and not args.memory:
        parser.error("--max-peak-mb needs --memory")
    if args.setup:
        return count_setup(BY_NAME[args.workload], args.seed, args.top, args.max_setup_calls)
    if args.memory:
        return count_memory(BY_NAME[args.workload](args.seed), args.top, args.max_peak_mb)

    collector = collector_line(BY_NAME[args.workload](args.seed).run)
    workload = BY_NAME[args.workload](args.seed)
    counter = OpCounter()
    counter.run(workload.run)
    outcome = workload.outcome()

    calls = sum(counter.calls.values())
    instructions = sum(counter.instructions.values())
    c_calls = sum(counter.c_calls.values())
    msgs = outcome.msgs
    # a multicast that goes copy by copy (iid drops on, or a replaced
    # ``send``) adds its sends to this; no benchmark round does
    ops = sum(counter.calls[fn.__code__]
              for fn in (SimulatedNetwork.send, SimulatedNetwork.multicast))
    print(f"workload {args.workload}  seed {args.seed}  sim_digest {outcome.digest[:16]}")
    print(f"delivered messages     {msgs:>12d}")
    print(f"python calls           {calls:>12d}  {calls / msgs:8.2f} per message")
    print(f"bytecode instructions  {instructions:>12d}  {instructions / msgs:8.1f} per message")
    print(f"C calls                {c_calls:>12d}  {c_calls / msgs:8.2f} per message")
    print(f"send operations        {ops:>12d}  {msgs / ops if ops else 0.0:8.2f} "
          f"delivered copies per operation")
    print(collector)
    print_tables(counter, args.top, msgs)
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
