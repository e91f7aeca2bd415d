"""A fixed loop of interpreter work, timed beside every round.

The reference box shares its two cores: its speed drifts by 10-25 % for
tens of seconds at a time, which is more than the gains later changes
will claim and, over ten runs, more than any regression bound the
contract allows.  The drift scales all Python work alike, so the harness
times a fixed loop right before and after each round and reports host
times *at reference speed*: seconds multiplied by ``NOMINAL_S`` over what
the loop took just then.  On a quiet box that is the plain wall time; in
a noisy quarter of an hour it kept the spread between ten runs at 4-8 %
where plain seconds spread by 10-29 %.

The loop does what the simulator's hot path does -- heap pushes and
pops, dictionary reads and writes, small-object allocation, attribute
access -- so that contention for caches and memory slows both alike.
It must never change: every time ever reported is in its units.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

#: Iterations of the loop.  Shorter loops follow the machine less well:
#: with a third of this the spread between runs was about a quarter wider.
ITERATIONS = 120_000

#: Seconds the loop takes on the reference box when nothing else runs.
NOMINAL_S = 0.088


class _Record:
    __slots__ = ("at", "slot")

    def __init__(self, at: float, slot: int) -> None:
        self.at = at
        self.slot = slot


def reference_loop() -> float:
    """Host seconds the fixed loop took just now."""
    started = time.perf_counter()
    heap: list[float] = []
    counts: dict[int, int] = {}
    live: list[_Record] = []
    for i in range(ITERATIONS):
        at = (i * 7919) % 10007 + i * 1e-9
        heappush(heap, at)
        slot = i & 2047
        counts[slot] = counts.get(slot, 0) + 1
        live.append(_Record(at, slot))
        if i & 1:
            heappop(heap)
        if len(live) > 512:
            live.clear()
    return time.perf_counter() - started
