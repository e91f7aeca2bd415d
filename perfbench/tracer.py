"""Self-time accounting over nested spans.

The tracer answers one question: of the host seconds a traced run took,
how many were spent *in* each layer, not counting the layers it called
into.  Only the innermost open span accrues time, so a layer's self time
is its spans' duration minus the part their child spans cover, and the
self times of all spans sum to the root span's duration exactly.

Nothing here knows about the simulator; ``perfbench/seams.py`` decides
which callables become spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """Accumulates self time and call counts per span name.

    Wrappers made by :meth:`wrap` cost one attribute check while no root
    span is open, so they can stay installed around set-up code that is
    not being measured.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[str] = []
        self._since = 0.0

    @property
    def active(self) -> bool:
        """True while a span is open."""
        return bool(self._stack)

    def enter(self, name: str) -> None:
        """Open a span; the span it interrupts stops accruing time."""
        now = self._clock()
        if self._stack:
            self.self_s[self._stack[-1]] += now - self._since
        self._stack.append(name)
        self.calls[name] += 1
        self._since = now

    def exit(self) -> None:
        """Close the innermost span; its parent resumes accruing time."""
        now = self._clock()
        self.self_s[self._stack.pop()] += now - self._since
        self._since = now

    def total_s(self) -> float:
        """Sum of all self times: the duration of the root spans."""
        return sum(self.self_s.values())

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*fn* as a span called *name* whenever a root span is open."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self._stack:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def fire(self, name: str, callback: Callable[..., Any], *args: Any) -> Any:
        """Run a deferred *callback* as a span called *name*.

        Passed to the simulator in place of the callback itself, so
        wrapping a scheduled call allocates no closure.
        """
        if not self._stack:
            return callback(*args)
        self.enter(name)
        try:
            return callback(*args)
        finally:
            self.exit()
