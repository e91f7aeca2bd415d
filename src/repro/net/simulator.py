"""Deterministic discrete-event simulator.

A tiny event loop: callbacks are scheduled at absolute simulated times
and executed in (time, insertion-order) order, so runs are exactly
reproducible.  All protocol code in this repository is written against
this loop; nothing uses wall-clock time.

The queue is a binary heap of ``(time, seq, event)`` tuples plus one
FIFO *lane* of the same tuples.  ``seq`` is unique, so both order
entries by comparing floats and ints in C and never compare two events.
Cancellation is lazy: a cancelled entry stays in the heap until it
surfaces or until more than half the heap is cancelled, when the heap
is filtered and re-heapified (fire order depends only on the
``(time, seq)`` keys, never on the heap's layout).

The lane holds completions re-queued with one fixed delay,
``_lane_delay``, the interval of the first port completion a network
schedules.  A busy network port
re-queues its one completion event itself, without ``schedule_at``'s
frame: new ``time`` ``now + interval`` and a fresh ``seq`` from
``_counter``, appended to ``_lane`` when the interval is the lane's
delay and pushed onto ``_heap`` (with ``_sim`` set) otherwise.  ``now``
never decreases and ``seq`` only rises, so each append is later than
the one before by ``(time, seq)``: the lane is sorted as it stands, and
``_drain`` fires the lesser of its head and the heap's.  Lane entries
are never cancelled -- only port completions go there -- so a lane event
has ``_sim`` unset and ``cancel`` on it would not stop it.

One loop, ``_drain``, serves ``run``, ``run_for``, ``step`` and
``run_until_condition``, with or without a hook.  It pauses CPython's
cyclic collector while it fires events and restores it on exit, a raise
included; a drain that finds it off (a caller's choice, an outer drain)
leaves it off.  Reference counting frees what a drain churns
(``tests/test_gc_pause.py`` keeps it so), so a pass would only re-scan
live envelopes, votes and timers; a cycle a callback does make is
collected at the first pass after the drain.
"""

from __future__ import annotations

import gc
import itertools
import math
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.common.errors import NetworkError

#: Cancelled entries tolerated before compaction is considered at all.
_COMPACT_MIN_CANCELLED = 64


class ScheduledEvent:
    """Handle to a scheduled callback; supports cancellation."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: tuple[Any, ...], sim: "Simulator | None" = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # backref for live-event accounting; cleared when the event
        # leaves the queue so late cancels cannot skew the counter
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel()


class Simulator:
    """Event loop over simulated seconds.

    Example::

        sim = Simulator()
        sim.schedule(1.5, print, "fires at t=1.5")
        sim.run()

    Attributes:
        now: current simulated time in seconds.  A plain attribute that
            only the loop assigns: every handler and timer reads the
            clock, most of them more than once per message.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        # fixed-delay completions in (time, seq) order (module docstring)
        self._lane: deque[tuple[float, int, ScheduledEvent]] = deque()
        self._lane_delay: float | None = None
        self._counter = itertools.count()
        self._events_processed = 0
        self._step_hook: Callable[[ScheduledEvent], None] | None = None
        self._tick_hook: Callable[[float], None] | None = None
        self._draining = False
        # cancelled entries still in the heap, so ``pending`` is O(1)
        self._cancelled = 0

    @property
    def events_processed(self) -> int:
        """How many callbacks have fired since construction."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events: the
        heap's live entries plus the lane, whose entries are never
        cancelled."""
        return len(self._heap) - self._cancelled + len(self._lane)

    @property
    def heap_size(self) -> int:
        """Queued entries including cancelled ones, lane and heap
        together (test/diagnostic)."""
        return len(self._heap) + len(self._lane)

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule *callback(args)* to run *delay* seconds from now.

        Raises:
            NetworkError: on a negative or NaN delay.
        """
        if not delay >= 0:
            raise NetworkError(f"delay must be >= 0, got {delay}")
        time = self.now + delay  # own push, not schedule_at(): one call less per message
        event = ScheduledEvent(time, next(self._counter), callback, args, self)
        heappush(self._heap, (time, event.seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule *callback(args)* at absolute simulated *time*.

        Raises:
            NetworkError: when *time* is before ``now`` or NaN.
        """
        if not time >= self.now:
            raise NetworkError(f"cannot schedule at time {time} (now is {self.now})")
        event = ScheduledEvent(time, next(self._counter), callback, args, self)
        heappush(self._heap, (time, event.seq, event))
        return event

    def _note_cancel(self) -> None:
        """A queued entry was cancelled; compact when mostly dead."""
        self._cancelled += 1
        heap = self._heap
        if self._cancelled > _COMPACT_MIN_CANCELLED and self._cancelled * 2 > len(heap):
            # in place: a running drain loop holds an alias to the list
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapify(heap)
            self._cancelled = 0

    def set_step_hook(self, hook: Callable[[ScheduledEvent], None] | None) -> None:
        """Observe every fired event (``None`` detaches).

        The hook runs just before each event's callback, receiving the
        :class:`ScheduledEvent` about to fire.  ``repro.verify`` uses it
        to fingerprint the executed schedule so a replayed run can prove
        it followed the exact event order of the original.  The hook
        must read the event, not keep it: a busy network port re-queues
        its one completion event, so the same object fires again.

        Raises:
            NetworkError: when called while events are being drained.
        """
        if self._draining:
            raise NetworkError("cannot set the step hook while events are being drained")
        self._step_hook = hook

    def set_tick_hook(self, hook: Callable[[float], None] | None) -> None:
        """Observe the clock advancing to a new timestamp (``None`` detaches).

        The hook fires once per *distinct* event time, just before the
        clock moves to it and the first live event there runs.  No
        event earlier than the hook's argument can fire afterwards (it
        is the queue minimum and new schedules land at or after
        ``now``), so ``repro.obs`` uses it to close and flush
        time-series windows that end at or before the new time.  The
        hook must observe only -- scheduling events from inside it is
        not supported.

        Raises:
            NetworkError: when called while events are being drained.
        """
        if self._draining:
            raise NetworkError("cannot set the tick hook while events are being drained")
        self._tick_hook = hook

    def _drain(self, until: float | None, max_events: int | None,
               done: Callable[[], bool] | None) -> int:
        """Fire events in (time, seq) order; return how many fired.

        Each event is the lesser head of the lane and the heap, one
        tuple comparison while both hold entries.  Stops when both are
        empty, the next live event is later than *until*, ``done()`` is
        true, or *max_events* have fired.  The cap
        and the condition share one flag and the two hooks another, so a
        plain ``run`` pays two flag tests per event.  A hooked drain
        counts ``events_processed`` per event, since the hooks may read
        it; an unhooked one adds its count on exit.  Both add, so a
        nested drain's events count too.
        """
        heap, lane = self._heap, self._lane
        until = math.inf if until is None else until
        bounded = max_events is not None or done is not None
        tick, step = self._tick_hook, self._step_hook
        hooked = tick is not None or step is not None
        fired = 0
        # a nested drain must not re-open the outer one to hook changes
        draining, self._draining = self._draining, True
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                # the lesser (time, seq) head of the lane and the heap
                if lane and (not heap or lane[0] < heap[0]):
                    time, _, event = lane[0]
                    if time > until:
                        break
                    if bounded and (done is not None and done()
                                    or max_events is not None and fired >= max_events):
                        break
                    lane.popleft()
                elif heap:
                    time, _, event = heap[0]
                    if event.cancelled:
                        heappop(heap)
                        self._cancelled -= 1
                        continue
                    if time > until:
                        break
                    if bounded and (done is not None and done()
                                    or max_events is not None and fired >= max_events):
                        break
                    heappop(heap)
                    event._sim = None
                else:
                    break
                if hooked:
                    if time > self.now and tick is not None:
                        tick(time)
                    self.now = time
                    self._events_processed += 1
                    if step is not None:
                        step(event)
                else:
                    self.now = time  # the queue minimum: never earlier than now
                fired += 1
                event.callback(*event.args)
        finally:
            if not hooked:
                self._events_processed += fired
            self._draining = draining
            if collecting:
                gc.enable()
        return fired

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        return self._drain(None, 1, None) == 1

    def export_instruments(self, registry: Any) -> None:
        """Record loop-level gauges into an observability *registry*.

        Duck-typed (any object with ``gauge(name)``) so the simulator
        keeps zero imports from :mod:`repro.obs`; called once at
        capture teardown, never on the hot path.
        """
        registry.gauge("sim.now_s").set(self.now)
        registry.gauge("sim.events_processed").set(float(self._events_processed))
        registry.gauge("sim.pending_events").set(float(self.pending))

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, *until* is reached, or
        *max_events* have fired.  Returns the number of events fired.

        When stopping at *until*, the clock is advanced to exactly
        *until* (events scheduled beyond it remain queued).

        Raises:
            NetworkError: when *until* is NaN (it would drain the queue).
        """
        _check_bound("until", until)
        fired = self._drain(until, max_events, None)
        heap, lane = self._heap, self._lane
        # a live event still due by *until* means max_events ended the drain
        if until is not None and until > self.now and not (
                heap and heap[0][0] <= until or lane and lane[0][0] <= until):
            self.now = until
        return fired

    def run_for(self, duration: float) -> int:
        """Run for *duration* simulated seconds from the current time.

        Raises:
            NetworkError: on a negative or NaN *duration*.
        """
        if not duration >= 0:
            raise NetworkError(f"duration must be >= 0, got {duration}")
        return self.run(until=self.now + duration)

    def run_until_condition(self, done: Callable[[], bool], horizon: float | None = None,
                            max_events: int | None = None) -> bool:
        """Run until ``done()`` is true, the queue drains, or a cap hits.

        Returns:
            True iff the condition was met.

        Raises:
            NetworkError: when *horizon* is NaN.
        """
        _check_bound("horizon", horizon)
        self._drain(horizon, max_events, done)
        return done()


def _check_bound(name: str, value: float | None) -> None:
    """Refuse a NaN run bound: ``time > nan`` is never true."""
    if value is not None and math.isnan(value):
        raise NetworkError(f"{name} must not be NaN")
