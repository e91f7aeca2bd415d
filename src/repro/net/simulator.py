"""Deterministic discrete-event simulator.

A tiny event loop: callbacks are scheduled at absolute simulated times
and executed in (time, insertion-order) order, so runs are exactly
reproducible.  All protocol code in this repository is written against
this loop; nothing uses wall-clock time.

The queue is one binary heap of ``(time, seq, event)`` tuples.  ``seq``
is unique, so the heap orders entries by comparing floats and ints in C
and never compares two events.  Cancellation is lazy: a cancelled entry
stays in the heap until it surfaces or until more than half the heap is
cancelled, when the heap is filtered and re-heapified (fire order
depends only on the ``(time, seq)`` keys, never on the heap's layout).

Two loops fire the same events in the same order.  ``run`` with no
event cap and no hook takes the plain one, which tests only
``cancelled`` and the time bound per event; ``step``, a cap,
``run_until_condition`` and a step or tick hook take the general one.
A hook cannot be set while a drain runs.
"""

from __future__ import annotations

import itertools
import math
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
        """Number of scheduled, not-yet-fired, not-cancelled events."""
        return len(self._heap) - self._cancelled

    @property
    def heap_size(self) -> int:
        """Queued entries including cancelled ones (test/diagnostic)."""
        return len(self._heap)

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

    def requeue(self, event: ScheduledEvent, time: float) -> None:
        """Queue *event*, which has fired and is not queued, again at *time*.

        It takes a fresh ``seq`` from :meth:`schedule_at`'s counter, so it
        fires exactly where a new event would; a busy node re-queues its
        one completion per message instead of building one.

        Raises:
            NetworkError: when *time* is before ``now`` or NaN.
        """
        if not time >= self.now:
            raise NetworkError(f"cannot schedule at time {time} (now is {self.now})")
        event.time = time
        event.seq = seq = next(self._counter)
        event.cancelled = False
        event._sim = self
        heappush(self._heap, (time, seq, event))

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
        must read the event, not keep it: a re-queued event (see
        :meth:`requeue`) is the same object at its next firing.

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

        Stops when the queue is empty, ``done()`` is true, the next live
        event is later than *until*, or *max_events* have fired.  With
        none of those and no hook, :meth:`_drain_plain` is the same loop
        without the tests.
        """
        heap = self._heap
        fired = 0
        self._draining = True
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                if done is not None and done():
                    break
                if until is not None and time > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                heappop(heap)
                event._sim = None
                if time > self.now:
                    if self._tick_hook is not None:
                        self._tick_hook(time)
                    self.now = time
                self._events_processed += 1
                if self._step_hook is not None:
                    self._step_hook(event)
                event.callback(*event.args)
                fired += 1
        finally:
            self._draining = False
        return fired

    def _drain_plain(self, until: float) -> int:
        """:meth:`_drain` with no cap, condition or hook (*until* may be
        inf); ``events_processed`` is levelled once, at the end."""
        heap = self._heap
        fired = 0
        self._draining = True
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                if time > until:
                    break
                heappop(heap)
                event._sim = None
                self.now = time  # the queue minimum: never earlier than now
                fired += 1
                event.callback(*event.args)
        finally:
            self._events_processed += fired
            self._draining = False
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
        if max_events is None and self._step_hook is None and self._tick_hook is None:
            fired = self._drain_plain(math.inf if until is None else until)
        else:
            fired = self._drain(until, max_events, None)
        heap = self._heap
        # a live event still due by *until* means max_events ended the drain
        if until is not None and until > self.now and not (heap and heap[0][0] <= until):
            self.now = until
        return fired

    def run_for(self, duration: float, max_events: int | None = None) -> int:
        """Run for *duration* simulated seconds from the current time.

        Raises:
            NetworkError: on a negative or NaN *duration*.
        """
        if not duration >= 0:
            raise NetworkError(f"duration must be >= 0, got {duration}")
        return self.run(until=self.now + duration, max_events=max_events)

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
