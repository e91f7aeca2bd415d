"""Structured event recording for simulations and experiments.

Consensus experiments need an audit trail: when each request entered the
system, when each phase transition fired, when era switches started and
finished.  :class:`EventLog` is an append-only, time-ordered record that
experiments query after the run (e.g. to compute consensus latency as
``committed.at - submitted.at``).  It stores the fields of its events in
parallel columns and builds :class:`Event` tuples only for a reader, so
a long audit trail is not rescanned by the cyclic garbage collector.

This module is also the single home of the event-kind vocabulary: every
kind ever recorded into an :class:`EventLog` is a module-level ``EV_*``
constant below, and consumers (replicas, monitors, metrics, the
observability layer) import those constants instead of repeating the
strings.  The static analyzer's GPB009 rule reads the ``EV_*``
assignments straight from this module's AST and flags raw event-kind
literals anywhere else, so a typo'd kind cannot silently split the
vocabulary.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterator

from repro.common.record import TupleRecord

# -- event-kind vocabulary -------------------------------------------------
# Request lifecycle (client side).
EV_REQUEST_SUBMITTED = "request.submitted"
EV_REQUEST_COMPLETED = "request.completed"

# PBFT replica protocol events.
EV_PBFT_ASSIGNED = "pbft.assigned"
EV_PBFT_EXECUTED = "pbft.executed"
EV_PBFT_CHECKPOINT_STABLE = "pbft.checkpoint_stable"
EV_PBFT_STATE_TRANSFER = "pbft.state_transfer"
EV_PBFT_VIEW_CHANGE = "pbft.view_change"
EV_PBFT_NEW_VIEW = "pbft.new_view"
EV_PBFT_ENTERED_VIEW = "pbft.entered_view"

# Chain / transaction events.
EV_TX_SUBMITTED = "tx.submitted"
EV_TX_COMMITTED = "tx.committed"
EV_BLOCK_PROPOSED = "block.proposed"
EV_BLOCK_COMMITTED = "block.committed"
EV_BLOCK_REJECTED = "block.rejected"

# G-PBFT node / election / era events.
EV_GEO_REPORT_REJECTED = "geo.report_rejected"
EV_GPBFT_AUDIT = "gpbft.audit"
EV_GPBFT_ACTIVATED = "gpbft.activated"
EV_GPBFT_DEACTIVATED = "gpbft.deactivated"
EV_GPBFT_HALTED_BELOW_MINIMUM = "gpbft.halted_below_minimum"
EV_ERA_SWITCH_PROPOSED = "era.switch_proposed"
EV_ERA_SWITCH_STARTED = "era.switch_started"
EV_ERA_SWITCH_COMPLETED = "era.switch_completed"

# Hierarchical (zone-sharded) deployments: inter-zone transaction
# lifecycle and top-layer checkpoint ordering.
EV_XZONE_SUBMITTED = "xzone.submitted"
EV_XZONE_ORDERED = "xzone.ordered"
EV_XZONE_DELIVERED = "xzone.delivered"
EV_XZONE_COMMITTED = "xzone.committed"
EV_HIER_CHECKPOINT_SUBMITTED = "hier.checkpoint_submitted"
EV_HIER_CHECKPOINT_COMMITTED = "hier.checkpoint_committed"

# Comparison baselines (PoW / PoS simulators).
EV_POW_MINED = "pow.mined"
EV_POW_COMMITTED = "pow.committed"
EV_POS_COMMITTED = "pos.committed"

#: Every registered event kind (validation and test support).
EVENT_KINDS: frozenset[str] = frozenset({
    EV_REQUEST_SUBMITTED,
    EV_REQUEST_COMPLETED,
    EV_PBFT_ASSIGNED,
    EV_PBFT_EXECUTED,
    EV_PBFT_CHECKPOINT_STABLE,
    EV_PBFT_STATE_TRANSFER,
    EV_PBFT_VIEW_CHANGE,
    EV_PBFT_NEW_VIEW,
    EV_PBFT_ENTERED_VIEW,
    EV_TX_SUBMITTED,
    EV_TX_COMMITTED,
    EV_BLOCK_PROPOSED,
    EV_BLOCK_COMMITTED,
    EV_BLOCK_REJECTED,
    EV_GEO_REPORT_REJECTED,
    EV_GPBFT_AUDIT,
    EV_GPBFT_ACTIVATED,
    EV_GPBFT_DEACTIVATED,
    EV_GPBFT_HALTED_BELOW_MINIMUM,
    EV_ERA_SWITCH_PROPOSED,
    EV_ERA_SWITCH_STARTED,
    EV_ERA_SWITCH_COMPLETED,
    EV_XZONE_SUBMITTED,
    EV_XZONE_ORDERED,
    EV_XZONE_DELIVERED,
    EV_XZONE_COMMITTED,
    EV_HIER_CHECKPOINT_SUBMITTED,
    EV_HIER_CHECKPOINT_COMMITTED,
    EV_POW_MINED,
    EV_POW_COMMITTED,
    EV_POS_COMMITTED,
})


#: Most recent events a post-mortem carries: an invariant violation's
#: trace window and each flight-recorder ring are a log's last this-many
#: events (:meth:`EventLog.tail`).
TRACE_WINDOW = 256

_new = tuple.__new__


class Event(TupleRecord):
    """One timestamped occurrence: the immutable tuple ``(at, kind, node, data)``.

    :meth:`EventLog.record` builds the tuple directly, with no Python frame.

    Attributes:
        at: simulated time in seconds.
        kind: machine-readable event kind, e.g. ``"tx.committed"``.
        node: id of the node the event happened on (-1 for system events).
        data: free-form payload (request ids, era numbers, byte counts...).
    """

    __slots__ = ()
    at: float
    kind: str
    node: int
    data: dict[str, Any]

    def __new__(cls, at: float, kind: str, node: int = -1,
                data: dict[str, Any] | None = None) -> Event:
        return _new(cls, (at, kind, node, {} if data is None else data))


#: One row of an :class:`EventLog`'s columns as an :class:`Event`, built in C.
_event = partial(_new, Event)


class EventLog:
    """Append-only event store with simple query helpers.

    Events must be appended in non-decreasing time order, which the
    discrete-event simulator guarantees; the log enforces it so that a
    scheduling bug surfaces here rather than as a corrupted experiment.

    It keeps four parallel columns (``at``, ``kind``, ``node``, ``data``)
    and builds an :class:`Event` only for a reader or a subscriber: an
    event tuple holds a dict, so the cyclic collector tracks every one
    it retains, while the columns' floats, strings, ints and dicts of
    atomic values are never tracked.

    Live consumers (e.g. the invariant monitors of ``repro.verify``) can
    :meth:`subscribe` a callback that fires synchronously on every
    append; with no subscribers the append hot path pays one truthiness
    check.

    Args:
        capacity: when given, only the newest *capacity* events are
            retained (older ones are dropped in append order).  Per-kind
            :meth:`count` totals and :attr:`total_appended` stay exact
            regardless -- the bound only limits what the query helpers
            can still see.  Million-request aggregated runs set this so
            the audit trail cannot dominate memory; the default keeps
            the complete history.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 when given")
        self._at: list[float] = []
        self._kind: list[str] = []
        self._node: list[int] = []
        self._data: list[dict[str, Any]] = []
        self._counts: dict[str, int] = {}
        self._subscribers: list[Callable[[Event], None]] = []
        self._capacity = capacity
        #: events ever appended (monotonic, immune to capacity eviction)
        self.total_appended = 0

    def __len__(self) -> int:
        return len(self._at)

    def __iter__(self) -> Iterator[Event]:
        return map(_event, zip(self._at, self._kind, self._node, self._data))

    def _row(self, index: int) -> Event:
        return _new(Event, (self._at[index], self._kind[index],
                            self._node[index], self._data[index]))

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Call *callback(event)* synchronously on every future append.

        Callbacks run inside :meth:`record`, after the event is stored,
        so a subscriber that raises aborts the appending simulation step
        with full context -- exactly what invariant monitors want.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        """Detach a previously subscribed callback (idempotent)."""
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    def append(self, event: Event) -> None:
        """Record *event* (as :meth:`record` would build it)."""
        self.record(event.at, event.kind, event.node, **event.data)

    def count(self, kind: str) -> int:
        """O(1) count of events of *kind* (hot-loop friendly)."""
        return self._counts.get(kind, 0)

    def record(self, at: float, kind: str, node: int = -1, **data: Any) -> Event:
        """Append an event around this call's own ``data`` dict, returned
        as an :class:`Event`; raises ValueError on a time regression."""
        times = self._at
        if times and at < times[-1] - 1e-9:
            raise ValueError(f"event log regression: {kind} at {at} "
                             f"after {self._kind[-1]} at {times[-1]}")
        times.append(at)
        self._kind.append(kind)
        self._node.append(node)
        self._data.append(data)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self.total_appended += 1
        capacity = self._capacity
        if capacity is not None and len(times) > 2 * capacity:
            # amortized ring: trim half the columns at once so appends
            # stay O(1) instead of shifting them on every event
            cut = len(times) - capacity
            for column in (times, self._kind, self._node, self._data):
                del column[:cut]
        event = _new(Event, (at, kind, node, data))
        if self._subscribers:
            for callback in self._subscribers:
                callback(event)
        return event

    def tail(self, n: int) -> list[Event]:
        """The newest *n* retained events, oldest first."""
        if n <= 0:
            return []
        return list(map(_event, zip(self._at[-n:], self._kind[-n:],
                                    self._node[-n:], self._data[-n:])))

    def of_kind(self, kind: str) -> list[Event]:
        """All events whose kind equals *kind*, in time order."""
        kinds = self._kind
        return [self._row(i) for i in range(len(kinds)) if kinds[i] == kind]

    def where(self, predicate: Callable[[Event], bool]) -> list[Event]:
        """All events matching *predicate*, in time order."""
        return [e for e in self if predicate(e)]

    def first(self, kind: str) -> Event | None:
        """The earliest event of *kind*, or ``None``."""
        try:
            return self._row(self._kind.index(kind))
        except ValueError:
            return None

    def last(self, kind: str) -> Event | None:
        """The latest event of *kind*, or ``None``."""
        kinds = self._kind
        for index in range(len(kinds) - 1, -1, -1):
            if kinds[index] == kind:
                return self._row(index)
        return None

    def clear(self) -> None:
        """Drop all recorded events (used between experiment repetitions)."""
        for column in (self._at, self._kind, self._node, self._data):
            column.clear()
        self._counts.clear()


def event_to_json(event: Event) -> dict[str, Any]:
    """Flatten an :class:`Event` into a JSON-able dict."""
    return {
        "at": event.at,
        "kind": event.kind,
        "node": event.node,
        "data": {k: jsonable(v) for k, v in event.data.items()},
    }


def jsonable(value: Any) -> Any:
    """Best-effort conversion of event payload values to JSON types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return repr(value)
