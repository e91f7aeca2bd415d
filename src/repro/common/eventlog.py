"""Structured event recording for simulations and experiments.

Consensus experiments need an audit trail: when each request entered the
system, when each phase transition fired, when era switches started and
finished.  :class:`EventLog` is an append-only, time-ordered record that
experiments query after the run (e.g. to compute consensus latency as
``committed.at - submitted.at``).  An event is a row of declared
fields: each kind names its payload fields once, at its ``EV_*``
constant (:data:`FIELDS`), and :meth:`EventLog.record` stores the values
in that order as one tuple.  An :class:`Event` and its ``data`` dict are
built for a reader, so the trail holds no dict per event and a reader
cannot change what the log holds.

This module is also the single home of the event-kind vocabulary: every
kind ever recorded into an :class:`EventLog` is a module-level ``EV_*``
constant below, collected in :data:`EVENT_KINDS`, and consumers
(replicas, monitors, metrics, the observability layer) import those
constants instead of repeating the strings.
``tests/test_recorded_kinds.py`` runs every topology and mode and
fails on a kind recorded or queried outside :data:`EVENT_KINDS`, on a
recorded row whose length is not its kind's field count, and on a row
that does not hash, so no typo'd kind or dropped value goes unnoticed.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Iterator

from repro.common.record import TupleRecord

#: kind -> the names of its payload values, in the order
#: :meth:`EventLog.record` takes them.
FIELDS: dict[str, tuple[str, ...]] = {}


def _kind(kind: str, *fields: str) -> str:
    """Declare *kind* with its payload *fields*; returns *kind*."""
    FIELDS[kind] = fields
    return kind


# -- event-kind vocabulary -------------------------------------------------
# Request lifecycle (client side).
EV_REQUEST_SUBMITTED = _kind("request.submitted", "request_id", "committee_size")
EV_REQUEST_COMPLETED = _kind("request.completed", "request_id", "latency")

# PBFT replica protocol events.
EV_PBFT_ASSIGNED = _kind("pbft.assigned", "seq", "view", "request_id")
EV_PBFT_EXECUTED = _kind("pbft.executed",
                         "seq", "view", "request_id", "epoch", "prepares", "commits")
EV_PBFT_CHECKPOINT_STABLE = _kind("pbft.checkpoint_stable", "seq")
EV_PBFT_STATE_TRANSFER = _kind("pbft.state_transfer", "seq")
EV_PBFT_VIEW_CHANGE = _kind("pbft.view_change", "new_view", "epoch")
EV_PBFT_NEW_VIEW = _kind("pbft.new_view", "new_view", "reproposed")
EV_PBFT_ENTERED_VIEW = _kind("pbft.entered_view", "view", "epoch")

# Chain / transaction events.
EV_TX_SUBMITTED = _kind("tx.submitted", "tx_id")
EV_TX_COMMITTED = _kind("tx.committed", "tx_id", "height", "digest")
EV_BLOCK_PROPOSED = _kind("block.proposed", "height", "txs")
EV_BLOCK_COMMITTED = _kind("block.committed", "producer", "height", "txs")
EV_BLOCK_REJECTED = _kind("block.rejected", "producer", "height")

# G-PBFT node / election / era events.
EV_GEO_REPORT_REJECTED = _kind("geo.report_rejected", "subject")
EV_GPBFT_AUDIT = _kind("gpbft.audit", "era", "invalid", "qualified",
                       "planned_add", "planned_remove", "candidates")
EV_GPBFT_ACTIVATED = _kind("gpbft.activated", "era")
EV_GPBFT_DEACTIVATED = _kind("gpbft.deactivated", "era")
EV_GPBFT_HALTED_BELOW_MINIMUM = _kind("gpbft.halted_below_minimum", "committee")
EV_ERA_SWITCH_PROPOSED = _kind("era.switch_proposed", "new_era", "added", "removed")
EV_ERA_SWITCH_STARTED = _kind("era.switch_started", "new_era")
EV_ERA_SWITCH_COMPLETED = _kind("era.switch_completed", "era", "committee_size")

# Hierarchical (zone-sharded) deployments: inter-zone transaction
# lifecycle and top-layer checkpoint ordering.
EV_XZONE_SUBMITTED = _kind("xzone.submitted", "tx_id", "src_zone", "dst_zone")
EV_XZONE_ORDERED = _kind("xzone.ordered", "tx_id", "zone", "src_zone", "top_seq", "pos")
EV_XZONE_DELIVERED = _kind("xzone.delivered", "tx_id", "zone", "src_zone")
EV_XZONE_COMMITTED = _kind("xzone.committed", "tx_id", "zone", "src_zone")
EV_HIER_CHECKPOINT_SUBMITTED = _kind("hier.checkpoint_submitted", "zone", "seq", "txs")
EV_HIER_CHECKPOINT_COMMITTED = _kind("hier.checkpoint_committed",
                                     "zone", "seq", "txs", "top_seq")

# Comparison baselines (PoW / PoS / dBFT simulators).
EV_POW_MINED = _kind("pow.mined", "height", "txs")
EV_POW_COMMITTED = _kind("pow.committed", "tx_id", "latency")
EV_POS_BLOCK = _kind("pos.block", "slot", "txs")
EV_POS_COMMITTED = _kind("pos.committed", "tx_id", "latency")
EV_DBFT_COMMITTED = _kind("dbft.committed", "tx_id", "latency")

#: Every registered event kind: each kind declared above, so a new kind
#: is registered where it is defined.
EVENT_KINDS: frozenset[str] = frozenset(FIELDS)


#: Most recent events a post-mortem carries: an invariant violation's
#: trace window and each flight-recorder ring are a log's last this-many
#: events (:meth:`EventLog.tail`).
TRACE_WINDOW = 256

_new = tuple.__new__


class Event(TupleRecord):
    """One timestamped occurrence: the immutable tuple ``(at, kind, node, data)``.

    :class:`EventLog` builds one from a stored row for each read, so
    every reader gets a ``data`` dict of its own.

    Attributes:
        at: simulated time in seconds.
        kind: machine-readable event kind, e.g. ``"tx.committed"``.
        node: id of the node the event happened on (-1 for system events).
        data: the payload by field name (request ids, era numbers, byte
            counts...), in the order :data:`FIELDS` declares for *kind*.
    """

    __slots__ = ()
    at: float
    kind: str
    node: int
    data: dict[str, Any]

    def __new__(cls, at: float, kind: str, node: int = -1,
                data: dict[str, Any] | None = None) -> Event:
        return _new(cls, (at, kind, node, {} if data is None else data))


def _event(at: float, kind: str, node: int, values: tuple[Any, ...]) -> Event:
    """The :class:`Event` of one stored row; raises ValueError when the
    row does not hold one value per field its kind declares."""
    fields = FIELDS.get(kind, ())
    if len(values) != len(fields):
        raise ValueError(f"{kind!r} declares the fields {fields}, "
                         f"a row holds {len(values)} values")
    return _new(Event, (at, kind, node, dict(zip(fields, values))))


class EventLog:
    """Append-only event store with simple query helpers.

    Events must be appended in non-decreasing time order, which the
    discrete-event simulator guarantees; the log enforces it so that a
    scheduling bug surfaces here rather than as a corrupted experiment.

    It keeps four parallel columns: times in an ``array('d')`` (no float
    object per event), kinds, nodes and each event's tuple of values.
    An :class:`Event` is built only for a reader or a subscriber, and
    the cyclic collector untracks a row of atomic values at its first
    pass, so a long trail costs it nothing.

    Live consumers (invariant monitors, the observability facade) can
    :meth:`subscribe` a callback to one kind; an append calls only its
    kind's callbacks, and with no subscribers the append hot path pays
    one truthiness check.

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
        self._at = array("d")
        self._kind: list[str] = []
        self._node: list[int] = []
        self._data: list[tuple[Any, ...]] = []
        self._counts: dict[str, int] = {}
        self._subscribers: dict[str, list[Callable[[Event], None]]] = {}
        self._capacity = capacity
        #: events ever appended (monotonic, immune to capacity eviction)
        self.total_appended = 0

    def __len__(self) -> int:
        return len(self._at)

    def __iter__(self) -> Iterator[Event]:
        return map(_event, self._at, self._kind, self._node, self._data)

    def subscribe(self, kind: str, callback: Callable[[Event], None]) -> None:
        """Call *callback(event)* synchronously on every future append of *kind*.

        Callbacks run inside :meth:`record`, after the event is stored,
        in subscription order, so a subscriber that raises aborts the
        appending simulation step with full context.  A kind outside
        :data:`EVENT_KINDS` raises ValueError.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"cannot subscribe to unknown event kind {kind!r}")
        self._subscribers.setdefault(kind, []).append(callback)

    def count(self, kind: str) -> int:
        """O(1) count of events of *kind* (hot-loop friendly)."""
        return self._counts.get(kind, 0)

    def record(self, at: float, kind: str, node: int = -1, *values: Any) -> None:
        """Append an event, *values* in the order :data:`FIELDS` declares
        for *kind*; raises ValueError on a time regression."""
        times = self._at
        if times and at < times[-1] - 1e-9:
            raise ValueError(f"event log regression: {kind} at {at} "
                             f"after {self._kind[-1]} at {times[-1]}")
        times.append(at)
        self._kind.append(kind)
        self._node.append(node)
        self._data.append(values)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self.total_appended += 1
        capacity = self._capacity
        if capacity is not None and len(times) > 2 * capacity:
            # amortized ring: trim half the columns at once so appends
            # stay O(1) instead of shifting them on every event
            cut = len(times) - capacity
            for column in (times, self._kind, self._node, self._data):
                del column[:cut]
        if self._subscribers and kind in self._subscribers:
            event = _event(at, kind, node, values)
            for callback in self._subscribers[kind]:
                callback(event)

    def tail(self, n: int) -> list[Event]:
        """The newest *n* retained events, oldest first."""
        if n <= 0:
            return []
        return list(map(_event, self._at[-n:], self._kind[-n:],
                        self._node[-n:], self._data[-n:]))

    def of_kind(self, kind: str) -> list[Event]:
        """All events whose kind equals *kind*, in time order."""
        kinds, times, nodes, rows = self._kind, self._at, self._node, self._data
        return [_event(times[i], kind, nodes[i], rows[i])
                for i in range(len(kinds)) if kinds[i] == kind]


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
