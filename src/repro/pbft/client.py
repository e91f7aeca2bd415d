"""PBFT clients: submit operations, collect f+1 matching replies.

A client sends its request to the primary it currently believes in; if
no quorum of replies arrives within the retry timeout it retransmits to
*all* replicas (which makes backups forward to the primary and start
view-change timers -- the liveness path of the protocol).

The client emits ``request.submitted`` / ``request.completed`` events;
consensus latency in the experiments is exactly the difference of those
two timestamps, matching the paper's definition: "the latency from the
time when a transaction is sent ... to the time when the transaction is
written to the ledger after consensus" (section V-B).  Those two events
are all :mod:`repro.obs` sees of a client: it reads them off the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.config import PBFTConfig
from repro.common.errors import ConsensusError
from repro.common.eventlog import EV_REQUEST_COMPLETED, EV_REQUEST_SUBMITTED, EventLog
from repro.common.quorum import tolerated_faults
from repro.net.network import Transport
from repro.net.simulator import ScheduledEvent, Simulator
from repro.pbft.log import roster
from repro.pbft.messages import ClientRequest, Operation, Reply

#: Completed-latency entries kept per client before the oldest are
#: evicted (``tests/test_bounded_memory.py`` holds a client to its
#: bound).  Far above any per-client request count in the tests and
#: experiment sweeps; million-request aggregated runs rely on the
#: eviction to keep client memory flat.
COMPLETED_BOUND = 100_000


@dataclass
class _PendingRequest:
    request: ClientRequest
    replies: dict[bytes, set[int]] = field(default_factory=dict)
    timer: ScheduledEvent | None = None
    retries: int = 0
    #: the backed-off retry delay has reached ``retry_backoff_max_s``
    capped: bool = False


class PBFTClient:
    """A client of the replicated service.

    Args:
        node_id: the client's network id (not a committee member).
        committee: current replica ids, in rotation order.
        sim: simulator for retry timers.
        transport: this client's way out (``send`` and ``multicast``).
        config: supplies the retry timeout.
        event_log: latency event sink; ``request.submitted`` carries the
            committee size and ``request.completed`` the latency.
        route_fn: where to send a *new* request; defaults to the believed
            primary.  G-PBFT devices route to their nearest endorser
            instead (paper: "clients ... send it to nearby endorsers").
    """

    def __init__(
        self,
        node_id: int,
        committee: tuple[int, ...] | list[int],
        sim: Simulator,
        transport: Transport,
        config: PBFTConfig | None = None,
        event_log: EventLog | None = None,
        route_fn: Callable[[], int] | None = None,
    ) -> None:
        if not committee:
            raise ConsensusError("client needs a non-empty committee")
        self.node_id = node_id
        self.committee = tuple(committee)
        # a reply's sender is checked once per reply received: a probe
        # of the committee's shared roster (kept in step by update_committee)
        self._roster = roster(self.committee)
        self.sim = sim
        self._transport = transport
        self.config = config or PBFTConfig()
        self.events = event_log
        self._route_fn = route_fn
        self.f = tolerated_faults(len(self.committee))
        self.view_hint = 0
        self._pending: dict[str, _PendingRequest] = {}
        self.completed: dict[str, float] = {}  # request_id -> latency seconds
        #: eviction bound for ``completed``; replay dedup only needs to
        #: cover requests that could still be legitimately resubmitted,
        #: so points that pump millions of fresh ops through a small
        #: client pool may lower this well below the default
        self.completed_bound = COMPLETED_BOUND
        #: total requests ever completed (monotonic; unlike
        #: ``len(completed)`` it is immune to bound eviction)
        self.completed_count = 0

    @property
    def believed_primary(self) -> int:
        """The replica this client currently sends new requests to."""
        return self.committee[self.view_hint % len(self.committee)]

    def submit(self, op: Operation) -> str:
        """Submit *op* for ordering; returns the request id."""
        request = ClientRequest(client=self.node_id, timestamp=self.sim.now, op=op)
        rid = request.request_id
        if rid in self._pending or rid in self.completed:
            return rid
        entry = _PendingRequest(request=request)
        self._pending[rid] = entry
        if self.events is not None:
            self.events.record(self.sim.now, EV_REQUEST_SUBMITTED, self.node_id,
                               rid, len(self.committee))
        first_hop = self._route_fn() if self._route_fn is not None else self.believed_primary
        self._transport.send(first_hop, request)
        entry.timer = self.sim.schedule(self.config.request_retry_timeout_s, self._retry, rid)
        return rid

    def receive(self, payload) -> None:
        """Entry point for replies from replicas."""
        if getattr(payload, "kind", None) == "pbft.reply":
            self.on_reply(payload)

    def on_reply(self, reply: Reply) -> None:
        """Count matching result digests; f+1 completes the request."""
        entry = self._pending.get(reply.request_id)
        if entry is None:
            return
        if reply.sender not in self._roster:
            return
        self.view_hint = max(self.view_hint, reply.view)
        senders = entry.replies.setdefault(reply.result_digest, set())
        senders.add(reply.sender)
        if len(senders) >= self.f + 1:
            if entry.timer is not None:
                entry.timer.cancel()
            rid = reply.request_id
            latency = self.sim.now - entry.request.timestamp
            self.completed[rid] = latency
            self.completed_count += 1
            if len(self.completed) > self.completed_bound:
                # evict the oldest entry (dicts preserve insertion order)
                del self.completed[next(iter(self.completed))]
            del self._pending[rid]
            if self.events is not None:
                self.events.record(self.sim.now, EV_REQUEST_COMPLETED,
                                   self.node_id, rid, latency)

    def _retry(self, rid: str) -> None:
        entry = self._pending.get(rid)
        if entry is None:
            return
        # broadcast so backups forward to the primary and arm timers
        entry.retries += 1
        self._transport.multicast(self.committee, entry.request)
        timeout = self.config.request_retry_timeout_s
        factor = self.config.retry_backoff_factor
        if factor > 1.0:
            # exponential backoff up to the configured ceiling; the
            # default factor of 1.0 skips this branch entirely, keeping
            # the constant retransmission schedule bit-identical.  With a
            # factor > 1 a delay at the ceiling stays there, so its power,
            # which overflows after enough retries, is not evaluated again
            ceiling = self.config.retry_backoff_max_s
            if entry.capped:
                timeout = ceiling
            else:
                timeout = min(timeout * factor**entry.retries, ceiling)
                entry.capped = timeout == ceiling
        entry.timer = self.sim.schedule(timeout, self._retry, rid)

    @property
    def outstanding(self) -> int:
        """Requests submitted but not yet completed."""
        return len(self._pending)

    def update_committee(self, committee: tuple[int, ...] | list[int]) -> None:
        """Adopt a new replica set after an era switch.

        Reply quorums already gathered keep counting (senders from the
        old committee that survived into the new one remain valid);
        ``f`` and the believed primary are recomputed for the new size.
        """
        if not committee:
            raise ConsensusError("committee must be non-empty")
        self.committee = tuple(committee)
        self._roster = roster(self.committee)
        self.f = tolerated_faults(len(self.committee))
        self.view_hint = 0
