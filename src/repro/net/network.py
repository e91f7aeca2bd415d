"""The simulated message-passing network.

Model
-----
A message from ``src`` to ``dst`` experiences:

1. **propagation delay** drawn from the latency model, then
2. **serial processing** at the destination: each node is a single-server
   queue that processes one message every ``1 / processing_rate``
   seconds, in arrival order.

(2) is what makes PBFT latency grow with committee size.  With the
paper's model of a node that "can receive and process *s* messages per
second" (section IV-B), collecting a quorum of ~2n/3 messages takes
~2n/(3s) seconds per phase -- the O(n/s) consensus-latency bound the
evaluation confirms.  Propagation alone would never reproduce that.

Only completions are simulator events.  ``send`` fixes the arrival time
and files the message in the destination's *inbox*, a heap ordered by
(arrival time, send order).  A busy node owns one simulator entry, the
completion of the message in service; when it fires, the earliest
message that has arrived by then starts its slot, which therefore ends
at ``max(previous completion, arrival) + interval``.  An idle node owns
one *wake* entry at its earliest pending arrival.  A message arriving
while its destination is offline is dropped without taking a slot, as
if an event had fired at its arrival (after a fault at that instant).

``multicast`` is ``send`` for a whole fan-out -- PBFT's prepare and
commit phases are all-to-all broadcasts, so this is where the traffic
is: the payload's kind and size are read once, the traffic counters are
charged once with a copy count, the latency model is asked for every
delay in one call, and one pass files the copies.  It is the same
simulation as one ``send`` per destination: the same random draws in
the same order, the same envelope order and the same wakes.

The network also supports iid message drops and group partitions, used by
fault-injection tests and the view-change machinery.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Protocol, Sequence

from repro.common.config import NetworkConfig
from repro.common.errors import NetworkError
from repro.common.rng import DeterministicRNG
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.message import Envelope, Payload
from repro.net.simulator import ScheduledEvent, Simulator
from repro.net.stats import TrafficStats

#: Type of the callback a node registers to receive processed messages.
Handler = Callable[[Envelope], None]


class Transport(Protocol):
    """What a protocol engine sends through: one node's way out.

    Replicas, clients and G-PBFT nodes hold one of these instead of the
    network, so the same engine runs on a cluster, inside an era and on
    the hierarchy's backbone.
    """

    def send(self, dst: int, payload: Payload) -> None:
        """Unicast *payload* to *dst*."""

    def multicast(self, dsts: Sequence[int], payload: Payload) -> None:
        """Send *payload* to every id in *dsts*.

        What happens to the holder's own id, if listed, is the handle's
        business: :class:`NodeInterface` skips it, a G-PBFT node hands
        itself the copy.
        """


class NodeInterface:
    """A node's handle onto the network: the plain :class:`Transport`.

    ``register`` returns one; a host that must build the engine before
    it can register the engine's handler makes one directly.
    """

    __slots__ = ("_network", "node_id")

    def __init__(self, network: "SimulatedNetwork", node_id: int) -> None:
        self._network = network
        self.node_id = node_id

    def send(self, dst: int, payload: Payload) -> None:
        """Unicast *payload* to *dst*."""
        self._network.send(self.node_id, dst, payload)

    def multicast(self, dsts: Iterable[int], payload: Payload) -> None:
        """Send *payload* to every id in *dsts* (skipping self)."""
        self._network.multicast(self.node_id, dsts, payload)


class SimulatedNetwork:
    """Deterministic network over a :class:`Simulator`.

    Args:
        sim: the event loop to schedule deliveries on.
        config: rates, overheads, drop probability.
        latency: propagation model; defaults to uniform jitter from config.
        rng: random stream for jitter and drops; forked from config.seed
            when omitted.
    """

    def __init__(
        self,
        sim: Simulator,
        config: NetworkConfig | None = None,
        latency: LatencyModel | None = None,
        rng: DeterministicRNG | None = None,
    ) -> None:
        self.sim = sim
        self.config = config or NetworkConfig()
        self.latency: LatencyModel = latency or UniformLatency(
            self.config.base_latency_s, self.config.latency_jitter_s
        )
        self.rng = rng or DeterministicRNG(self.config.seed, "network")
        self.stats = TrafficStats()
        self._handlers: dict[int, Handler] = {}
        # sender-side NIC serialization (only when bandwidth modelling on)
        self._tx_free_at: dict[int, float] = {}
        self._offline: dict[int, float] = {}  # node -> offline since
        self._partition: dict[int, int] = {}
        self._processing_interval = 1.0 / self.config.processing_rate
        # per-node processing-interval overrides (heterogeneous device
        # profiles); empty for uniform fleets
        self._node_interval: dict[int, float] = {}
        # NetworkConfig is frozen, so the per-send scalars can be read
        # once instead of through two attribute hops per message
        self._overhead_bytes = self.config.envelope_overhead_bytes
        self._drop_probability = self.config.drop_probability
        self._bandwidth_bps = self.config.bandwidth_bps
        # per-destination inbox of (arrival time, envelope id, envelope);
        # ids rise with send order, so ties keep it.  The simulator heap
        # holds one entry per node -- the completion of the message in
        # service or the wake of an idle node -- never the backlog.
        self._inbox: defaultdict[int, list[tuple[float, int, Envelope]]] = defaultdict(list)
        self._serving: set[int] = set()
        self._wakes: dict[int, ScheduledEvent] = {}
        # iid drops interleave their draws with the delays copy by copy
        # and a bandwidth model queues copies through the sender's NIC:
        # with either on, a multicast is its per-copy sends
        self._copy_by_copy = self._drop_probability > 0 or self._bandwidth_bps > 0

    # -- membership -------------------------------------------------------

    def register(self, node_id: int, handler: Handler) -> NodeInterface:
        """Attach *handler* as the receive callback of *node_id*.

        Raises:
            NetworkError: if the id is already registered.
        """
        if node_id in self._handlers:
            raise NetworkError(f"node {node_id} already registered")
        self._handlers[node_id] = handler
        return NodeInterface(self, node_id)

    def set_processing_interval(self, node_id: int, interval_s: float) -> None:
        """Override the per-message processing time of one node.

        Heterogeneous device profiles use this to model CPU class: a
        constrained board takes ``interval_s`` seconds per received
        message instead of the uniform ``1 / processing_rate``.  It
        applies to messages whose service starts after the call; the
        one in service keeps the slot it was given.

        Raises:
            NetworkError: on an unknown node or non-positive interval.
        """
        if node_id not in self._handlers:
            raise NetworkError(f"unknown node {node_id}")
        if interval_s <= 0:
            raise NetworkError("processing interval must be positive")
        self._node_interval[node_id] = interval_s

    def processing_interval(self, node_id: int) -> float:
        """Effective per-message processing time of *node_id*."""
        return self._node_interval.get(node_id, self._processing_interval)

    # -- fault injection ----------------------------------------------------

    def set_offline(self, node_id: int, offline: bool = True) -> None:
        """Silently discard all traffic to/from *node_id* while offline."""
        if offline:
            self._offline.setdefault(node_id, self.sim.now)
            return
        since = self._offline.pop(node_id, None)
        inbox = self._inbox.get(node_id)
        if since is None or not inbox:
            return
        # what arrived during the outage and still waits behind the
        # backlog was lost on arrival; earlier arrivals keep their slot
        now = self.sim.now
        kept = []
        for entry in inbox:
            if since <= entry[0] < now:
                self.stats.on_drop(entry[2].kind)
            else:
                kept.append(entry)
        if len(kept) != len(inbox):
            inbox[:] = kept
            heapify(inbox)

    def set_partition(self, groups: dict[int, int] | None) -> None:
        """Partition nodes into groups; traffic only flows within a group.

        Args:
            groups: node id -> group label.  Unlisted nodes form the
                implicit group ``-1``.  ``None`` heals the partition.
        """
        self._partition = dict(groups) if groups else {}

    def _group(self, node_id: int) -> int:
        return self._partition.get(node_id, -1)

    # -- sending ------------------------------------------------------------

    def send(self, src: int, dst: int, payload: Payload) -> None:
        """Unicast *payload*; accounting happens even if later dropped,
        because the bytes left the sender either way."""
        if src not in self._handlers:
            raise NetworkError(f"unknown sender {src}")
        kind = payload.kind
        size = payload.size_bytes + self._overhead_bytes
        self.stats.on_send(src, kind, size)

        if src in self._offline or dst in self._offline:
            self.stats.on_drop(kind)
            return
        if self._partition and self._group(src) != self._group(dst):
            self.stats.on_drop(kind)
            return
        if self._drop_probability > 0 and self.rng.random() < self._drop_probability:
            self.stats.on_drop(kind)
            return

        now = self.sim.now
        delay = self.latency.sample(src, dst, self.rng)
        if self._bandwidth_bps > 0:
            # serialize through the sender's NIC before propagation: a
            # multicast of k messages leaves the sender one after another
            tx_time = size * 8.0 / self._bandwidth_bps
            tx_start = max(now, self._tx_free_at.get(src, 0.0))
            tx_done = tx_start + tx_time
            self._tx_free_at[src] = tx_done
            delay += tx_done - now
        if not delay >= 0:
            raise NetworkError(f"delay must be >= 0, got {delay}")
        arrive = now + delay
        envelope = Envelope(src, dst, payload, self._overhead_bytes, now,
                            kind=kind, size_bytes=size)
        heappush(self._inbox[dst], (arrive, envelope.envelope_id, envelope))
        if dst in self._serving:
            return  # admitted when the message in service completes
        wake = self._wakes.get(dst)
        if wake is None or arrive < wake.time:
            if wake is not None:
                wake.cancel()
            self._wakes[dst] = self.sim.schedule_at(arrive, self._wake, dst)

    def multicast(self, src: int, dsts: Iterable[int], payload: Payload) -> None:
        """Send *payload* to every destination in *dsts* except *src*.

        One operation for the whole fan-out, equal in every simulated
        respect to one :meth:`send` per destination in *dsts* order:
        bytes are charged per recipient, a copy to an offline or
        other-partition destination is charged and counted as dropped
        without drawing a delay, the delays are the doubles the per-copy
        draws would have produced, envelope ids and wakes follow
        destination order.

        The copies go through :meth:`send` one by one when drops or the
        bandwidth model are on (see ``_copy_by_copy``) and when ``send``
        has been replaced on this instance: a harness that assigns
        ``network.send`` (``NetworkTap``, ``SendPerturber``, a capture
        tap) sees, and decides on, every copy of every broadcast.
        """
        # a replaced ``send`` is any callable but the class's own method;
        # a harness that detaches by assigning the original back qualifies
        # for the batched path again
        if (self._copy_by_copy
                or getattr(self.send, "__func__", None) is not type(self).send):
            for dst in dsts:
                if dst != src:
                    self.send(src, dst, payload)
            return
        targets = [dst for dst in dsts if dst != src]
        if not targets:
            return
        if src not in self._handlers:
            raise NetworkError(f"unknown sender {src}")
        kind = payload.kind
        size = payload.size_bytes + self._overhead_bytes
        stats = self.stats
        stats.on_send(src, kind, size, len(targets))
        offline = self._offline
        if offline or self._partition:
            group = self._partition.get
            own = group(src, -1)
            live = [] if src in offline else [
                dst for dst in targets
                if dst not in offline and group(dst, -1) == own]
            if len(live) < len(targets):
                stats.on_drop(kind, len(targets) - len(live))
                targets = live

        now = self.sim.now
        overhead = self._overhead_bytes
        inbox = self._inbox
        serving = self._serving
        wakes = self._wakes
        schedule_at = self.sim.schedule_at
        for dst, delay in zip(targets, self.latency.sample_many(src, targets, self.rng)):
            if not delay >= 0:
                raise NetworkError(f"delay must be >= 0, got {delay}")
            arrive = now + delay
            envelope = Envelope(src, dst, payload, overhead, now,
                                kind=kind, size_bytes=size)
            heappush(inbox[dst], (arrive, envelope.envelope_id, envelope))
            if dst in serving:
                continue  # admitted when the message in service completes
            wake = wakes.get(dst)
            if wake is None or arrive < wake.time:
                if wake is not None:
                    wake.cancel()
                wakes[dst] = schedule_at(arrive, self._wake, dst)

    # -- delivery -------------------------------------------------------------

    def _wake(self, dst: int) -> None:
        """The earliest message bound for idle node *dst* has arrived."""
        del self._wakes[dst]
        self._serving.add(dst)
        self._serve_next(dst)

    def _serve_next(self, dst: int) -> None:
        """Start the slot of the earliest arrived message, or go idle.

        The arrival-time checks run here: an unregistered node is never
        busy, so its inbox is read at the instant of arrival, and an
        offline one lost whatever arrived since it went down.
        """
        inbox = self._inbox[dst]
        now = self.sim.now
        while inbox and inbox[0][0] <= now:
            arrive, _, envelope = heappop(inbox)
            since = self._offline.get(dst)
            if dst not in self._handlers or (since is not None and arrive >= since):
                self.stats.on_drop(envelope.kind)
                continue
            interval = self._node_interval.get(dst, self._processing_interval)
            self.sim.schedule_at(now + interval, self._process, envelope)
            return
        self._serving.discard(dst)
        if inbox:
            self._wakes[dst] = self.sim.schedule_at(inbox[0][0], self._wake, dst)

    def _process(self, envelope: Envelope) -> None:
        """Processing slot finished; hand the message to the node.

        The next slot starts first, so the node's next completion is
        sequenced ahead of anything the handler schedules.
        """
        dst = envelope.dst
        self._serve_next(dst)
        if dst in self._offline:
            self.stats.on_drop(envelope.kind)
            return
        self.stats.on_deliver(dst, envelope.kind, envelope.size_bytes)
        # service only starts for a registered dst; handlers are never removed
        self._handlers[dst](envelope)
