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

The network also supports iid message drops and group partitions, used by
fault-injection tests and the view-change machinery.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.common.config import NetworkConfig
from repro.common.errors import NetworkError
from repro.common.rng import DeterministicRNG
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.message import Envelope, Payload
from repro.net.simulator import Simulator
from repro.net.stats import TrafficStats

#: Type of the callback a node registers to receive processed messages.
Handler = Callable[[Envelope], None]


class NodeInterface:
    """A node's handle onto the network (returned by ``register``)."""

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
        self._busy_until: dict[int, float] = {}
        # sender-side NIC serialization (only when bandwidth modelling on)
        self._tx_busy_until: dict[int, float] = {}
        self._offline: set[int] = set()
        self._partition: dict[int, int] = {}
        self._processing_interval = 1.0 / self.config.processing_rate
        # per-node processing-interval overrides (heterogeneous device
        # profiles); empty for uniform fleets, so the hot path below
        # falls through to the scalar with identical float arithmetic
        self._node_interval: dict[int, float] = {}
        # NetworkConfig is frozen, so the per-send scalars can be read
        # once instead of through two attribute hops per message
        self._overhead_bytes = self.config.envelope_overhead_bytes
        self._drop_probability = self.config.drop_probability
        self._bandwidth_bps = self.config.bandwidth_bps
        # per-destination processing queue: only the *head* message of a
        # node's backlog owns a scheduled ``_process`` event; followers
        # wait here with their (already final) fire times and are
        # scheduled as the chain advances.  This keeps the simulator
        # heap at O(nodes + in-flight) instead of O(total backlog): at
        # n = 202 a quorum burst would otherwise park thousands of
        # ``_process`` events in the heap, and every heappush/heappop
        # would pay the log of that backlog.  Fire times are computed
        # at arrival, so delivery order does not depend on the chain.
        self._proc_queue: dict[int, deque[tuple[float, Envelope]]] = {}
        # encode-once fan-out: a multicast calls ``send`` once per
        # recipient with the *same* payload object, so one (strongly
        # referenced) cache entry answers kind/size for the whole burst
        # without re-walking the payload's size model per copy
        self._cached_payload: Payload | None = None
        self._cached_kind: str = ""
        self._cached_size: int = 0

    # -- membership -------------------------------------------------------

    def register(self, node_id: int, handler: Handler) -> NodeInterface:
        """Attach *handler* as the receive callback of *node_id*.

        Raises:
            NetworkError: if the id is already registered.
        """
        if node_id in self._handlers:
            raise NetworkError(f"node {node_id} already registered")
        self._handlers[node_id] = handler
        self._busy_until[node_id] = 0.0
        return NodeInterface(self, node_id)

    def is_registered(self, node_id: int) -> bool:
        """True iff *node_id* currently has a handler attached."""
        return node_id in self._handlers

    @property
    def node_ids(self) -> list[int]:
        """Sorted ids of all registered nodes."""
        return sorted(self._handlers)

    def set_processing_interval(self, node_id: int, interval_s: float) -> None:
        """Override the per-message processing time of one node.

        Heterogeneous device profiles use this to model CPU class: a
        constrained board takes ``interval_s`` seconds per received
        message instead of the uniform ``1 / processing_rate``.

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
            self._offline.add(node_id)
        else:
            self._offline.discard(node_id)

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
        if payload is self._cached_payload:
            kind = self._cached_kind
            size = self._cached_size
        else:
            kind = payload.kind
            size = payload.size_bytes + self._overhead_bytes
            self._cached_payload = payload
            self._cached_kind = kind
            self._cached_size = size
        envelope = Envelope(
            src=src,
            dst=dst,
            payload=payload,
            overhead_bytes=self._overhead_bytes,
            sent_at=self.sim.now,
            kind=kind,
            size_bytes=size,
        )
        # bytes are charged per recipient even though the payload's wire
        # image was computed once for the whole fan-out
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

        delay = self.latency.sample(src, dst, self.rng)
        if self._bandwidth_bps > 0:
            # serialize through the sender's NIC before propagation: a
            # multicast of k messages leaves the sender one after another
            tx_time = size * 8.0 / self._bandwidth_bps
            tx_start = max(self.sim.now, self._tx_busy_until.get(src, 0.0))
            tx_done = tx_start + tx_time
            self._tx_busy_until[src] = tx_done
            delay += tx_done - self.sim.now
        self.sim.schedule(delay, self._arrive, envelope)

    def multicast(self, src: int, dsts: Iterable[int], payload: Payload) -> None:
        """Send *payload* to every destination in *dsts* except *src*.

        Deliberately routed through :meth:`send` per destination: test
        and verification harnesses (``SendPerturber``, ``MessageTracer``)
        wrap ``send`` to observe or perturb each copy, and the
        encode-once cache already collapses the per-copy payload work.
        """
        for dst in dsts:
            if dst != src:
                self.send(src, dst, payload)

    # -- delivery -------------------------------------------------------------

    def _arrive(self, envelope: Envelope) -> None:
        """Message reached the destination NIC; enqueue for processing.

        The processing-slot end time is fixed here, exactly as if the
        ``_process`` event were scheduled immediately; but only the
        backlog head actually sits in the simulator heap -- the rest
        wait in the node's FIFO until :meth:`_process` chains them in.
        """
        dst = envelope.dst
        if dst not in self._handlers or dst in self._offline:
            self.stats.on_drop(envelope.kind)
            return
        now = self.sim.now
        start = self._busy_until.get(dst, 0.0)
        if start < now:
            start = now
        overrides = self._node_interval
        if overrides:
            done = start + overrides.get(dst, self._processing_interval)
        else:
            done = start + self._processing_interval
        self._busy_until[dst] = done
        queue = self._proc_queue.get(dst)
        if queue:
            queue.append((done, envelope))
            return
        if queue is None:
            self._proc_queue[dst] = queue = deque()
        queue.append((done, envelope))
        self.sim.schedule_at(done, self._process, envelope)

    def _process(self, envelope: Envelope) -> None:
        """Processing slot finished; hand the message to the node.

        Chains the next queued message (if any) into the simulator
        before delivering, mirroring the sequence numbers the eager
        scheduling would have produced for this node.
        """
        dst = envelope.dst
        # the queue exists whenever a head event fires (created by
        # _arrive, never deleted) and this envelope is its head
        queue = self._proc_queue[dst]
        queue.popleft()
        if queue:
            nxt_done, nxt_env = queue[0]
            self.sim.schedule_at(nxt_done, self._process, nxt_env)
        if dst in self._offline:
            self.stats.on_drop(envelope.kind)
            return
        self.stats.on_deliver(dst, envelope.kind, envelope.size_bytes)
        # _arrive admitted dst as registered, and handlers are never removed
        self._handlers[dst](envelope)

    def queue_depth_s(self, node_id: int) -> float:
        """Seconds of processing backlog currently queued at *node_id*."""
        return max(0.0, self._busy_until.get(node_id, 0.0) - self.sim.now)
