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

Everything the network knows about one node id sits in one record, its
*port*: the receive handler, two queues of the messages bound for it --
the *inbox*, a heap of those still in flight ordered by (arrival time,
send order), and *arrived*, a FIFO of those that have arrived and wait
for service -- the processing interval, since when it has been offline,
whether a message is in service, the wake it has armed, and what it has
sent and delivered.  ``send`` looks the destination's port up once,
fixes the arrival time and files the message in the inbox; the
simulator events that follow carry the port, so delivery never looks a
node up.  A message in flight is one plain tuple, its *envelope*, which
both queues hold as is::

    (arrive, envelope_id, src, dst, payload, kind, size_bytes)   # 0..6

``envelope_id`` is unique and rises with send order, so a comparison
stops there; ``size_bytes`` is the payload's serialized size, all a
message costs on the wire.

Each service start moves every inbox envelope that has arrived by then
to the back of the FIFO and serves the FIFO's head.  That is the order
one heap of both would pop: delays are never negative and the clock
never goes back, so an envelope still in flight at a move arrives no
earlier than one moved, and at an equal arrival it was sent later.  A
backlogged node's queue is thus a deque whose ends are O(1), while the
heap holds the few envelopes in flight (under one on average in every
benchmark workload).  When the FIFO is empty and one envelope has
arrived, it is served straight from the inbox.

A handler is called with the payload alone, ``handler(payload)``.
Ports count their own sends and deliveries, a send bumps
:class:`TrafficStats`' per-kind maps in place, and the stats read the
ports when asked: no counter costs a call.

Only completions are simulator events.  A busy node owns one simulator
entry, the completion of the message in service; when it fires, the
earliest message that has arrived by then starts its slot, which
therefore ends at ``max(previous completion, arrival) + interval``.  The
first completion is scheduled with ``schedule_at``; each later one is
re-queued at ``now + interval``, onto the simulator's fixed-delay lane
when the interval is the lane's delay (that of the first completion
scheduled on the simulator, so every node's of a uniform network) and
onto its heap otherwise.
An idle node owns one *wake* entry at its earliest pending arrival.  A
message arriving while its destination is offline is dropped without
taking a slot, as if an event had fired at its arrival (after a fault at
that instant).

``multicast`` is ``send`` for a whole fan-out -- PBFT's prepare and
commit phases are all-to-all broadcasts, so this is where the traffic
is: the payload's kind and size are read once, the traffic counters are
charged once with a copy count, every delay is drawn in one call, and
one pass files the copies.  It is the same simulation as one ``send``
per destination: the same random draws in the same order, the same
envelope order and the same wakes.

A small committee's send reaches two or three copies, so what an
operation costs before its first copy weighs as much as a copy.  For an
exact :class:`UniformLatency` with jitter, the default, the network
draws the doubles itself and computes ``now + (base + jitter * x)``, the
model's own expression; any other model is asked through ``sample``.
It reads the doubles straight from the stream's drawn block while it
lasts, the values ``doubles`` would return, and calls it only to refill.

The network also supports offline nodes, group partitions and iid
message drops (``set_offline``, ``set_partition``, ``set_drop_probability``),
used by fault-injection tests, the schedule explorer and the view-change
machinery.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from functools import partial
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Protocol, Sequence

from repro.common.config import NetworkConfig
from repro.common.errors import NetworkError
from repro.common.rng import DeterministicRNG
from repro.net.latency import (
    BASE_LATENCY_S, LATENCY_JITTER_S, LatencyModel, UniformLatency)
from repro.net.message import Payload
from repro.net.simulator import ScheduledEvent, Simulator
from repro.net.stats import TrafficStats

#: A node's receive callback: it is handed each processed payload.
Handler = Callable[[Payload], None]


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

    Attributes:
        multicast: ``multicast(dsts, payload)`` sends to every id in
            *dsts* but this one: the network's ``multicast`` with the id
            bound by ``functools.partial``, so the handle adds no frame.
    """

    __slots__ = ("_network", "node_id", "multicast")

    def __init__(self, network: "SimulatedNetwork", node_id: int) -> None:
        self._network = network
        self.node_id = node_id
        self.multicast: Callable[[Iterable[int], Payload], None] = partial(
            network.multicast, node_id)

    def send(self, dst: int, payload: Payload) -> None:
        """Unicast *payload* to *dst* (through ``network.send`` as it is
        now: a harness may replace it on the instance)."""
        self._network.send(self.node_id, dst, payload)


class _Port:
    """What the network keeps for one node id (see the module docstring).

    Attributes:
        node_id: the id this port belongs to.
        handler: receive callback; ``None`` until the id registers, and
            for a destination nobody ever registers.
        inbox: heap of the envelopes still in flight (see the module
            docstring).
        arrived: FIFO of the envelopes that have arrived, oldest first.
        interval: seconds one message occupies the node.
        offline_since: when the node went offline, ``None`` while up.
        serving: the message in service (its completion is queued), or
            ``None`` while the node is idle.
        done: the node's completion event, made at its first slot and
            re-queued for every slot after it.
        wake: the armed wake of an idle node with pending arrivals.
        sent: copies sent, dropped ones too.
        delivered, delivered_bytes: messages handed to the handler, and
            their on-wire bytes.
    """

    __slots__ = ("node_id", "handler", "inbox", "arrived", "interval", "offline_since",
                 "serving", "done", "wake", "sent", "delivered", "delivered_bytes")

    def __init__(self, node_id: int, interval: float) -> None:
        self.node_id = node_id
        self.handler: Handler | None = None
        self.inbox: list[tuple] = []
        self.arrived: deque[tuple] = deque()
        self.interval = interval
        self.offline_since: float | None = None
        self.serving: tuple | None = None
        self.done: ScheduledEvent | None = None
        self.wake: ScheduledEvent | None = None
        self.sent = 0
        self.delivered = 0
        self.delivered_bytes = 0


class SimulatedNetwork:
    """Deterministic network over a :class:`Simulator`.

    Args:
        sim: the event loop to schedule deliveries on.
        config: processing rate and seed.
        latency: propagation model; defaults to ``BASE_LATENCY_S`` plus
            uniform jitter up to ``LATENCY_JITTER_S``.
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
        self.latency = latency or UniformLatency(BASE_LATENCY_S, LATENCY_JITTER_S)
        self.rng = rng or DeterministicRNG(self.config.seed, "network")
        # node id -> port, made on first mention: by register, by a
        # fault, or by a message to an id nobody has registered.  The
        # simulator holds one entry per port, in its heap or its lane --
        # the completion of the message in service or the wake of an
        # idle node -- never the backlog.
        self._ports: dict[int, _Port] = {}
        self.stats = TrafficStats(self._ports)
        self._offline_count = 0
        self._partition: dict[int, int] = {}
        self._processing_interval = 1.0 / self.config.processing_rate
        # ids rise with send order, so equal arrival times keep it
        self._envelope_ids = itertools.count()
        # iid drops (off until ``set_drop_probability``) interleave their
        # draws with the delays copy by copy: with them on, a multicast
        # is its per-copy sends
        self._drop_probability = 0.0
        self._copy_by_copy = False

    @property
    def latency(self) -> LatencyModel:
        """The propagation model; assigning one applies to later sends."""
        return self._latency

    @latency.setter
    def latency(self, model: LatencyModel) -> None:
        """Use *model*; an exact :class:`UniformLatency` with jitter is
        drawn inline (a subclass may sample otherwise)."""
        self._latency = model
        self._uniform = ((model.base_s, model.jitter_s)
                         if type(model) is UniformLatency and model.jitter_s > 0
                         else None)

    # -- membership -------------------------------------------------------

    def _port(self, node_id: int) -> _Port:
        """Get-or-create the port of *node_id*."""
        port = self._ports.get(node_id)
        if port is None:
            port = self._ports[node_id] = _Port(node_id, self._processing_interval)
        return port

    def register(self, node_id: int, handler: Handler) -> NodeInterface:
        """Attach *handler* as the receive callback of *node_id*.

        It is called with each processed message's payload alone, the
        object that was sent: a host registers its engine's ``receive``.

        Raises:
            NetworkError: if the id is negative or already registered.
        """
        if node_id < 0:
            raise NetworkError(f"invalid node id {node_id}")
        port = self._port(node_id)
        if port.handler is not None:
            raise NetworkError(f"node {node_id} already registered")
        port.handler = handler
        return NodeInterface(self, node_id)

    def set_handler(self, node_id: int, handler: Handler) -> None:
        """Swap the receive callback of the registered *node_id* (a host
        routing by its own state does so at that state's edges); the next
        delivery reads it.  An unregistered id is a ``NetworkError``."""
        port = self._ports.get(node_id)
        if port is None or port.handler is None:
            raise NetworkError(f"node {node_id} is not registered")
        port.handler = handler

    def set_processing_interval(self, node_id: int, interval_s: float) -> None:
        """Override the per-message processing time of one node.

        Heterogeneous device profiles use this to model CPU class: a
        constrained board takes ``interval_s`` seconds per received
        message instead of the uniform ``1 / processing_rate``.  It
        applies to messages whose service starts after the call; the
        one in service keeps the slot it was given.

        Raises:
            NetworkError: on an unknown node, or an interval that is not
                a positive finite number of seconds.
        """
        port = self._ports.get(node_id)
        if port is None or port.handler is None:
            raise NetworkError(f"unknown node {node_id}")
        if not (interval_s > 0 and math.isfinite(interval_s)):
            raise NetworkError(f"processing interval of node {node_id} must be "
                               f"positive and finite, got {interval_s}")
        port.interval = interval_s

    def processing_interval(self, node_id: int) -> float:
        """Effective per-message processing time of *node_id*."""
        port = self._ports.get(node_id)
        return self._processing_interval if port is None else port.interval

    # -- fault injection ----------------------------------------------------

    def set_offline(self, node_id: int, offline: bool = True) -> None:
        """Silently discard all traffic to/from *node_id* while offline."""
        port = self._port(node_id)
        since = port.offline_since
        if offline:
            if since is None:
                port.offline_since = self.sim.now
                self._offline_count += 1
            return
        if since is None:
            return
        port.offline_since = None
        self._offline_count -= 1
        # what arrived during the outage and still waits behind the
        # backlog was lost on arrival; earlier arrivals keep their slot
        now = self.sim.now
        for queue in (port.arrived, port.inbox):
            kept = [envelope for envelope in queue
                    if not since <= envelope[0] < now]  # arrive
            if len(kept) != len(queue):
                self.stats.on_drop(len(queue) - len(kept))
                queue.clear()  # in place, the FIFO keeping its order
                queue.extend(kept)
        heapify(port.inbox)

    def set_partition(self, groups: dict[int, int] | None) -> None:
        """Partition nodes into groups; traffic only flows within a group.

        Args:
            groups: node id -> group label.  Unlisted nodes form the
                implicit group ``-1``.  ``None`` heals the partition.
        """
        self._partition = dict(groups) if groups else {}

    def set_drop_probability(self, p: float) -> None:
        """Lose each message sent from now on independently with chance *p*.

        ``0``, the setting a network starts with, stops the loss.  A lost
        copy is charged and counted as dropped, like any other network
        drop.

        Raises:
            NetworkError: unless ``0 <= p <= 1``.
        """
        if not 0.0 <= p <= 1.0:
            raise NetworkError(f"drop probability must be in [0, 1], got {p}")
        self._drop_probability = p
        self._copy_by_copy = p > 0

    def _group(self, node_id: int) -> int:
        return self._partition.get(node_id, -1)

    # -- sending ------------------------------------------------------------

    def send(self, src: int, dst: int, payload: Payload) -> None:
        """Unicast *payload*; accounting happens even if later dropped,
        because the bytes left the sender either way."""
        sender = self._ports.get(src)
        if sender is None or sender.handler is None:
            raise NetworkError(f"unknown sender {src}")
        kind = payload.kind
        size = payload.size_bytes
        sender.sent += 1
        stats = self.stats
        stats.bytes_by_kind[kind] += size
        stats.messages_by_kind[kind] += 1

        port = self._ports.get(dst)
        if port is None:
            port = self._port(dst)
        if sender.offline_since is not None or port.offline_since is not None:
            stats.on_drop()
            return
        if self._partition and self._group(src) != self._group(dst):
            stats.on_drop()
            return
        if self._drop_probability > 0 and self.rng.random() < self._drop_probability:
            stats.on_drop()
            return

        uniform = self._uniform
        if uniform is None:
            delay = self._latency.sample(src, dst, self.rng)
            if not delay >= 0:
                raise NetworkError(f"delay must be >= 0, got {delay}")
            arrive = self.sim.now + delay
        else:
            rng = self.rng  # ``rng.doubles(1)[0]``, no call while the block lasts
            used = rng._used
            if used < len(rng._block):
                rng._used = used + 1
                x = rng._block[used]
            else:
                x = rng.doubles(1)[0]
            arrive = self.sim.now + (uniform[0] + uniform[1] * x)
        heappush(port.inbox,
                 (arrive, next(self._envelope_ids), src, dst, payload, kind, size))
        if port.serving is not None:
            return  # admitted when the message in service completes
        wake = port.wake
        if wake is None or arrive < wake.time:
            if wake is not None:
                wake.cancel()
            port.wake = self.sim.schedule_at(arrive, self._wake, port)

    def multicast(self, src: int, dsts: Iterable[int], payload: Payload) -> None:
        """Send *payload* to every destination in *dsts* except *src*.

        One operation for the whole fan-out, equal in every simulated
        respect to one :meth:`send` per destination in *dsts* order:
        bytes are charged per recipient, a copy to an offline or
        other-partition destination is charged and counted as dropped
        without drawing a delay, the delays are the doubles the per-copy
        draws would have produced, envelope ids and wakes follow
        destination order.  Each destination's port is looked up once
        and takes its copy, its serving test and its wake from there.

        The copies go through :meth:`send` one by one when drops are on
        (see ``_copy_by_copy``) and when ``send`` has been replaced on
        this instance.  Nothing in ``repro`` replaces it; the fallback is
        kept for ``perfbench``'s payload capture, which must see every
        copy of every broadcast.
        """
        # a replaced ``send`` is an instance attribute other than the
        # class's own method; a harness that detaches by assigning the
        # original back qualifies for the batched path again
        replaced = self.__dict__.get("send")
        if self._copy_by_copy or (
                replaced is not None
                and getattr(replaced, "__func__", None) is not type(self).send):
            for dst in dsts:
                if dst != src:
                    self.send(src, dst, payload)
            return
        targets = list(dsts)
        while src in targets:  # C-level scans: no comprehension frame
            targets.remove(src)
        if not targets:
            return
        ports = self._ports.get
        sender = ports(src)
        if sender is None or sender.handler is None:
            raise NetworkError(f"unknown sender {src}")
        kind = payload.kind
        size = payload.size_bytes
        copies = len(targets)
        sender.sent += copies
        stats = self.stats
        stats.bytes_by_kind[kind] += size * copies
        stats.messages_by_kind[kind] += copies
        if self._offline_count or self._partition:
            group = self._partition.get
            own = group(src, -1)
            live = [] if sender.offline_since is not None else [
                dst for dst in targets
                if ((port := ports(dst)) is None or port.offline_since is None)
                and group(dst, -1) == own]
            if len(live) < copies:
                stats.on_drop(copies - len(live))
                targets = live

        uniform = self._uniform
        if uniform is None:
            # any other model's own delays, checked, then filed as
            # 0.0 + 1.0 * delay: the delay itself, bit for bit
            draws = self._latency.sample_many(src, targets, self.rng)
            for delay in draws:
                if not delay >= 0:
                    raise NetworkError(f"delay must be >= 0, got {delay}")
            base, jitter = 0.0, 1.0
        else:
            base, jitter = uniform
            rng = self.rng  # ``rng.doubles(k)``, no call while the block lasts
            used = rng._used
            end = used + len(targets)
            if end <= len(rng._block):
                rng._used = end
                draws = rng._block[used:end]
            else:
                draws = rng.doubles(len(targets))
        now = self.sim.now
        envelope_ids = self._envelope_ids
        schedule_at = self.sim.schedule_at
        for dst, x in zip(targets, draws):
            arrive = now + (base + jitter * x)
            port = ports(dst)
            if port is None:
                port = self._port(dst)
            heappush(port.inbox,
                     (arrive, next(envelope_ids), src, dst, payload, kind, size))
            if port.serving is not None:
                continue  # admitted when the message in service completes
            wake = port.wake
            if wake is None or arrive < wake.time:
                if wake is not None:
                    wake.cancel()
                port.wake = schedule_at(arrive, self._wake, port)

    # -- delivery -------------------------------------------------------------

    def _wake(self, port: _Port) -> None:
        """The earliest message bound for the idle node has arrived: a
        completion with nothing to hand over."""
        port.wake = None
        self._process(port)

    def _process(self, port: _Port) -> None:
        """A processing slot finished: start the next, hand its message over.

        The next slot starts first, so the node's next completion is
        sequenced ahead of anything the handler schedules.  It goes to
        the earliest message that has arrived by now -- the FIFO's head,
        once every arrived envelope has moved there -- and the
        arrival-time checks run here: a node nobody registered is never
        busy, so its inbox is read at the instant of arrival, and an
        offline one lost whatever arrived since it went down.  With
        nothing to serve the node goes idle, behind a wake if a message
        is still on its way.  The completion is the port's one event:
        only the first is scheduled, so a wrapper of ``schedule_at`` sees
        every completion's callback, and each later slot re-queues it here.
        """
        envelope = port.serving
        inbox, arrived = port.inbox, port.arrived
        sim = self.sim
        now = sim.now
        while True:
            if arrived:
                while inbox and inbox[0][0] <= now:  # the head's ``arrive``
                    arrived.append(heappop(inbox))
                due = arrived.popleft()
            elif inbox and inbox[0][0] <= now:
                due = heappop(inbox)  # served straight, the rest queue behind
                while inbox and inbox[0][0] <= now:
                    arrived.append(heappop(inbox))
            else:
                port.serving = None
                if inbox:
                    port.wake = sim.schedule_at(inbox[0][0], self._wake, port)
                break
            since = port.offline_since
            if port.handler is None or (since is not None and due[0] >= since):
                self.stats.on_drop()
                continue
            port.serving = due
            interval = port.interval
            done = port.done
            if done is None:
                if sim._lane_delay is None:
                    sim._lane_delay = interval
                port.done = sim.schedule_at(now + interval, self._process, port)
            else:
                # re-queued as ``schedule_at`` files a new event (a fresh
                # seq); it fired, so ``cancelled`` is already False
                done.time = time = now + interval
                done.seq = seq = next(sim._counter)
                if interval == sim._lane_delay:
                    sim._lane.append((time, seq, done))
                else:
                    done._sim = sim
                    heappush(sim._heap, (time, seq, done))
            break
        if envelope is None:
            return
        if port.offline_since is not None:
            self.stats.on_drop()
            return
        port.delivered += 1
        port.delivered_bytes += envelope[6]  # size_bytes
        # service only starts at a registered port; handlers are swapped, never removed
        port.handler(envelope[4])  # payload
