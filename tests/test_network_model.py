"""Model-based property test for the network's delivery path.

One generated program -- unicast and multicast bursts, crashes and
recoveries in the middle of a backlog, partitions, random drops,
per-node processing intervals, sends to an id nobody registered -- is
run twice: on :class:`repro.net.network.SimulatedNetwork` and on an
eager oracle that spends one event on every arrival and one on every
completion, over a plain list it re-sorts by ``(time, seq)`` before
each fire.  The two must hand the same messages to the same handlers at
the same simulated times and end with equal traffic counters.  A
handler is handed the payload alone, so every generated payload names
its sender in its body, and the oracle checks that name.  Nothing
here depends on how the network stores its backlog, so the test holds
for any implementation of the arrive-then-serve contract.  The real
side hands each multicast to ``SimulatedNetwork.multicast``; the oracle
only knows per-copy sends, so the batched fan-out is held to them.

What the contract leaves open is the order of two completions at
*different* nodes at exactly the same instant.  With jittered latency
that never happens, handlers answer what they receive, and the global
call sequence must match.  With constant latency it happens all the
time, handlers only record, and the comparison is per node.

Some runs add a second network at another (or the same) processing rate
on the same simulator, playing the same program with its own seed: its
completions share the event queue with the first network's, on the
simulator's fixed-delay lane or on its heap.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.config import NetworkConfig
from repro.common.errors import NetworkError
from repro.common.rng import DeterministicRNG
from repro.net.latency import (
    ConstantLatency, LatencyModel, LognormalLatency, UniformLatency)
from repro.net.message import RawPayload
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.stats import TrafficStats

NODES = (0, 1, 2, 3, 4)
NOBODY = 99


class _Loop:
    """The oracle's event queue: a plain list, re-sorted before each fire."""

    def __init__(self):
        self.now, self._seq, self._events = 0.0, 0, []

    def schedule_at(self, time, callback, *args):
        self._events.append((time, self._seq, callback, args))
        self._seq += 1

    def run(self):
        while self._events:
            self._events.sort(key=lambda event: event[:2])
            self.now, _, callback, args = self._events.pop(0)
            callback(*args)


class _Oracle:
    """One event per arrival, one per completion, slots handed out FIFO."""

    def __init__(self, loop, config, latency, drop):
        self.loop = loop
        self.config, self.latency, self.drop = config, latency, drop
        self.rng = DeterministicRNG(config.seed, "network")
        self.stats = TrafficStats()
        self.handlers, self.offline, self.partition = {}, set(), {}
        self.intervals, self.fifo = {}, {}

    @property
    def now(self):
        return self.loop.now

    def schedule_at(self, time, callback, *args):
        self.loop.schedule_at(time, callback, *args)

    def set_offline(self, node, offline):
        (self.offline.add if offline else self.offline.discard)(node)

    def set_partition(self, groups):
        self.partition = dict(groups or {})

    def set_processing_interval(self, node, interval):
        self.intervals[node] = interval

    def send(self, src, dst, payload):
        size = payload.size_bytes
        self.stats.on_send(src, payload.kind, size)
        p = self.drop
        if (src in self.offline or dst in self.offline
                or self.partition.get(src, -1) != self.partition.get(dst, -1)
                or (p > 0 and self.rng.random() < p)):
            return self.stats.on_drop()
        delay = self.latency.sample(src, dst, self.rng)
        self.schedule_at(self.now + delay, self._arrive, src, dst, payload, size)

    def multicast(self, src, dsts, payload):
        for dst in dsts:
            if dst != src:
                self.send(src, dst, payload)

    def _arrive(self, src, dst, payload, size):
        if dst not in self.handlers or dst in self.offline:
            return self.stats.on_drop()
        queue = self.fifo.setdefault(dst, [])
        queue.append((src, payload, size))
        if len(queue) == 1:
            self._start_slot(dst)

    def _start_slot(self, dst):
        interval = self.intervals.get(dst, 1.0 / self.config.processing_rate)
        self.schedule_at(self.now + interval, self._complete, dst)

    def _complete(self, dst):
        src, payload, size = self.fifo[dst].pop(0)
        if self.fifo[dst]:
            self._start_slot(dst)
        if dst in self.offline:
            return self.stats.on_drop()
        self.stats.on_deliver(dst, size)
        self.handlers[dst](self.now, dst, src, payload)


class _Run:
    """Drives one program against the real networks or their oracles.

    Each of *configs* is one network on the shared event queue, and
    each plays the whole program; a call records the network's index.
    """

    def __init__(self, configs, latency, drop, real, echo):
        self.calls, self.echo = [], echo
        self.sim = Simulator() if real else _Loop()
        self.nets = []
        for index, config in enumerate(configs):
            if real:
                net = SimulatedNetwork(self.sim, config, latency())
                net.set_drop_probability(drop)
                for node in NODES:
                    net.register(node, lambda p, node=node, index=index: self.handle(
                        index, self.sim.now, node, p.body[2], p))
            else:
                net = _Oracle(self.sim, config, latency(), drop)
                net.handlers = dict.fromkeys(NODES, partial(self.handle, index))
            self.nets.append(net)

    def handle(self, index, now, dst, src, payload):
        self.calls.append((now, index, dst, src, payload))
        ttl = payload.body[1]
        if self.echo and ttl > 0:
            answer = RawPayload(payload.kind, payload.size_bytes,
                                (payload.body[0], ttl - 1, dst))
            for peer in (src, (dst + ttl) % len(NODES)):
                if peer != dst:
                    self.nets[index].send(dst, peer, answer)

    def apply(self, net, op):
        kind, _, *args = op
        if kind == "send":
            src, dst, count, size, ttl = args
            for i in range(count):
                net.send(src, dst, RawPayload(f"k{size % 3}", size, (i, ttl, src)))
        elif kind == "multicast":
            src, size, ttl = args
            net.multicast(src, NODES + (NOBODY,),
                          RawPayload("cast", size, (0, ttl, src)))
        elif kind == "offline":
            net.set_offline(*args)
        elif kind == "partition":
            net.set_partition(dict(zip(NODES, args[0])) if args[0] else None)
        else:
            assert kind == "interval", op
            net.set_processing_interval(*args)

    def run(self, program):
        for op in program:  # queued first: at a tie, an op precedes traffic
            for net in self.nets:
                self.sim.schedule_at(op[1], self.apply, net, op)
        self.sim.run()
        return self.calls, [net.stats.snapshot() for net in self.nets]


# everything on a 0.05 s grid, like the 0.1 s slot: ties are the rule
_times = st.integers(0, 24).map(lambda k: k * 0.05)
_node = st.sampled_from(NODES)
_size = st.integers(1, 400)
_ttl = st.integers(0, 2)
_ops = st.one_of(
    st.tuples(st.just("send"), _times, _node, st.sampled_from(NODES + (NOBODY,)),
              st.integers(1, 12), _size, _ttl),
    st.tuples(st.just("multicast"), _times, _node, _size, _ttl),
    st.tuples(st.just("offline"), _times, _node, st.booleans()),
    st.tuples(st.just("partition"), _times,
              st.one_of(st.none(), st.tuples(*[st.integers(0, 1)] * len(NODES)))),
    st.tuples(st.just("interval"), _times, _node,
              st.sampled_from([0.05, 0.1, 0.25, 0.013])),
)
_latency = st.one_of(
    st.tuples(st.just("uniform"), st.sampled_from([0.0, 0.01, 0.3]),
              st.sampled_from([0.005, 0.2])),
    st.tuples(st.just("constant"), st.sampled_from([0.0, 0.05, 0.1, 0.017])),
    st.tuples(st.just("lognormal"), st.sampled_from([0.02, 0.2]),
              st.sampled_from([0.0, 0.5])),
)
_MODELS = {"uniform": UniformLatency, "constant": ConstantLatency,
           "lognormal": LognormalLatency}


@given(program=st.lists(_ops, min_size=1, max_size=25), latency=_latency,
       drop=st.sampled_from([0.0, 0.0, 0.3]), seed=st.integers(0, 5),
       second=st.sampled_from([None, None, 4.0, 10.0]))
@settings(max_examples=300, deadline=None, derandomize=True)
# a backlogged node slowed mid-run, beside a network at another rate on
# the same simulator: equal arrivals, and completions on the lane and
# on the heap at once
@example(program=[("send", 0.0, 1, 0, 6, 10, 0), ("multicast", 0.0, 2, 10, 0),
                  ("send", 0.05, 3, 0, 4, 10, 0), ("interval", 0.15, 0, 0.25),
                  ("multicast", 0.2, 4, 10, 0)],
         latency=("constant", 0.05), drop=0.0, seed=0, second=4.0)
# an arrival at the very instant of a crash is lost, one at the very
# instant of recovery is kept, also behind a backlog: faults go first
@example(program=[("send", 0.0, 1, 0, 1, 10, 0), ("offline", 0.0, 0, True),
                  ("offline", 0.05, 0, False)],
         latency=("constant", 0.0), drop=0.0, seed=0, second=None)
@example(program=[("send", 0.0, 1, 0, 3, 10, 0), ("send", 0.1, 1, 0, 1, 10, 0),
                  ("offline", 0.1, 0, True), ("offline", 3 * 0.05, 0, False)],
         latency=("constant", 0.05), drop=0.0, seed=0, second=None)
@example(program=[("send", 0.0, 1, 0, 3, 10, 0), ("send", 0.05, 1, 0, 1, 10, 0),
                  ("offline", 0.1, 0, True), ("offline", 0.2, 0, False)],
         latency=("constant", 0.05), drop=0.0, seed=0, second=None)
@example(program=[("send", 0.0, 1, 0, 3, 10, 0), ("send", 0.05, 1, 0, 1, 10, 0),
                  ("offline", 0.1, 0, True), ("offline", 3 * 0.05, 0, True),
                  ("offline", 0.2, 0, False)],
         latency=("constant", 0.05), drop=0.0, seed=0, second=None)
def test_network_matches_the_event_per_arrival_model(program, latency, drop, seed,
                                                      second):
    configs = [NetworkConfig(processing_rate=10.0, seed=seed)]
    if second is not None:
        configs.append(NetworkConfig(processing_rate=second, seed=seed + 7))
    # equal delays make equal-time completions; sigma 0 is a constant
    jittered = latency[0] != "constant" and latency[-1] > 0

    def model():
        return _MODELS[latency[0]](*latency[1:])

    real = _Run(configs, model, drop, real=True, echo=jittered)
    calls, stats = real.run(program)
    want_calls, want_stats = _Run(configs, model, drop, real=False,
                                  echo=jittered).run(program)
    if not jittered:  # same-instant completions at different nodes: any order
        calls.sort(key=lambda call: call[:3])
        want_calls.sort(key=lambda call: call[:3])
    assert calls == want_calls
    assert stats == want_stats
    assert real.sim.pending == 0 and not any(
        port.inbox or port.arrived for net in real.nets for port in net._ports.values())


class _Scripted(LatencyModel):
    """Hands out the listed delays, one per send."""

    def __init__(self, *delays):
        self._delays = list(delays)

    def sample(self, src, dst, rng):
        return self._delays.pop(0)


class TestOfflineWindowsAgainstABacklog:
    """Node 0 serves three early arrivals at 0.11, 0.21 and 0.31."""

    def _net(self, *later_delays):
        sim = Simulator()
        net = SimulatedNetwork(sim, NetworkConfig(processing_rate=10.0),
                               _Scripted(0.01, 0.01, 0.01, *later_delays))
        got = []
        net.register(0, lambda p: got.append((round(sim.now, 6), p.kind)))
        net.register(1, lambda p: None)
        for kind in ("a1", "a2", "a3") + tuple(f"x{i}" for i in range(len(later_delays))):
            net.send(1, 0, RawPayload(kind, 10))
        return sim, net, got

    def test_arrival_while_offline_and_busy_is_dropped_without_taking_a_slot(self):
        sim, net, got = self._net(0.15, 0.36)
        sim.schedule_at(0.12, net.set_offline, 0, True)
        sim.schedule_at(0.35, net.set_offline, 0, False)
        sim.run()
        # a2, a3 complete while down; x0 arrived while down and the node is
        # still down when the backlog reaches it at 0.31; x1 finds it idle
        assert got == [(0.11, "a1"), (0.46, "x1")]
        assert net.stats.messages_dropped == 3

    def test_arrival_before_the_crash_is_delivered_when_its_slot_ends_after_recovery(self):
        sim, net, got = self._net()
        sim.schedule_at(0.12, net.set_offline, 0, True)
        sim.schedule_at(0.25, net.set_offline, 0, False)
        sim.run()
        assert got == [(0.11, "a1"), (0.31, "a3")]
        assert net.stats.messages_dropped == 1

    def test_arrival_inside_a_window_that_ends_before_the_backlog_reaches_it_is_dropped(self):
        sim, net, got = self._net(0.15, 0.2)
        sim.schedule_at(0.12, net.set_offline, 0, True)
        sim.schedule_at(0.18, net.set_offline, 0, False)
        sim.run()
        # x0 (arrived 0.15) is gone and took no slot: x1 is served right after a3
        assert got == [(0.11, "a1"), (0.21, "a2"), (0.31, "a3"), (0.41, "x1")]
        assert net.stats.messages_dropped == 1


class TestContractEdges:
    def test_interval_override_applies_to_slots_that_start_after_the_call(self):
        sim = Simulator()
        net = SimulatedNetwork(sim, NetworkConfig(processing_rate=10.0),
                               ConstantLatency(0.0))
        times = []
        net.register(0, lambda p: times.append(round(sim.now, 6)))
        net.register(1, lambda p: None)
        for _ in range(3):
            net.send(1, 0, RawPayload("k", 10))
        sim.schedule_at(0.05, net.set_processing_interval, 0, 0.5)
        sim.run()
        # the message in service keeps its 0.1 s slot; the two queued
        # behind it start theirs after the call and take 0.5 s each
        assert times == [0.1, 0.6, 1.1]

    @pytest.mark.parametrize("delay", [-0.25, float("nan")])
    @pytest.mark.parametrize("busy", [False, True])
    def test_bad_delay_from_the_latency_model_is_refused_by_send(self, delay, busy):
        sim = Simulator()
        net = SimulatedNetwork(sim, latency=_Scripted(0.0, delay))
        net.register(0, lambda p: None)
        net.register(1, lambda p: None)
        net.send(1, 0, RawPayload("k", 10))
        if busy:
            sim.step()  # the wake: node 0 is now serving, no event per send
        with pytest.raises(NetworkError, match=f"delay must be >= 0, got {delay}"):
            net.send(1, 0, RawPayload("k", 10))

    @pytest.mark.parametrize("delay", [-0.25, float("nan")])
    def test_bad_delay_from_the_latency_model_is_refused_by_multicast(self, delay):
        net = SimulatedNetwork(Simulator(), latency=_Scripted(0.0, delay))
        for node in range(3):
            net.register(node, lambda p: None)
        with pytest.raises(NetworkError, match=f"delay must be >= 0, got {delay}"):
            net.multicast(0, range(3), RawPayload("k", 10))


def test_backlogged_burst_costs_one_event_per_message_on_the_lane_and_a_fifo():
    nodes = 202
    sim = Simulator()
    net = SimulatedNetwork(sim, NetworkConfig(processing_rate=10.0))
    for node in range(nodes):
        net.register(node, lambda p: None)
    peak = lane_peak = 0
    firsts = 0  # completions filed on the heap
    process = net._process

    def serve(port):
        # every service start, wakes included, comes through here
        nonlocal firsts, lane_peak
        first = port.done is None
        process(port)
        # what has arrived waits in the FIFO, never in the in-flight heap
        assert not port.inbox or port.inbox[0][0] > sim.now
        if port.serving is not None:
            if first:
                firsts += 1
            else:  # the handlers send nothing: the lane's tail is this one
                assert sim._lane[-1][2] is port.done
        lane_peak = max(lane_peak, len(sim._lane))

    def watch(_event):
        nonlocal peak
        peak = max(peak, sim.heap_size)

    net._process = serve
    payload = RawPayload("burst", 100)
    # staggered so that copies keep arriving behind a backlog
    for src in range(nodes):
        sim.schedule_at(src * 0.005, net.multicast, src, range(nodes), payload)
    sim.set_step_hook(watch)
    sim.run()
    assert net.stats.messages_delivered == nodes * (nodes - 1)
    assert sim.events_processed <= 1.05 * net.stats.messages_delivered
    # the heap held wakes and each node's first completion; every later
    # completion rode the lane, one entry per busy node
    assert firsts == nodes and lane_peak <= nodes
    # one completion or wake per node, plus superseded wakes not yet
    # compacted away; an event per in-flight message would be ~nodes**2
    assert peak <= 3 * nodes
