"""Unit tests: simulator, network, latency models, stats (repro.net)."""

import inspect
import itertools
import math

import pytest

from repro.common.config import NetworkConfig
from repro.common.errors import NetworkError
from repro.common.eventlog import EV_PBFT_STATE_TRANSFER
from repro.common.rng import DeterministicRNG
from repro.geo.coords import LatLng
from repro.net.latency import (
    ConstantLatency,
    DistanceLatency,
    LognormalLatency,
    UniformLatency,
)
from repro.net.message import RawPayload
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.stats import TrafficStats


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(1.0, fired.append, 2)
        sim.run()
        assert fired == [1, 2]

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_run_until_advances_clock_exactly(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        sim.run()
        assert sim.now == 10.0

    def test_rejects_scheduling_in_past(self):
        sim = Simulator()
        with pytest.raises(NetworkError):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(NetworkError):
            sim.schedule_at(1.0, lambda: None)

    def test_rejects_nan_times_but_parked_timers_stay_legal(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "b")
        with pytest.raises(NetworkError, match="nan"):
            sim.schedule(float("nan"), fired.append, "x")
        with pytest.raises(NetworkError, match="nan"):
            sim.schedule_at(float("nan"), fired.append, "x")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(0.5, fired.append, "z")
        parked = [sim.schedule(1e12, fired.append, "far"),
                  sim.schedule(float("inf"), fired.append, "never"),
                  sim.schedule_at(float("inf"), fired.append, "never")]
        assert sim.pending == 6
        sim.run(until=10.0)
        assert fired == ["z", "a", "b"] and sim.now == 10.0
        for event in parked:
            event.cancel()
        assert sim.run() == 0 and sim.now == 10.0

    @pytest.mark.parametrize("call, name", [
        (lambda sim: sim.run(until=float("nan")), "until"),
        (lambda sim: sim.run_for(float("nan")), "duration"),
        (lambda sim: sim.run_until_condition(lambda: False, horizon=float("nan")),
         "horizon"),
    ], ids=["run", "run_for", "run_until_condition"])
    def test_a_nan_run_bound_is_refused_instead_of_draining_the_queue(self, call, name):
        sim = Simulator()
        fired = []
        sim.schedule(1e6, fired.append, "timer")
        with pytest.raises(NetworkError, match=name):
            call(sim)
        assert fired == [] and sim.now == 0.0 and sim.pending == 1

    def test_max_events_cap_does_not_tick_a_timestamp_it_did_not_reach(self):
        sim = Simulator()
        ticks = []
        sim.set_tick_hook(ticks.append)
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.run(max_events=1) == 1
        assert ticks == [1.0]
        sim.schedule_at(1.5, lambda: None)
        sim.run()
        # strictly increasing: the window-closing contract of repro.obs
        assert ticks == [1.0, 1.5, 2.0]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, fired.append, "nested"))
        sim.run()
        assert fired == ["nested"]
        assert sim.now == 2.0

    def test_max_events_cap(self):
        sim = Simulator()
        def reschedule():
            sim.schedule(1.0, reschedule)
        sim.schedule(1.0, reschedule)
        fired = sim.run(max_events=10)
        assert fired == 10

    def test_run_until_condition(self):
        sim = Simulator()
        counter = []
        for i in range(10):
            sim.schedule(float(i + 1), counter.append, i)
        met = sim.run_until_condition(lambda: len(counter) >= 3)
        assert met and len(counter) == 3
        met = sim.run_until_condition(lambda: len(counter) >= 100)
        assert not met  # queue drained first


    @pytest.mark.parametrize("drain", ["run", "run_until", "step", "run_max"])
    def test_setting_a_hook_mid_drain_raises(self, drain):
        sim = Simulator()
        errors = []

        def attach():
            for setter in (sim.set_step_hook, sim.set_tick_hook):
                with pytest.raises(NetworkError, match="while events are being drained"):
                    setter(lambda *args: None)
                errors.append(setter)

        sim.schedule(1.0, attach)
        {"run": lambda: sim.run(), "run_until": lambda: sim.run(until=5.0),
         "step": sim.step, "run_max": lambda: sim.run(max_events=3)}[drain]()
        assert len(errors) == 2
        sim.set_step_hook(None)  # between drains it is allowed again
        sim.set_tick_hook(None)

    def test_plain_drain_counts_events_once_even_when_a_callback_raises(self):
        sim = Simulator()

        def fail():
            raise RuntimeError("handler failed")

        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, fail)
        sim.schedule(3.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run()
        # the one that raised counts
        assert (sim.events_processed, sim.now, sim.pending) == (2, 2.0, 1)
        sim.set_step_hook(lambda event: None)  # the drain is over
        assert sim.run() == 1 and sim.events_processed == 3

    def test_a_nested_drain_leaves_hooks_locked_until_the_outer_one_ends(self):
        sim = Simulator()
        errors = []

        def nest():
            sim.step()
            with pytest.raises(NetworkError, match="while events are being drained"):
                sim.set_step_hook(lambda event: None)
            errors.append(True)

        sim.schedule(1.0, nest)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert errors == [True]
        sim.set_step_hook(None)

    @pytest.mark.parametrize("hooked", [False, True])
    def test_a_nested_drain_counts_its_events(self, hooked):
        sim = Simulator()
        if hooked:
            sim.set_step_hook(lambda event: None)
        sim.schedule(1.0, sim.step)  # fires the 2.0 event from inside
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        assert sim.run() == 2  # the outer drain's own events
        assert sim.events_processed == 3

    @pytest.mark.parametrize("drain", ["run", "run_until", "step", "run_max", "condition"])
    def test_hooks_read_the_exact_event_count(self, drain):
        sim = Simulator()
        at_tick, at_step = [], []
        sim.set_tick_hook(lambda time: at_tick.append(sim.events_processed))
        sim.set_step_hook(lambda event: at_step.append(sim.events_processed))
        sim.schedule(0.5, lambda: None)
        sim.step()
        for t in (1.0, 1.0, 2.5, 4.0):
            sim.schedule_at(t, sim.step if t == 2.5 else lambda: None)
        {"run": lambda: sim.run(), "run_until": lambda: sim.run(until=9.0),
         "step": lambda: [sim.step() for _ in range(3)],
         "run_max": lambda: sim.run(max_events=3),
         "condition": lambda: sim.run_until_condition(lambda: False)}[drain]()
        # the tick hook sees the events before its time, the step hook
        # counts the one about to fire; the 2.5 event steps the 4.0 one
        assert at_tick == [0, 1, 3, 4]
        assert at_step == [1, 2, 3, 4, 5]
        assert sim.events_processed == 5

    @pytest.mark.parametrize("cap", [0, -3])
    def test_a_cap_of_zero_or_below_fires_nothing(self, cap):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "x")
        assert sim.run(max_events=cap) == 0
        assert sim.run_until_condition(lambda: False, max_events=cap) is False
        assert fired == [] and sim.now == 0.0 and sim.events_processed == 0


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.05)
        assert model.sample(0, 1, DeterministicRNG(1)) == 0.05

    def test_uniform_bounds(self):
        model = UniformLatency(0.01, 0.02)
        rng = DeterministicRNG(2)
        for _ in range(100):
            d = model.sample(0, 1, rng)
            assert 0.01 <= d <= 0.03

    def test_lognormal_positive(self):
        model = LognormalLatency(0.02)
        rng = DeterministicRNG(3)
        assert all(model.sample(0, 1, rng) > 0 for _ in range(50))

    @pytest.mark.parametrize("model", [
        UniformLatency(0.01, 0.005), UniformLatency(0.02, 0.0),
        LognormalLatency(0.02), ConstantLatency(0.05)])
    def test_sample_many_is_sample_per_destination(self, model):
        batched, scalar = DeterministicRNG(6, "network"), DeterministicRNG(6, "network")
        dsts = list(range(1, 40))
        assert model.sample_many(0, dsts, batched) == [
            model.sample(0, dst, scalar) for dst in dsts]
        assert model.sample_many(0, [], batched) == []
        assert batched.random() == scalar.random()  # same draws consumed

    def test_distance_model_scales_with_distance(self):
        near = LatLng(22.30, 114.16)
        far = near.offset_m(50_000.0, 0.0)
        model = DistanceLatency({0: near, 1: near.offset_m(10.0, 0.0), 2: far},
                                per_hop_s=0.0)
        rng = DeterministicRNG(4)
        assert model.sample(0, 2, rng) > model.sample(0, 1, rng)

    def test_distance_model_default_for_unknown(self):
        model = DistanceLatency({}, default_s=0.123, per_hop_s=0.0)
        assert model.sample(5, 6, DeterministicRNG(5)) == pytest.approx(0.123)

    def test_validation(self):
        with pytest.raises(NetworkError):
            ConstantLatency(-1.0)
        with pytest.raises(NetworkError):
            UniformLatency(-0.1, 0.0)
        with pytest.raises(NetworkError):
            LognormalLatency(0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name, build", [
        ("delay_s", lambda v: ConstantLatency(v)),
        ("base_s", lambda v: UniformLatency(v, 0.0)),
        ("jitter_s", lambda v: UniformLatency(0.01, v)),
        ("median_s", lambda v: LognormalLatency(v)),
        ("sigma", lambda v: LognormalLatency(0.02, sigma=v)),
        ("per_hop_s", lambda v: DistanceLatency({}, per_hop_s=v)),
        ("default_s", lambda v: DistanceLatency({}, default_s=v)),
    ])
    def test_non_finite_parameters_are_refused_by_name(self, name, build, bad):
        with pytest.raises(NetworkError, match=f"{name} must be finite"):
            build(bad)

    def test_an_infinite_delay_cannot_reach_a_network(self):
        # it used to: the send was accepted and never delivered, one
        # event pending forever with no error
        with pytest.raises(NetworkError, match="base_s"):
            sim = Simulator()
            net = SimulatedNetwork(sim, latency=UniformLatency(math.inf, 0.0))
            net.register(0, lambda p: None)
            net.register(1, lambda p: None)
            net.send(0, 1, RawPayload("k", 10))
            sim.run(until=100.0)


class TestSimulatedNetwork:
    def _net(self, **kwargs):
        sim = Simulator()
        cfg = NetworkConfig(**kwargs)
        return sim, SimulatedNetwork(sim, cfg)

    def test_a_busy_port_requeues_its_completion_with_exact_accounting(self):
        # the fired completion goes back as a new event would: a fresh
        # seq, so it fires after an event scheduled earlier for the same
        # instant, and the pending and heap counts stay exact
        sim = Simulator()
        net = SimulatedNetwork(sim, NetworkConfig(processing_rate=1.0),
                               latency=ConstantLatency(0.0))
        got = []
        net.register(0, lambda p: None)
        net.register(1, lambda p: got.append((sim.now, p.kind)))
        net.send(0, 1, RawPayload("a", 10))
        net.send(0, 1, RawPayload("b", 10))
        marker = sim.schedule_at(2.0, lambda: got.append((sim.now, "marker")))
        sim.run(until=0.5)
        done = net._ports[1].done
        assert done.time == 1.0 and (sim.pending, sim.heap_size) == (2, 2)
        sim.run(until=1.0)
        assert got == [(1.0, "a")]
        assert net._ports[1].done is done and done.time == 2.0 and done.seq > marker.seq
        assert (sim.pending, sim.heap_size) == (2, 2)
        sim.run()
        assert got == [(1.0, "a"), (2.0, "marker"), (2.0, "b")]
        done.cancel()  # after firing: no longer counted anywhere
        assert (sim.pending, sim.heap_size) == (0, 0)

    def test_a_capped_run_leaves_the_clock_before_a_lane_completion_still_due(self):
        sim = Simulator()
        net = SimulatedNetwork(sim, NetworkConfig(processing_rate=1.0),
                               latency=ConstantLatency(0.0))
        got = []
        net.register(0, lambda p: None)
        net.register(1, lambda p: got.append((sim.now, p.kind)))
        for kind in "abc":
            net.send(0, 1, RawPayload(kind, 10))
        sim.run(until=1.0)
        # b's completion at 2.0 rides the lane, the heap is empty
        assert (len(sim._heap), len(sim._lane), sim.pending) == (0, 1, 1)
        assert sim.run(until=5.0, max_events=0) == 0
        assert sim.now == 1.0  # not 5.0: the lane still holds an event due by then
        sim.run()
        assert got == [(1.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_delivery_and_accounting(self):
        sim, net = self._net()
        got = []
        net.register(0, got.append)
        net.register(1, lambda p: None)
        net.send(1, 0, RawPayload("k", 100))
        sim.run()
        assert len(got) == 1
        assert net.stats.bytes_sent == 100
        assert net.stats.messages_delivered == 1

    def test_the_handler_is_handed_the_sent_payload_itself(self):
        sim, net = self._net()
        got = {node: [] for node in range(4)}
        for node in range(4):
            net.register(node, got[node].append)
        unicast, broadcast = RawPayload("k", 10), RawPayload("k", 20)
        net.send(0, 1, unicast)
        net.multicast(0, range(4), broadcast)
        sim.run()
        assert got[0] == [] and {id(p) for p in got[1]} == {id(unicast), id(broadcast)}
        assert got[2][0] is broadcast and got[3][0] is broadcast

    def test_a_swapped_handler_takes_the_next_delivery(self):
        sim, net = self._net()
        net.latency = ConstantLatency(0.01)
        first, second = [], []
        net.register(0, first.append)
        net.register(1, lambda p: None)
        net.send(1, 0, RawPayload("a", 10))
        net.send(1, 0, RawPayload("b", 10))
        sim.run_until_condition(lambda: len(first) == 1)
        net.set_handler(0, second.append)
        sim.run()
        assert [p.kind for p in first] == ["a"] and [p.kind for p in second] == ["b"]
        # a destination nobody registered has a port, but no handler to swap
        net.send(1, 7, RawPayload("c", 10))
        for node_id in (7, 8):
            with pytest.raises(NetworkError, match=f"node {node_id} is not registered"):
                net.set_handler(node_id, second.append)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf"), 0.0, -0.1])
    def test_processing_interval_must_be_positive_and_finite(self, interval):
        sim, net = self._net()
        net.register(3, lambda p: None)
        with pytest.raises(NetworkError, match=f"node 3 .*got {interval}"):
            net.set_processing_interval(3, interval)
        assert net.processing_interval(3) == pytest.approx(0.1)

    def test_duplicate_registration_rejected(self):
        _, net = self._net()
        net.register(0, lambda p: None)
        with pytest.raises(NetworkError):
            net.register(0, lambda p: None)

    def test_unknown_sender_rejected(self):
        _, net = self._net()
        with pytest.raises(NetworkError):
            net.send(99, 0, RawPayload("k", 10))

    def test_send_to_unregistered_is_dropped(self):
        sim, net = self._net()
        net.register(0, lambda p: None)
        net.send(0, 42, RawPayload("k", 10))
        sim.run()
        assert net.stats.messages_dropped == 1
        assert net.stats.bytes_sent == 10  # bytes left the sender anyway

    def test_serial_processing_rate(self):
        # 10 messages at 10 msg/s must take ~1 s after arrival
        sim = Simulator()
        net = SimulatedNetwork(sim, NetworkConfig(processing_rate=10.0),
                               latency=ConstantLatency(0.0))
        times = []
        net.register(0, lambda p: times.append(sim.now))
        net.register(1, lambda p: None)
        for _ in range(10):
            net.send(1, 0, RawPayload("k", 10))
        sim.run()
        assert times[-1] == pytest.approx(1.0)
        assert times[0] == pytest.approx(0.1)

    def test_offline_node_receives_nothing(self):
        sim, net = self._net()
        got = []
        net.register(0, got.append)
        net.register(1, lambda p: None)
        net.set_offline(0)
        net.send(1, 0, RawPayload("k", 10))
        sim.run()
        assert got == [] and net.stats.messages_dropped == 1
        net.set_offline(0, offline=False)
        net.send(1, 0, RawPayload("k", 10))
        sim.run()
        assert len(got) == 1

    def test_partition_blocks_cross_group_traffic(self):
        sim, net = self._net()
        got_a, got_b = [], []
        net.register(0, got_a.append)
        net.register(1, got_b.append)
        net.register(2, lambda p: None)
        net.set_partition({0: 1, 1: 2, 2: 1})
        net.send(2, 0, RawPayload("k", 10))  # same group
        net.send(2, 1, RawPayload("k", 10))  # cross group
        sim.run()
        assert len(got_a) == 1 and got_b == []
        net.set_partition(None)
        net.send(2, 1, RawPayload("k", 10))
        sim.run()
        assert len(got_b) == 1

    def test_drop_probability(self):
        sim, net = self._net(seed=7)
        net.set_drop_probability(0.5)
        got = []
        net.register(0, got.append)
        net.register(1, lambda p: None)
        for _ in range(200):
            net.send(1, 0, RawPayload("k", 10))
        sim.run()
        assert 50 < len(got) < 150  # roughly half survive

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_set_drop_probability_rejects_values_outside_0_1(self, p):
        _, net = self._net()
        with pytest.raises(NetworkError, match=r"drop probability must be in \[0, 1\]"):
            net.set_drop_probability(p)

    def test_multicast_skips_sender(self):
        sim, net = self._net()
        got = {i: [] for i in range(3)}
        for i in range(3):
            net.register(i, got[i].append)
        net.multicast(0, [0, 1, 2], RawPayload("k", 10))
        sim.run()
        assert got[0] == [] and len(got[1]) == 1 and len(got[2]) == 1

    def test_wide_multicast_is_one_charge_one_draw_and_no_send(self, monkeypatch):
        calls = {"send": 0, "sample_many": 0, "sample": 0}

        class Counting(UniformLatency):
            def sample(self, src, dst, rng):
                calls["sample"] += 1
                return super().sample(src, dst, rng)

            def sample_many(self, src, dsts, rng):
                calls["sample_many"] += 1
                return super().sample_many(src, dsts, rng)

        original = SimulatedNetwork.send

        def counted_send(net, src, dst, payload):
            calls["send"] += 1
            original(net, src, dst, payload)

        def refuse(*args):
            raise AssertionError("a network send is charged inline, not by on_send")

        # on the class: an instance-level replacement would, by contract,
        # make multicast go copy by copy
        monkeypatch.setattr(SimulatedNetwork, "send", counted_send)
        # an exact UniformLatency is drawn by the network, a subclass asked
        for model, asked in ((UniformLatency, 0), (Counting, 1)):
            sim = Simulator()
            net = SimulatedNetwork(sim, latency=model(0.01, 0.005))
            net.stats.on_send = refuse
            draws, doubles = [], net.rng.doubles
            monkeypatch.setattr(net.rng, "doubles", lambda k: draws.append(k) or doubles(k))
            got = []
            for node in range(202):
                net.register(node, lambda p, node=node: got.append(node))
            net.multicast(7, range(202), RawPayload("k", 10))
            assert calls == {"send": 0, "sample_many": asked, "sample": 0}
            assert draws == [201]
            assert net._ports[7].sent == 201
            assert net.stats.messages_sent == 201
            assert net.stats.bytes_sent == 201 * 10  # payload size x copies
            assert net.stats.bytes_by_kind == {"k": 201 * 10}
            others = [n for n in range(202) if n != 7]
            ids = {net._ports[dst].inbox[0][1] for dst in others}
            assert len(ids) == 1  # one envelope id for the whole operation
            sim.run()
            assert sorted(got) == others

    def test_replaced_send_sees_every_copy_until_the_original_is_put_back(self):
        sim, net = self._net()
        for node in range(4):
            net.register(node, lambda p: None)
        original, seen = net.send, []
        # what the six copies must draw: the stream's first six doubles
        expected = DeterministicRNG(net.config.seed, "network").doubles(7)
        base, jitter = net.latency.base_s, net.latency.jitter_s

        def arrivals(dst):  # in send order (envelope id), not heap order
            return [e[0] for e in sorted(net._ports[dst].inbox, key=lambda e: e[1])]

        def tapped(src, dst, payload):
            seen.append(dst)
            original(src, dst, payload)

        net.send = tapped
        net.multicast(1, range(4), RawPayload("k", 10))
        assert seen == [0, 2, 3]
        net.send = original  # how a harness that taps sends detaches
        net.multicast(1, range(4), RawPayload("k", 10))
        # batched again: none seen by a tap, and the three copies took the
        # next three doubles in destination order, as three sends would
        assert seen == [0, 2, 3]
        for dst, first, second in ((0, 0, 3), (2, 1, 4), (3, 2, 5)):
            assert arrivals(dst) == [base + jitter * expected[first],
                                     base + jitter * expected[second]]
        assert net.rng.random() == expected[6]  # six doubles drawn, no more
        assert net._ports[1].sent == 6
        assert net.stats.bytes_by_kind == {"k": 6 * 10}  # size x copies

    @pytest.mark.parametrize("subclass", [False, True])
    def test_multicast_files_what_per_copy_sends_file(self, subclass):
        # the exact UniformLatency is drawn inline, a subclass through its
        # sample_many: either way the same arrivals and envelope order as
        # one send per destination, and the stream left where they leave it
        model = type("Jitter", (UniformLatency,), {}) if subclass else UniformLatency

        def run(batched):
            sim = Simulator()
            net = SimulatedNetwork(sim, NetworkConfig(processing_rate=20.0),
                                   latency=model(0.01, 0.005))
            got = []
            for node in range(6):
                net.register(node, lambda p, node=node: got.append((node, sim.now, p.kind)))
            for src in range(3):
                payload = RawPayload(f"k{src}", 10)
                if batched:
                    net.multicast(src, range(6), payload)
                else:
                    for dst in range(6):
                        if dst != src:
                            net.send(src, dst, payload)
            # each port's envelopes in (arrive, id) order, ids aside: a
            # multicast's copies share one id where sends draw one each
            filed = {node: [(arrive, payload, size)
                            for arrive, _, payload, size in sorted(port.inbox)]
                     for node, port in net._ports.items()}
            sim.run()
            return filed, got, net.rng.random()

        assert run(batched=True) == run(batched=False)

    def test_assigning_latency_after_construction_delays_send_and_multicast(self):
        sim, net = self._net()
        for node in range(3):
            net.register(node, lambda p: None)
        net.latency = ConstantLatency(0.5)
        net.send(0, 1, RawPayload("k", 10))
        net.multicast(0, range(3), RawPayload("k", 10))
        assert [e[0] for e in net._ports[1].inbox] == [0.5, 0.5]
        assert [e[0] for e in net._ports[2].inbox] == [0.5]
        net.latency = UniformLatency(2.0, 1.0)  # back to the inline draws
        net.send(0, 2, RawPayload("k", 10))
        net.multicast(1, range(3), RawPayload("k", 10))
        late = [e[0] for node in range(3) for e in net._ports[node].inbox if e[0] > 0.5]
        assert len(late) == 3 and all(2.0 <= t < 3.0 for t in late)

    def test_multicast_charges_then_drops_offline_and_partitioned_copies(self):
        sim, net = self._net()
        got = []
        for node in range(5):
            net.register(node, lambda p, node=node: got.append(node))
        net.set_offline(2)
        net.set_partition({0: 1, 1: 1, 2: 1, 3: 1})  # 4 is on its own
        net.multicast(0, range(5), RawPayload("k", 10))
        sim.run()
        assert sorted(got) == [1, 3]
        assert net.stats.messages_sent == 4 and net.stats.messages_dropped == 2
        net.set_offline(0)  # an offline sender loses the whole fan-out
        net.multicast(0, range(5), RawPayload("k", 10))
        sim.run()
        assert net.stats.messages_sent == 8 and net.stats.messages_dropped == 6

    def test_bandwidth_zero_means_unlimited(self):
        # senders have no NIC model: large messages leave at once
        sim = Simulator()
        net = SimulatedNetwork(sim, NetworkConfig(processing_rate=1e9),
                               latency=ConstantLatency(0.0))
        times = []
        net.register(0, lambda p: times.append(sim.now))
        net.register(1, lambda p: None)
        for _ in range(3):
            net.send(1, 0, RawPayload("k", 10_000))
        sim.run()
        assert all(t < 0.001 for t in times)

    def test_the_envelope_is_what_the_inbox_holds(self):
        sim = Simulator()
        net = SimulatedNetwork(sim, latency=ConstantLatency(0.25))
        got = []
        for node in range(3):
            net.register(node, got.append)
        # ids past CPython's small-int cache, so ``is`` tells one id
        # object from two equal ones
        first = 2 ** 40
        net._envelope_ids = itertools.count(first)
        payload = RawPayload("k", 100)
        net.send(0, 1, payload)
        net.multicast(0, range(3), payload)
        filed = sorted(entry for node in (1, 2) for entry in net._ports[node].inbox)
        # a plain tuple: immutable, no Python frame to build, no field names
        assert all(type(entry) is tuple for entry in filed)
        assert filed == [(0.25, first, payload, 100),
                         (0.25, first + 1, payload, 100),
                         (0.25, first + 1, payload, 100)]
        # the multicast drew one id, and both copies hold that one object
        assert filed[1][1] is filed[2][1]
        sim.run()
        assert len(got) == 3 and all(entry is payload for entry in got)
        assert [(net._ports[node].delivered, net._ports[node].delivered_bytes)
                for node in range(3)] == [(0, 0), (2, 200), (1, 100)]

    @pytest.mark.parametrize("batched", [False, True])
    def test_same_instant_copies_are_served_in_send_order_without_comparing_payloads(
            self, batched):
        class Incomparable:
            kind, size_bytes = "k", 10

            def __init__(self, tag):
                self.tag = tag

            def _refuse(self, other):
                raise AssertionError("an inbox comparison reached the payload")

            __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
            __hash__ = None

        sim = Simulator()
        net = SimulatedNetwork(sim, latency=ConstantLatency(0.5))
        served = []
        net.register(0, lambda p: served.append(p.tag))
        for node in (1, 2):
            net.register(node, lambda p: None)
        # same source, destination and arrival time, so only the id differs
        # ahead of the payload; a third copy from another sender in between
        for src, tag in ((1, "1a"), (2, "2b"), (1, "1c"), (1, "1d")):
            if batched:
                net.multicast(src, (0, src), Incomparable(tag))
            else:
                net.send(src, 0, Incomparable(tag))
        assert len({entry[0] for entry in net._ports[0].inbox}) == 1  # arrive
        sim.run()
        assert served == ["1a", "2b", "1c", "1d"]


class TestHostsRegisterBoundReceive:
    """Every built host hands the network its engine's bound method, so
    a delivery runs no wrapper frame between ``_process`` and ``receive``."""

    def _assert_bound_receive(self, network, owners):
        handlers = {node_id: port.handler for node_id, port in network._ports.items()
                    if port.handler is not None}
        assert handlers and set(handlers) == set(owners)
        for node_id, handler in handlers.items():
            assert inspect.ismethod(handler), (node_id, handler)
            assert handler.__self__ is owners[node_id]
            assert handler.__func__ is type(owners[node_id]).receive

    def test_cluster(self):
        from repro.common.config import TopologySpec

        cluster = TopologySpec.cluster(4, n_clients=2).build()
        self._assert_bound_receive(cluster.network,
                                   {**cluster.replicas, **cluster.clients})

    def test_deployment_ports_follow_the_routing_rule(self):
        from repro.common.config import TopologySpec

        dep = TopologySpec.single(6, 4, start_reports=False).build()
        routed = assert_ports_routed(dep.network, dep.nodes)
        assert routed == {0: "replica", 1: "replica", 2: "replica", 3: "replica",
                          4: "node", 5: "node"}

    def test_hierarchy_ports_follow_the_routing_rule(self):
        from repro.common.config import TopologySpec

        hier = TopologySpec.zoned(2, 5, start_reports=False).build()
        for zone in hier.zones:
            assert "replica" in assert_ports_routed(zone.network, zone.nodes).values()
        gateways = {gateway.backbone_id: gateway for gateway in hier.gateways}
        self._assert_bound_receive(hier.backbone, {**hier.replicas, **gateways})


def assert_ports_routed(network, nodes) -> dict:
    """Hold every G-PBFT node's port to the routing rule: its handler is
    a bound ``receive`` with no wrapper, the active replica's for an
    active endorser neither switching eras nor halted below the minimum,
    the node's otherwise; a stopped replica never holds it.  Returns
    node id -> ``"replica"`` or ``"node"``."""
    handlers = {node_id: port.handler for node_id, port in network._ports.items()
                if port.handler is not None}
    assert set(handlers) == set(nodes)
    routed = {}
    for node_id, node in nodes.items():
        replica = node.replica
        direct = (replica is not None and not node.switching
                  and not node.halted_below_minimum)
        owner = replica if direct else node
        handler = handlers[node_id]
        assert inspect.ismethod(handler), (node_id, handler)
        assert handler.__self__ is owner, (node_id, handler)
        assert handler.__func__ is type(owner).receive, (node_id, handler)
        assert not getattr(handler.__self__, "stopped", False), node_id
        routed[node_id] = "replica" if direct else "node"
    return routed


class TestSimulatorCompaction:
    def _noop(self):
        pass

    def test_mass_cancellation_keeps_heap_bounded(self):
        # 5000 timers, 4000 cancelled: the live counter must stay exact
        # and lazy compaction must shrink the heap well below the number
        # of cancelled entries ever created
        sim = Simulator()
        events = [sim.schedule(1.0 + i * 1e-3, self._noop) for i in range(5000)]
        assert sim.pending == 5000 and sim.heap_size == 5000
        for event in events[:4000]:
            event.cancel()
        assert sim.pending == 1000
        # compaction triggered at least once: without it the heap would
        # still hold all 5000 entries
        assert sim.heap_size <= 1500
        fired = sim.run()
        assert fired == 1000
        assert sim.pending == 0 and sim.heap_size == 0

    def test_cancel_is_idempotent_for_accounting(self):
        sim = Simulator()
        keep = sim.schedule(2.0, self._noop)
        victim = sim.schedule(1.0, self._noop)
        victim.cancel()
        victim.cancel()  # second cancel must not decrement again
        assert sim.pending == 1
        assert sim.run() == 1
        keep.cancel()  # cancelling after firing is a no-op
        assert sim.pending == 0

    def test_pending_tracks_pops_of_cancelled_entries(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), self._noop) for i in range(30)]
        for event in events[::2]:
            event.cancel()  # below the compaction floor: entries stay
        assert sim.pending == 15 and sim.heap_size == 30
        sim.run()
        assert sim.pending == 0 and sim.heap_size == 0
        assert sim.events_processed == 15


class TestStatsUnderMulticast:
    def _net(self):
        sim = Simulator()
        return sim, SimulatedNetwork(sim)

    def test_bytes_charged_per_recipient(self):
        # multicast reads kind/size once and charges the burst in one
        # call, but every recipient is still charged the full message size
        sim, net = self._net()
        for i in range(5):
            net.register(i, lambda p: None)
        net.multicast(0, range(5), RawPayload("pbft.prepare", 100))
        sim.run()
        assert net.stats.messages_sent == 4
        assert net.stats.bytes_sent == 4 * 100
        assert net.stats.messages_by_kind == {"pbft.prepare": 4}
        assert net.stats.bytes_by_kind == {"pbft.prepare": 4 * 100}
        assert net.stats.messages_delivered == 4
        assert net.stats.bytes_delivered == 4 * 100
        for dst in range(1, 5):
            assert net.stats.bytes_received_by_node[dst] == 100

    def test_multicast_accounting_identical_to_individual_sends(self):
        # same traffic, two paths: one payload object fanned out in one
        # batched call vs a fresh payload per send -- every counter
        # must agree
        sim_a, net_a = self._net()
        sim_b, net_b = self._net()
        for net in (net_a, net_b):
            for i in range(6):
                net.register(i, lambda p: None)
        shared = RawPayload("pbft.commit", 108)
        net_a.multicast(0, range(6), shared)
        for dst in range(1, 6):
            net_b.send(0, dst, RawPayload("pbft.commit", 108))
        sim_a.run()
        sim_b.run()
        assert net_a.stats.snapshot() == net_b.stats.snapshot()
        assert dict(net_a.stats.bytes_received_by_node) == \
            dict(net_b.stats.bytes_received_by_node)

    def test_interleaved_kinds_are_accounted_per_kind(self):
        # alternating payload objects: kind and size are read from the
        # payload on every send, so per-kind accounting stays exact
        sim, net = self._net()
        for i in range(3):
            net.register(i, lambda p: None)
        a = RawPayload("kind.a", 10)
        b = RawPayload("kind.b", 30)
        for _ in range(4):
            net.send(0, 1, a)
            net.send(0, 2, b)
        sim.run()
        assert net.stats.bytes_by_kind == {"kind.a": 4 * 10, "kind.b": 4 * 30}
        assert net.stats.messages_by_kind == {"kind.a": 4, "kind.b": 4}
        assert net.stats.messages_delivered == 8


class TestBytesChargedAtAdmission:
    """A port charges bytes when a message enters its FIFO and reads what
    it delivered as admitted, less lost, less still waiting or in service."""

    def test_delivered_bytes_equal_what_handlers_received_mid_run_and_after_a_crash(self):
        sim = Simulator()
        net = SimulatedNetwork(sim, NetworkConfig(processing_rate=10.0),
                               ConstantLatency(0.01))
        got = []
        net.register(0, lambda p: got.append(p.size_bytes))
        net.register(1, lambda p: None)
        for size in (10, 20, 40, 80, 160):  # all arrive at 0.01
            net.send(1, 0, RawPayload("k", size))
        sim.schedule_at(0.12, net.send, 1, 0, RawPayload("k", 320))  # arrives 0.13
        stats = net.stats

        def agree():
            assert stats.bytes_received_by_node[0] == sum(got)
            assert stats.snapshot().bytes_delivered == sum(got)

        sim.run(until=0.15)
        port = net._ports[0]
        # 10 delivered, 20 in service, three admitted behind it, 320 in flight
        assert got == [10] and port.serving.size_bytes == 20
        assert [p.size_bytes for p in port.arrived] == [40, 80, 160]
        assert [entry[3] for entry in port.inbox] == [320]
        agree()
        sim.schedule_at(0.25, net.set_offline, 0)  # 40 in service, 80 160 320 admitted
        sim.run(until=0.45)
        assert got == [10, 20] and port.lost_bytes == 40 + 80
        agree()
        sim.run()
        assert port.lost_bytes == 40 + 80 + 160 + 320
        assert stats.messages_dropped == 4
        agree()
        net.set_offline(0, False)
        net.send(1, 0, RawPayload("k", 640))
        sim.run()
        assert got == [10, 20, 640]
        agree()

    def test_an_arrival_at_the_crash_instant_is_lost_after_a_start_at_that_instant(self):
        # node 0 serves a1 from 0.25 to 0.5; x arrives at 0.5, the instant a
        # completion starts a2's slot and, after it, the node crashes
        sim = Simulator()
        net = SimulatedNetwork(sim, NetworkConfig(processing_rate=4.0),
                               ConstantLatency(0.25))
        got = []
        net.register(0, lambda p: got.append(p.kind))
        net.register(1, lambda p: None)
        for kind in ("a1", "a2", "a3"):
            net.send(1, 0, RawPayload(kind, 10))
        sim.schedule_at(0.25, net.send, 1, 0, RawPayload("x", 10))
        # filed after a1's completion, so it fires after it at 0.5
        sim.schedule_at(0.3, sim.schedule_at, 0.5, net.set_offline, 0)
        sim.schedule_at(0.6, net.set_offline, 0, False)
        sim.run()
        assert got == ["a1", "a2", "a3"]
        assert net.stats.messages_dropped == 1
        assert net.stats.bytes_received_by_node[0] == 30

    def test_a_burst_fifo_holds_the_multicast_payload_itself(self):
        nodes = 202
        sim = Simulator()
        net = SimulatedNetwork(sim, NetworkConfig(processing_rate=10.0))
        for node in range(nodes):
            net.register(node, lambda p: None)
        payload = RawPayload("burst", 100)
        for src in range(nodes):
            sim.schedule_at(src * 0.005, net.multicast, src, range(nodes), payload)
        sim.run(until=5.0)
        ports = net._ports.values()
        waiting = [item for port in ports for item in port.arrived]
        assert len(waiting) > nodes  # a backlog at every busy node
        assert all(item is payload for item in waiting)
        assert all(port.serving is payload for port in ports)
        sim.run()
        assert net.stats.bytes_delivered == nodes * (nodes - 1) * 100


class TestTrafficStats:
    def test_snapshot_delta(self):
        stats = TrafficStats()
        stats.on_send(0, "a", 100)
        before = stats.snapshot()
        stats.on_send(0, "a", 50)
        stats.on_send(1, "b", 25)
        delta = stats.snapshot().delta(before)
        assert delta.bytes_sent == 75
        assert delta.bytes_by_kind == {"a": 50, "b": 25}
        assert delta.messages_sent == 2

    def test_kilobytes(self):
        stats = TrafficStats()
        stats.on_send(0, "a", 2048)
        assert stats.kilobytes_sent == pytest.approx(2.0)

    def test_standalone_stats_count_what_on_deliver_charges(self):
        stats = TrafficStats()
        stats.on_deliver(3, 40)
        stats.on_deliver(3, 2)
        stats.on_deliver(5, 0)
        assert stats.messages_received_by_node == {3: 2, 5: 1}
        assert stats.bytes_received_by_node == {3: 42, 5: 0}
        assert (stats.messages_delivered, stats.bytes_delivered) == (3, 42)

    def test_envelope_validation(self):
        # only the network builds envelopes, from registered senders: the
        # endpoint check sits where an id enters, not on every copy
        net = SimulatedNetwork(Simulator())
        with pytest.raises(NetworkError, match="invalid node id -1"):
            net.register(-1, lambda p: None)
        with pytest.raises(NetworkError, match="unknown sender -1"):
            net.send(-1, 0, RawPayload("k", 1))
        with pytest.raises(NetworkError):
            RawPayload("k", -5)


class _EagerTotals:
    """The four totals kept apart from the per-kind maps the totals sum.

    Network sends are counted off the ports' own counters, their bytes
    as payload size x copies by :meth:`send` and :meth:`multicast`,
    charged transfers on the stats' calls, and network deliveries by
    :meth:`handler`, which each node registers.
    """

    def __init__(self, net):
        self.net = net
        self.charged = self.charged_bytes = self.delivered = self.delivered_bytes = 0
        self.wire_bytes = 0
        stats = net.stats
        on_send, on_deliver = stats.on_send, stats.on_deliver

        def counted_send(src, kind, size_bytes):
            self.charged += 1
            self.charged_bytes += size_bytes
            on_send(src, kind, size_bytes)

        def counted_deliver(dst, size_bytes):
            self.delivered += 1
            self.delivered_bytes += size_bytes
            on_deliver(dst, size_bytes)

        stats.on_send, stats.on_deliver = counted_send, counted_deliver

    @property
    def sent(self):
        return self.charged + sum(port.sent for port in self.net._ports.values())

    @property
    def sent_bytes(self):
        return self.charged_bytes + self.wire_bytes

    def send(self, src, dst, payload):
        self.wire_bytes += payload.size_bytes
        self.net.send(src, dst, payload)

    def multicast(self, src, dsts, payload):
        copies = sum(1 for dst in dsts if dst != src)
        self.wire_bytes += payload.size_bytes * copies
        self.net.multicast(src, dsts, payload)

    def handler(self, payload):
        self.delivered += 1
        self.delivered_bytes += payload.size_bytes

    def agree_with(self, stats):
        return (stats.messages_sent, stats.bytes_sent, stats.messages_delivered,
                stats.bytes_delivered) == (self.sent, self.sent_bytes,
                                           self.delivered, self.delivered_bytes)


class TestDerivedTotals:
    """The totals are sums over the per-kind and per-node maps."""

    def _traffic(self):
        from repro.pbft.cluster import charge_state_transfer

        sim = Simulator()
        net = SimulatedNetwork(sim, NetworkConfig(processing_rate=50.0))
        eager = _EagerTotals(net)
        for node in range(5):
            net.register(node, eager.handler)
        eager.send(0, 1, RawPayload("a", 100))
        eager.multicast(2, range(5), RawPayload("b", 40))
        net.set_offline(3)                      # loses the "b" on its way to it
        eager.multicast(0, range(5), RawPayload("a", 7))  # one copy dropped at send
        eager.send(1, 99, RawPayload("c", 5))   # nobody there: dropped on arrival
        charge_state_transfer(net.stats, 4, 0, n_ops=3)
        return sim, net, eager

    def test_totals_match_eager_counters_mid_run_and_after(self):
        sim, net, eager = self._traffic()
        assert eager.agree_with(net.stats)      # sent, nothing delivered yet
        assert net.stats.messages_delivered == 1    # the charged transfer
        sim.run()
        assert eager.agree_with(net.stats)
        stats = net.stats
        assert stats.messages_sent == 1 + 4 + 4 + 1 + 1
        # payload size x copies, plus the 32 + 64 + 3 x 200 byte snapshot
        assert stats.bytes_sent == 100 + 4 * 40 + 4 * 7 + 5 + 696
        assert stats.messages_dropped == 3
        assert stats.messages_delivered == stats.messages_sent - 3
        assert stats.messages_sent == sum(stats.messages_sent_by_node.values())
        # the sender's port and the charged transfer, per node
        assert stats.messages_sent_by_node == {0: 1 + 4, 1: 1, 2: 4, 4: 1}
        assert stats.messages_sent_by_node[3] == 0  # a silent id reads 0

    def test_snapshot_and_delta_read_the_same_sums(self):
        sim, net, eager = self._traffic()
        before = net.stats.snapshot()
        assert (before.messages_sent, before.bytes_sent) == (eager.sent, eager.sent_bytes)
        sim.run()
        net.send(0, 1, RawPayload("a", 100))
        sim.run()
        delta = net.stats.snapshot().delta(before)
        assert (delta.messages_sent, delta.bytes_sent) == (1, 100)
        assert delta.messages_delivered == eager.delivered - before.messages_delivered
        assert delta.bytes_delivered == eager.delivered_bytes - before.bytes_delivered
        assert delta.messages_by_kind == {"a": 1, "b": 0, "c": 0, EV_PBFT_STATE_TRANSFER: 0}

    def test_a_charged_transfer_folds_into_port_counts_through_delta(self):
        from repro.pbft.cluster import charge_state_transfer

        sim, net, eager = self._traffic()
        sim.run()
        stats = net.stats
        before, received = stats.snapshot(), stats.messages_received_by_node
        charge_state_transfer(stats, 1, 2, n_ops=1)   # 32 + 64 + 200 bytes at 2
        eager.send(0, 2, RawPayload("a", 10))         # port-counted at 2
        assert stats.messages_received_by_node[2] == received[2] + 1
        sim.run()
        assert eager.agree_with(stats)
        delta = stats.snapshot().delta(before)
        assert (delta.messages_delivered, delta.bytes_delivered) == (2, 296 + 10)
        assert stats.messages_received_by_node[2] == received[2] + 2
        assert sum(stats.bytes_received_by_node.values()) == stats.bytes_delivered
