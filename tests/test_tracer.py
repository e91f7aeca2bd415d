"""Tests: the message-flow tracer (repro.net.tracer)."""

import pytest

from repro.common.config import TopologySpec
from repro.common.errors import NetworkError
from repro.net.message import RawPayload
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.tracer import MessageTracer
from repro.pbft import RawOperation


def small_net():
    sim = Simulator()
    net = SimulatedNetwork(sim)
    for node in range(3):
        net.register(node, lambda e: None)
    return sim, net


class TestCapture:
    def test_records_sends(self):
        sim, net = small_net()
        tracer = MessageTracer(net)
        net.send(0, 1, RawPayload("a.x", 100))
        net.send(1, 2, RawPayload("b.y", 50))
        sim.run()
        assert [(r.src, r.dst, r.kind) for r in tracer.rows] == [
            (0, 1, "a.x"), (1, 2, "b.y")
        ]

    def test_kind_filter(self):
        sim, net = small_net()
        tracer = MessageTracer(net, kinds=("a.",))
        net.send(0, 1, RawPayload("a.x", 100))
        net.send(0, 1, RawPayload("b.y", 100))
        assert len(tracer.rows) == 1

    def test_node_filter(self):
        sim, net = small_net()
        tracer = MessageTracer(net, nodes={2})
        net.send(0, 1, RawPayload("a.x", 100))
        net.send(0, 2, RawPayload("a.x", 100))
        assert len(tracer.rows) == 1
        assert tracer.rows[0].dst == 2

    def test_capacity_ring_buffer(self):
        sim, net = small_net()
        tracer = MessageTracer(net, capacity=3)
        for i in range(5):
            net.send(0, 1, RawPayload(f"k{i}", 10))
        assert len(tracer.rows) == 3
        assert tracer.dropped == 2
        assert tracer.rows[0].kind == "k2"  # oldest fell off

    def test_multicast_rows_are_the_rows_of_its_per_copy_sends(self):
        captured = []
        for batched in (True, False):
            sim, net = small_net()
            tracer = MessageTracer(net)
            payload = RawPayload("a.x", 100)
            if batched:
                net.multicast(1, (0, 1, 2), payload)
            else:
                for dst in (0, 2):
                    net.send(1, dst, payload)
            sim.run()
            captured.append((tracer.rows, net.stats.snapshot()))
        assert captured[0] == captured[1]
        assert [(r.src, r.dst) for r in captured[0][0]] == [(1, 0), (1, 2)]

    def test_detach_restores_send(self):
        sim, net = small_net()
        tracer = MessageTracer(net)
        tracer.detach()
        net.send(0, 1, RawPayload("a.x", 100))
        assert not tracer.rows
        sim.run()  # message still delivered through the original path
        assert net.stats.messages_delivered == 1

    def test_traffic_still_flows_through_tap(self):
        sim, net = small_net()
        MessageTracer(net)
        net.send(0, 1, RawPayload("a.x", 100))
        sim.run()
        assert net.stats.messages_delivered == 1

    def test_capacity_validation(self):
        _, net = small_net()
        with pytest.raises(NetworkError):
            MessageTracer(net, capacity=0)


class TestQueriesAndRendering:
    def _traced_consensus(self):
        cluster = TopologySpec.cluster(4, 1).build()
        tracer = MessageTracer(cluster.network, kinds=("pbft.",))
        cluster.submit(RawOperation("op"))
        cluster.run(until=60)
        return cluster, tracer

    def test_counts_match_pbft_complexity(self):
        _, tracer = self._traced_consensus()
        counts = tracer.count_by_kind()
        # n = 4: 3 pre-prepares, 3x3 prepares, 4x3 commits
        assert counts["pbft.pre_prepare"] == 3
        assert counts["pbft.prepare"] == 9
        assert counts["pbft.commit"] == 12

    def test_bytes_match_stats(self):
        cluster, tracer = self._traced_consensus()
        traced = sum(tracer.bytes_by_kind().values())
        from_stats = sum(
            size for kind, size in cluster.network.stats.bytes_by_kind.items()
            if kind.startswith("pbft.")
        )
        assert traced == from_stats

    def test_between_window(self):
        _, tracer = self._traced_consensus()
        everything = tracer.between(0.0, 1e9)
        assert everything == list(tracer.rows)
        assert tracer.between(1e6, 2e6) == []

    def test_sequence_render(self):
        _, tracer = self._traced_consensus()
        diagram = tracer.render_sequence(limit=10)
        assert "n0" in diagram and "n3" in diagram
        assert "|" in diagram and (">" in diagram or "<" in diagram)
        assert "more rows captured" in diagram

    def test_summary_table(self):
        _, tracer = self._traced_consensus()
        summary = tracer.summary()
        assert "pbft.commit" in summary
        assert "KB" in summary

    def test_empty_render(self):
        _, net = small_net()
        tracer = MessageTracer(net)
        assert "no messages" in tracer.render_sequence()
