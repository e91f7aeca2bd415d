"""Unit-level tests of GPBFTNode behaviour and core message types."""

import pytest

from repro.common.config import TopologySpec
from repro.common.errors import ConsensusError
from repro.core.messages import (
    BlockProposalOperation,
    CommitteeInfo,
    EraSwitchOperation,
    GeoReportMsg,
    TxOperation,
    TxSubmission,
)
from repro.chain.block import Block
from repro.chain.transaction import NormalTransaction
from repro.geo.coords import LatLng
from repro.geo.reports import GeoReport

HK = LatLng(22.3193, 114.1694)


def make_tx(sender=1, nonce=0):
    geo = GeoReport(node=sender, position=HK, timestamp=0.0)
    return NormalTransaction(sender=sender, nonce=nonce, fee=1.0, geo=geo)


class TestCoreMessages:
    def test_geo_report_size(self):
        msg = GeoReportMsg(GeoReport(node=1, position=HK, timestamp=0.0))
        assert msg.size_bytes == 32 + 64
        assert msg.kind == "geo.report"

    def test_committee_info_validation(self):
        with pytest.raises(ConsensusError):
            CommitteeInfo(era=-1, committee=(0,), sender=0)
        with pytest.raises(ConsensusError):
            CommitteeInfo(era=1, committee=(), sender=0)
        info = CommitteeInfo(era=1, committee=(0, 1, 2, 3), sender=0)
        assert info.size_bytes > 4 * 4

    def test_era_switch_operation_validation(self):
        with pytest.raises(ConsensusError):
            EraSwitchOperation(new_era=0, committee=(0, 1), added=(), removed=())
        with pytest.raises(ConsensusError):
            EraSwitchOperation(new_era=1, committee=(0,), added=(5,), removed=(5,))
        op = EraSwitchOperation(new_era=1, committee=(0, 1, 2, 3), added=(3,), removed=())
        assert op.op_id == "era-switch:1"
        assert op.signing_bytes() == EraSwitchOperation(
            new_era=1, committee=(0, 1, 2, 3), added=(3,), removed=()
        ).signing_bytes()

    def test_tx_operation_delegates_to_tx(self):
        tx = make_tx()
        op = TxOperation(tx)
        assert op.op_id == tx.tx_id
        assert op.size_bytes == tx.size_bytes
        assert op.signing_bytes() == tx.signing_bytes()

    def test_block_proposal_operation(self):
        tx = make_tx()
        block = Block.assemble(1, b"\x00" * 32, 0, 0, 1, 0, 0.0, [tx])
        op = BlockProposalOperation(block=block, producer=0)
        assert op.op_id.startswith("block:")
        assert op.size_bytes > block.size_bytes - 10

    def test_tx_submission_size(self):
        sub = TxSubmission(make_tx())
        assert sub.kind == "tx.submit"
        assert sub.size_bytes == make_tx().size_bytes + 4


class TestNodeRouting:
    def test_first_hop_is_nearest_endorser(self):
        dep = TopologySpec.single(8, 4, seed=21, start_reports=False).build()
        device = dep.nodes[7]
        hop = device._first_hop()
        assert hop in dep.committee
        dist_hop = device.position.distance_to(dep.directory[hop])
        for member in dep.committee:
            assert dist_hop <= device.position.distance_to(dep.directory[member]) + 1e-9

    def test_member_routes_to_itself(self):
        dep = TopologySpec.single(4, 4, seed=22, start_reports=False).build()
        assert dep.nodes[2]._first_hop() == 2

    def test_multicast_keeps_the_local_hand_off_between_its_neighbours(self):
        # zero latency: every copy is due now, so the simulator's
        # sequence order is the only order there is
        from repro.net.latency import ConstantLatency

        dep = TopologySpec.single(4, 4, seed=26, start_reports=False).build()
        dep.network.latency = ConstantLatency(0.0)
        fired = []
        # a wake carries the destination's port, the hand-off the payload
        dep.sim.set_step_hook(lambda event: fired.append(
            (event.callback.__name__,
             getattr(event.args[0], "node_id", event.args[0]))))
        dep.nodes[1].send_geo_report()
        dep.sim.run(until=0.0)
        report = fired[1][1]
        assert fired == [("_wake", 0), ("_dispatch", report),
                         ("_wake", 2), ("_wake", 3)]
        assert report.kind == "geo.report"

    def test_move_updates_directory(self):
        dep = TopologySpec.single(4, 4, seed=23, start_reports=False).build()
        new_pos = HK.offset_m(300.0, 0.0)
        dep.nodes[3].move_to(new_pos)
        assert dep.directory[3] == new_pos


class TestNodeLifecycle:
    def test_geo_reports_ignored_by_devices(self):
        dep = TopologySpec.single(6, 4, seed=24, start_reports=False).build()
        device = dep.nodes[5]
        report = GeoReport(node=1, position=HK, timestamp=0.0)
        device._on_geo_report(GeoReportMsg(report))
        assert device.election_table.history(1) is None

    def test_tx_submission_requires_membership(self):
        dep = TopologySpec.single(6, 4, seed=25, mode="block", start_reports=False).build()
        device = dep.nodes[5]
        device._on_tx_submission(TxSubmission(make_tx()))
        assert len(device.mempool) == 0

    def test_committee_info_needs_f_plus_one_votes(self):
        # committee of 4 -> f+1 = 2 matching announcements required
        dep = TopologySpec.single(6, 4, seed=26, start_reports=False).build()
        device = dep.nodes[5]
        assert device.replica is None
        info0 = CommitteeInfo(era=1, committee=(0, 1, 2, 3, 5), sender=0)
        device._on_committee_info(info0)
        assert not device.is_member  # one announcer could be lying
        info1 = CommitteeInfo(era=1, committee=(0, 1, 2, 3, 5), sender=1)
        device._on_committee_info(info1)
        assert device.is_member
        assert device.replica is not None
        assert device.era == 1

    def test_duplicate_sender_votes_not_double_counted(self):
        dep = TopologySpec.single(6, 4, seed=26, start_reports=False).build()
        device = dep.nodes[5]
        info = CommitteeInfo(era=1, committee=(0, 1, 2, 3, 5), sender=0)
        device._on_committee_info(info)
        device._on_committee_info(info)  # same sender repeats itself
        assert not device.is_member

    def test_conflicting_announcements_do_not_merge(self):
        dep = TopologySpec.single(6, 4, seed=26, start_reports=False).build()
        device = dep.nodes[5]
        device._on_committee_info(
            CommitteeInfo(era=1, committee=(0, 1, 2, 3, 5), sender=0))
        # a liar announcing a different committee must not help the quorum
        device._on_committee_info(
            CommitteeInfo(era=1, committee=(0, 1, 2, 5), sender=1))
        assert not device.is_member

    def test_committee_info_deactivates_removed_member(self):
        dep = TopologySpec.single(5, 5, seed=27, start_reports=False).build()
        member = dep.nodes[4]
        assert member.replica is not None
        for sender in (0, 1):  # f+1 = 2 for a committee of 5
            member._on_committee_info(
                CommitteeInfo(era=1, committee=(0, 1, 2, 3), sender=sender))
        assert not member.is_member
        assert member.replica is None

    def test_stale_committee_info_ignored(self):
        dep = TopologySpec.single(5, 4, seed=28, start_reports=False).build()
        node = dep.nodes[0]
        node.era = 3
        node._on_committee_info(CommitteeInfo(era=1, committee=(1, 2, 3, 4), sender=1))
        assert node.era == 3
        assert node.is_member

    def test_requests_buffered_while_switching(self):
        dep = TopologySpec.single(5, 4, seed=29, start_reports=False).build()
        node = dep.nodes[0]
        node.switching = True
        from repro.pbft.messages import ClientRequest
        request = ClientRequest(client=4, timestamp=0.0, op=TxOperation(make_tx(4)))
        node._on_pbft_request(request)
        assert len(node._switch_buffer) == 1

    def test_duplicate_era_switch_is_noop(self):
        dep = TopologySpec.single(5, 4, seed=30, start_reports=False).build()
        node = dep.nodes[0]
        stale = EraSwitchOperation(new_era=5, committee=(0, 1, 2, 3), added=(), removed=())
        node._execute_era_switch(stale)  # era 0 + 1 != 5
        assert not node.switching
        assert node.era == 0

    def test_next_transaction_increments_nonce(self):
        dep = TopologySpec.single(4, 4, seed=31, start_reports=False).build()
        node = dep.nodes[0]
        t1 = node.next_transaction()
        t2 = node.next_transaction()
        assert t1.nonce == 0 and t2.nonce == 1
        assert t1.tx_id != t2.tx_id

    def test_stale_block_proposal_ignored(self):
        dep = TopologySpec.single(4, 4, seed=32, mode="block", start_reports=False).build()
        node = dep.nodes[0]
        stale = Block.assemble(5, b"\x00" * 32, 0, 0, 0, 1, 0.0, [])
        node._execute_block_proposal(BlockProposalOperation(block=stale, producer=1))
        assert node.ledger.height == 0

    def test_bad_parent_block_flags_producer(self):
        dep = TopologySpec.single(4, 4, seed=33, mode="block", start_reports=False).build()
        node = dep.nodes[0]
        bad = Block.assemble(1, b"\x42" * 32, 0, 0, 0, 2, 0.0, [])
        node._execute_block_proposal(BlockProposalOperation(block=bad, producer=2))
        assert 2 in node._suspects
        assert 2 in node.incentive._excluded


def _announce(node, era, committee, senders):
    for sender in senders:
        node._on_committee_info(CommitteeInfo(era=era, committee=committee, sender=sender))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_an_announced_era_relaunches_a_continuing_members_replica():
    # a member that adopts a new era and committee from f+1 announcements
    # keeps its old replica, whose epoch ignores the new era's traffic
    dep = TopologySpec.single(7, 5, seed=41, start_reports=False).build()
    node = dep.nodes[0]
    _announce(node, 2, (0, 1, 2, 3, 4, 5), (1, 2))
    assert node.era == 2 and node.is_member and node.replica is not None
    assert node.replica.epoch == node.era


class TestPortRouting:
    """An active endorser's port delivers straight to its replica; the
    node takes its port back at every edge where it must gate traffic."""

    def test_every_routing_edge_swaps_the_handler(self):
        from repro.common.config import CommitteeConfig, GPBFTConfig
        from tests.test_net import assert_ports_routed

        config = GPBFTConfig(committee=CommitteeConfig(min_endorsers=5))
        dep = TopologySpec.single(7, 5, config=config, seed=41, start_reports=False).build()
        routes = [assert_ports_routed(dep.network, dep.nodes)]  # build
        dep.force_era_switch()
        assert dep.sim.run_until_condition(lambda: dep.nodes[0].switching, horizon=30.0)
        routes.append(assert_ports_routed(dep.network, dep.nodes))  # switch starts
        assert dep.sim.run_until_condition(
            lambda: all(dep.nodes[m].era == 1 and not dep.nodes[m].switching
                        for m in range(5)), horizon=30.0)
        routes.append(assert_ports_routed(dep.network, dep.nodes))  # switch completes
        _announce(dep.nodes[4], 2, (0, 1, 2, 3, 5, 6), (0, 1))  # loses its seat
        _announce(dep.nodes[5], 2, (0, 1, 2, 3, 5, 6), (0, 1))  # newly elected
        routes.append(assert_ports_routed(dep.network, dep.nodes))
        _announce(dep.nodes[0], 3, (0, 1, 2, 3), (1, 2))  # below min_endorsers
        assert dep.nodes[0].halted_below_minimum
        routes.append(assert_ports_routed(dep.network, dep.nodes))
        _announce(dep.nodes[0], 4, (0, 1, 2, 3, 5), (1, 2))  # back at the minimum
        assert not dep.nodes[0].halted_below_minimum
        routes.append(assert_ports_routed(dep.network, dep.nodes))
        assert [[route[n] for n in (0, 4, 5)] for route in routes] == [
            ["replica", "replica", "node"],
            ["node", "node", "node"],
            ["replica", "replica", "node"],
            ["replica", "node", "replica"],
            ["node", "node", "replica"],
            ["replica", "node", "replica"],
        ]

    @pytest.mark.parametrize("model", ["crashed", "drops"])
    def test_a_faulty_endorser_still_consumes_its_own_kinds(self, model):
        from repro.pbft.faults import CrashFaults, SelectiveDropFaults
        from repro.pbft.messages import Reply

        faults = (CrashFaults(crashed=True) if model == "crashed"
                  else SelectiveDropFaults({Reply.kind, "geo.report"}))
        dep = TopologySpec.single(6, 4, seed=42, start_reports=False).build(
            faults={3: faults})
        node = dep.nodes[3]
        assert dep.network._ports[3].handler.__self__ is node.replica
        dep.nodes[5].send_geo_report()
        # a crashed replica drops its own request; the retry (600 s on)
        # reaches the other three, whose replies its client consumes
        rid = node.submit_transaction()
        dep.run(until=650.0)
        assert [row.node for row in node.election_table.rows(5)] == [5]
        assert rid in node.client.completed

    def test_a_request_replayed_from_the_switch_buffer_runs_once(self, monkeypatch):
        from repro.pbft.messages import ClientRequest
        from repro.pbft.replica import PBFTReplica

        seen = []
        on_request = PBFTReplica._HANDLERS[ClientRequest.kind]

        def counted(replica, request):
            seen.append((replica.node_id, request.request_id))
            on_request(replica, request)

        monkeypatch.setitem(PBFTReplica._HANDLERS, ClientRequest.kind, counted)
        dep = TopologySpec.single(6, 4, seed=43, start_reports=False).build()
        node = dep.nodes[2]
        dep.force_era_switch()
        assert dep.sim.run_until_condition(lambda: node.switching, horizon=30.0)
        request = ClientRequest(client=5, timestamp=dep.sim.now, op=TxOperation(make_tx(5)))
        dep.network.send(5, 2, request)
        assert dep.sim.run_until_condition(lambda: node._switch_buffer, horizon=30.0)
        assert (2, request.request_id) not in seen
        assert dep.sim.run_until_condition(lambda: not node.switching, horizon=30.0)
        assert seen.count((2, request.request_id)) == 1

    def test_the_preactivation_window_replays_its_latest_messages_in_order(self, monkeypatch):
        from repro.pbft.messages import Prepare
        from repro.pbft.replica import PBFTReplica

        dep = TopologySpec.single(6, 4, seed=44, start_reports=False).build()
        node = dep.nodes[5]
        cap, extra = node._preactivation_cap, 7
        assert node._preactivation_buffer.maxlen == cap
        votes = [Prepare(0, seq, b"\x00" * 32, seq % 4, epoch=1)
                 for seq in range(1, cap + extra + 1)]
        for vote in votes:
            dep.network._ports[5].handler(vote)
        replayed = []
        receive = PBFTReplica.receive

        def recorded(replica, payload):
            if replica.node_id == 5:
                replayed.append(payload)
            receive(replica, payload)

        monkeypatch.setattr(PBFTReplica, "receive", recorded)
        _announce(node, 1, (0, 1, 2, 3, 5), (0, 1))
        assert node.replica is not None and not node._preactivation_buffer
        assert replayed == votes[extra:]
