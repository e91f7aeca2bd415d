"""Integration tests: the PBFT engine end-to-end over the simulated network.

Covers the normal case, ordering agreement, checkpoints, view changes
under crash faults, byzantine equivocation safety, and the client's
retry path.
"""

import pytest

from repro.common.config import GPBFTConfig, NetworkConfig, PBFTConfig, TopologySpec
from repro.common.errors import ConsensusError
from repro.pbft import (
    CrashFaults,
    EquivocatingFaults,
    RawOperation,
)
from repro.net.simulator import Simulator
from repro.pbft.faults import HonestFaults, MuteFaults, SelectiveDropFaults
from repro.pbft.messages import ClientRequest, Commit, NewView, Prepare, PrePrepare
from repro.pbft.replica import PBFTReplica
from repro.common.eventlog import (
    EV_PBFT_ENTERED_VIEW,
    EV_PBFT_EXECUTED,
    EV_PBFT_STATE_TRANSFER,
    EventLog,
)


def fast_config(**pbft_overrides) -> GPBFTConfig:
    """Short timeouts so fault tests converge quickly."""
    pbft = dict(view_change_timeout_s=5.0, request_retry_timeout_s=20.0)
    pbft.update(pbft_overrides)
    return GPBFTConfig(network=NetworkConfig(seed=1), pbft=PBFTConfig(**pbft))


class TestNormalCase:
    def test_single_request_commits_everywhere(self):
        cluster = TopologySpec.cluster(4, 1).build()
        rid = cluster.submit(RawOperation("op"))
        cluster.run(until=60)
        assert rid in cluster.any_client.completed
        assert all(cluster.committed_ops(n) == ["op"] for n in cluster.replicas)

    def test_message_counts_match_pbft_complexity(self):
        cluster = TopologySpec.cluster(4, 1).build()
        cluster.submit(RawOperation("op"))
        cluster.run(until=60)
        counts = cluster.network.stats.messages_by_kind
        # n = 4: 3 pre-prepares, 3x3 prepares, 4x3 commits
        assert counts["pbft.pre_prepare"] == 3
        assert counts["pbft.prepare"] == 9
        assert counts["pbft.commit"] == 12

    def test_many_requests_identical_order(self):
        cluster = TopologySpec.cluster(7, 3).build()
        for i, cid in enumerate(sorted(cluster.clients) * 4):
            cluster.clients[cid].submit(RawOperation(f"op-{i}"))
        cluster.run(until=600)
        orders = {tuple(cluster.committed_ops(n)) for n in cluster.replicas}
        assert len(orders) == 1
        assert len(orders.pop()) == 12

    def test_latency_grows_with_committee_size(self):
        def latency(n):
            cluster = TopologySpec.cluster(n, 1).build()
            rid = cluster.submit(RawOperation("x"))
            cluster.run(until=600)
            return cluster.any_client.completed[rid]

        assert latency(16) > latency(4)

    def test_committee_below_four_rejected(self):
        with pytest.raises(ConsensusError):
            TopologySpec.cluster(3, 1).build()

    def test_duplicate_submission_is_single_execution(self):
        cluster = TopologySpec.cluster(4, 1).build()
        client = cluster.any_client
        op = RawOperation("dup")
        client.submit(op)
        client.submit(op)
        cluster.run(until=60)
        assert cluster.committed_ops(0) == ["dup"]


class TestCheckpoints:
    def test_stable_checkpoint_advances_watermark(self):
        config = fast_config(checkpoint_interval=4, watermark_window=16)
        cluster = TopologySpec.cluster(4, 1, config=config).build()
        for i in range(8):
            cluster.submit(RawOperation(f"op-{i}"))
        cluster.run(until=300)
        assert len(cluster.any_client.completed) == 8
        for _, replica in sorted(cluster.replicas.items()):
            assert replica.stable_seq >= 4

    def test_log_garbage_collected(self):
        config = fast_config(checkpoint_interval=2, watermark_window=8)
        cluster = TopologySpec.cluster(4, 1, config=config).build()
        for i in range(6):
            cluster.submit(RawOperation(f"op-{i}"))
        cluster.run(until=300)
        for _, replica in sorted(cluster.replicas.items()):
            live = [s.seq for s in replica.log.instances()]
            assert all(seq > replica.stable_seq for seq in live)

    def test_parked_requests_drain_after_checkpoint(self):
        # window of 4 with 6 requests: the last two must wait for a
        # checkpoint, then commit
        config = fast_config(checkpoint_interval=2, watermark_window=4)
        cluster = TopologySpec.cluster(4, 1, config=config).build()
        for i in range(6):
            cluster.submit(RawOperation(f"op-{i}"))
        cluster.run(until=600)
        assert len(cluster.any_client.completed) == 6


class TestViewChange:
    def test_crashed_primary_replaced(self):
        cluster = TopologySpec.cluster(
            4, 1, config=fast_config()).build(faults={0: CrashFaults(crashed=True)})
        rid = cluster.submit(RawOperation("op"))
        cluster.run(until=600)
        assert rid in cluster.any_client.completed
        views = {r.view for n, r in cluster.replicas.items() if n != 0}
        assert views == {1}
        assert cluster.all_agree()

    def test_progress_after_mid_run_crash(self):
        cluster = TopologySpec.cluster(4, 1, config=fast_config()).build()
        cluster.submit(RawOperation("before"))
        cluster.run(until=30)
        cluster.replicas[0].faults = CrashFaults(crashed=True)
        cluster.submit(RawOperation("after"))
        cluster.run(until=600)
        assert len(cluster.any_client.completed) == 2
        # sequence numbers must not be reused across the view change
        ops = cluster.committed_ops(1)
        assert ops == ["before", "after"]

    def test_two_successive_primary_crashes(self):
        cluster = TopologySpec.cluster(
            7, 1, config=fast_config()).build(
                faults={0: CrashFaults(crashed=True),
                        1: CrashFaults(crashed=True)})
        rid = cluster.submit(RawOperation("op"))
        cluster.run(until=2000)
        assert rid in cluster.any_client.completed
        assert cluster.all_agree()

    def test_executed_requests_not_reexecuted_after_view_change(self):
        cluster = TopologySpec.cluster(4, 1, config=fast_config()).build()
        cluster.submit(RawOperation("op-a"))
        cluster.run(until=30)
        cluster.replicas[0].faults = CrashFaults(crashed=True)
        cluster.submit(RawOperation("op-b"))
        cluster.run(until=600)
        for node in (1, 2, 3):
            ops = cluster.committed_ops(node)
            assert ops.count("op-a") == 1


class TestLiveReplicaFollowsItsFaultModelAndView:
    """A replica keeps what it reads per message -- whether its fault model
    filters by kind, and its view's primary -- in step with every change
    made to a live replica.  Each step fails if that is read stale."""

    def test_crash_recover_swap_and_view_change(self):
        cluster = TopologySpec.cluster(4, 1, config=fast_config()).build(
            faults={0: CrashFaults(), 1: CrashFaults()})
        replica, peer = cluster.replicas[1], cluster.replicas[2]
        stats = cluster.network.stats

        def request(name):
            """Messages the replica sent while *name* committed."""
            before = stats.messages_sent_by_node[1]
            cluster.submit(RawOperation(name))
            cluster.run(until=cluster.sim.now + 30)
            return stats.messages_sent_by_node[1] - before

        # crash() on the model in place: deaf and mute from the next message
        replica.faults.crash()
        assert request("while-crashed") == 0
        assert peer.last_executed == 1 and replica.log.instances() == []
        # recover(): it hears the pre-prepare of seq 2 and answers it
        replica.faults.recover()
        assert request("recovered") > 0
        assert replica.log.instance(0, 2).pre_prepare is not None
        # a model that filters by kind, assigned to the live replica: it
        # neither hears the others' commits nor sends its own
        replica.faults = SelectiveDropFaults({Commit.kind})
        assert request("deaf-to-commits") > 0
        assert replica.log.instance(0, 3).prepared_flag
        assert replica.log.voters(replica.log.instance(0, 3).commits) == {1}
        assert peer.log.voters(peer.log.instance(0, 3).commits) == {0, 2, 3}
        # a completed view change: the primary is the new view's
        replica.faults = HonestFaults()
        assert replica.primary == 0 and not replica.is_primary
        cluster.replicas[0].faults.crash()
        cluster.submit(RawOperation("after-view-change"))
        cluster.run(until=cluster.sim.now + 600)
        for node in (1, 2, 3):
            member = cluster.replicas[node]
            assert member.view == 1 and member.primary == 1
        assert replica.is_primary and not peer.is_primary
        assert cluster.committed_ops(2) == [
            "while-crashed", "recovered", "deaf-to-commits", "after-view-change"]
        assert len(cluster.any_client.completed) == 4


class TestByzantine:
    def test_equivocating_primary_never_violates_safety(self):
        cluster = TopologySpec.cluster(
            4, 1, config=fast_config()).build(faults={0: EquivocatingFaults()})
        cluster.submit(RawOperation("op"))
        cluster.run(until=2000)
        assert cluster.all_agree()

    @staticmethod
    def _pre_prepares_by_destination(cluster):
        seen = {}
        send = cluster.network.send

        def capture(src, dst, payload):
            if payload.kind == "pbft.pre_prepare":
                seen[dst] = payload
            send(src, dst, payload)

        cluster.network.send = capture
        cluster.submit(RawOperation("op"))
        cluster.run(until=5)
        return seen

    def test_equivocating_primary_still_corrupts_odd_destinations(self):
        cluster = TopologySpec.cluster(
            4, 1, config=fast_config()).build(faults={0: EquivocatingFaults()})
        seen = self._pre_prepares_by_destination(cluster)
        assert sorted(seen) == [1, 2, 3]
        true = seen[2].request.digest()
        assert seen[2].digest == true
        assert seen[1].digest == seen[3].digest != true
        # the primary's own log keeps the true digest
        assert cluster.replicas[0].log.instance(0, 1).pre_prepare.digest == true

    def test_honest_primary_multicasts_the_pre_prepare_it_logs(self):
        cluster = TopologySpec.cluster(4, 1, config=fast_config()).build()
        seen = self._pre_prepares_by_destination(cluster)
        logged = cluster.replicas[0].log.instance(0, 1).pre_prepare
        assert sorted(seen) == [1, 2, 3]
        assert all(copy is logged for copy in seen.values())

    def test_mute_replica_does_not_block_quorum(self):
        cluster = TopologySpec.cluster(
            4, 1, config=fast_config()).build(faults={3: MuteFaults()})
        rid = cluster.submit(RawOperation("op"))
        cluster.run(until=600)
        assert rid in cluster.any_client.completed

    def test_commit_dropping_backup_tolerated(self):
        cluster = TopologySpec.cluster(
            4, 1, config=fast_config()).build(faults={2: SelectiveDropFaults({"pbft.commit"})})
        rid = cluster.submit(RawOperation("op"))
        cluster.run(until=600)
        assert rid in cluster.any_client.completed

    def test_f_crashes_tolerated_but_f_plus_one_blocks(self):
        # f = 2 for n = 7: two crashes fine
        cluster = TopologySpec.cluster(
            7, 1, config=fast_config()).build(
                faults={5: CrashFaults(crashed=True),
                        6: CrashFaults(crashed=True)})
        rid = cluster.submit(RawOperation("ok"))
        cluster.run(until=600)
        assert rid in cluster.any_client.completed
        # three crashes (f+1): no commitment possible
        cluster = TopologySpec.cluster(
            7, 1, config=fast_config()).build(
                faults={4: CrashFaults(crashed=True),
                        5: CrashFaults(crashed=True),
                        6: CrashFaults(crashed=True)})
        rid = cluster.submit(RawOperation("stuck"))
        cluster.run(until=2000)
        assert rid not in cluster.any_client.completed


class TestStateTransfer:
    def _cluster(self):
        from repro.pbft.faults import CrashFaults

        config = fast_config(checkpoint_interval=4, watermark_window=32)
        faults = {3: CrashFaults(crashed=False)}
        return TopologySpec.cluster(4, 1, config=config).build(faults=faults), faults

    def test_recovered_replica_catches_up_via_checkpoint(self):
        cluster, faults = self._cluster()
        cluster.submit(RawOperation("warm"))
        cluster.run(until=30)
        faults[3].crash()
        for i in range(12):
            cluster.submit(RawOperation(f"missed-{i}"))
        cluster.run(until=600)
        assert cluster.replicas[3].last_executed <= 1
        faults[3].recover()
        for i in range(8):
            cluster.submit(RawOperation(f"after-{i}"))
        cluster.run(until=3000)
        assert cluster.replicas[3].last_executed == cluster.replicas[0].last_executed
        # replica 3 installed a peer's log, then executed past it itself:
        # its op ids, kept without their seqs, still read in seq order
        [transfer] = cluster.events.of_kind(EV_PBFT_STATE_TRANSFER)
        own = [e.data["seq"] for e in cluster.events.of_kind(EV_PBFT_EXECUTED)
               if e.node == 3 and e.at >= transfer.at]
        assert transfer.node == 3 and own and min(own) == transfer.data["seq"] + 1
        assert sorted(cluster.committed_ops(0)) == sorted(
            ["warm", *(f"missed-{i}" for i in range(12)), *(f"after-{i}" for i in range(8))])
        assert cluster.committed_ops(3) == cluster.committed_ops(0)

    def test_transfer_traffic_is_accounted(self):
        cluster, faults = self._cluster()
        faults[3].crash()
        for i in range(12):
            cluster.submit(RawOperation(f"op-{i}"))
        cluster.run(until=600)
        faults[3].recover()
        # enough post-recovery traffic for a fresh checkpoint to form
        for i in range(8):
            cluster.submit(RawOperation(f"kick-{i}"))
        cluster.run(until=3000)
        assert cluster.network.stats.bytes_by_kind.get(EV_PBFT_STATE_TRANSFER, 0) > 0


class TestClient:
    def test_retry_broadcast_reaches_new_primary(self):
        # primary silently drops requests (but participates otherwise):
        # the client's retry broadcast must trigger recovery
        cluster = TopologySpec.cluster(
            4, 1, config=fast_config()).build(faults={0: SelectiveDropFaults({"pbft.request"})})
        rid = cluster.submit(RawOperation("op"))
        cluster.run(until=2000)
        assert rid in cluster.any_client.completed

    def test_view_hint_follows_replies(self):
        cluster = TopologySpec.cluster(
            4, 1, config=fast_config()).build(faults={0: CrashFaults(crashed=True)})
        cluster.submit(RawOperation("op"))
        cluster.run(until=600)
        assert cluster.any_client.believed_primary == 1

    def test_update_committee_validates(self):
        cluster = TopologySpec.cluster(4, 1).build()
        with pytest.raises(ConsensusError):
            cluster.any_client.update_committee(())


class _Outbox:
    """A transport that only records what the replica sends."""

    def __init__(self):
        self.sent = []

    def send(self, dst, payload):
        self.sent.append((dst, payload))

    def multicast(self, dsts, payload):
        self.sent.append((tuple(dsts), payload))


@pytest.mark.parametrize("vote_cls,votes_of", [(Prepare, "prepares"), (Commit, "commits")])
class TestVoteGate:
    """``receive`` gates a prepare or commit and counts it in one function."""

    DIGEST = b"\x07" * 32

    def _replica(self, view=1):
        outbox = _Outbox()
        replica = PBFTReplica(node_id=1, committee=(0, 1, 2, 3), sim=Simulator(),
                              transport=outbox, epoch=2)
        replica._enter_view(view)  # keeps the primary in step with the view
        return replica, outbox

    def _vote(self, vote_cls, sender=2, view=1, epoch=2):
        return vote_cls(view=view, seq=1, digest=self.DIGEST, sender=sender, epoch=epoch)

    def test_a_vote_that_passes_is_counted(self, vote_cls, votes_of):
        replica, _ = self._replica()
        replica.receive(self._vote(vote_cls))
        replica.receive(self._vote(vote_cls, sender=3))
        replica.receive(self._vote(vote_cls, sender=3))  # a duplicate counts once
        [state] = replica.log.instances()
        assert (state.view, state.seq, state.digest) == (1, 1, self.DIGEST)
        assert replica.log.voters(getattr(state, votes_of)) == {2, 3}

    @pytest.mark.parametrize("changed", [
        dict(epoch=1), dict(epoch=3),  # another era
        dict(view=0),                  # a view already left
        dict(sender=4),                # not a committee member
    ])
    def test_a_vote_that_fails_the_gate_is_ignored(self, vote_cls, votes_of, changed):
        replica, outbox = self._replica()
        replica.receive(self._vote(vote_cls, **changed))
        assert replica.log.instances() == [] and replica._future_messages == {}
        assert outbox.sent == []

    def test_a_vote_during_a_view_change_is_ignored(self, vote_cls, votes_of):
        replica, _ = self._replica()
        replica.in_view_change = True
        replica.receive(self._vote(vote_cls))
        assert replica.log.instances() == [] and replica._future_messages == {}

    def test_a_stopped_or_deaf_replica_counts_nothing(self, vote_cls, votes_of):
        replica, _ = self._replica()
        replica.faults = SelectiveDropFaults({vote_cls.kind})
        replica.receive(self._vote(vote_cls))
        replica.faults = CrashFaults(crashed=True)
        replica.receive(self._vote(vote_cls))
        replica.faults, replica.stopped = HonestFaults(), True
        replica.receive(self._vote(vote_cls))
        assert replica.log.instances() == []

    def test_a_vote_for_a_later_view_waits_for_that_view(self, vote_cls, votes_of):
        replica, _ = self._replica()
        early = self._vote(vote_cls, view=3)
        replica.receive(early)
        assert replica.log.instances() == []
        assert replica._future_messages == {3: [early]}
        replica._enter_view(2)  # not its view yet
        assert replica.log.instances() == [] and replica._future_messages == {3: [early]}
        replica._enter_view(3)
        [state] = replica.log.instances()
        assert state.view == 3 and replica.log.voters(getattr(state, votes_of)) == {2}
        assert replica._future_messages == {}


def test_counted_votes_advance_the_instance_from_receive():
    # the quorum-completing prepare makes the replica multicast its commit,
    # and the quorum-completing commit makes it execute and reply: the
    # advance runs off the same call that counted the vote
    outbox = _Outbox()
    executed = []
    replica = PBFTReplica(node_id=1, committee=(0, 1, 2, 3), sim=Simulator(),
                          transport=outbox,
                          executor=lambda op, seq: executed.append(seq) or b"r" * 32)
    request = ClientRequest(client=9, timestamp=0.0, op=RawOperation("op"))
    digest = request.digest()
    replica.receive(PrePrepare(view=0, seq=1, digest=digest, request=request, sender=0))
    assert [p.kind for _, p in outbox.sent] == [Prepare.kind]
    replica.receive(Prepare(view=0, seq=1, digest=digest, sender=2))
    assert [p.kind for _, p in outbox.sent] == [Prepare.kind, Commit.kind]
    replica.receive(Commit(view=0, seq=1, digest=digest, sender=0))
    assert executed == []
    replica.receive(Commit(view=0, seq=1, digest=digest, sender=2))
    assert executed == [1]
    assert outbox.sent[-1][0] == 9 and outbox.sent[-1][1].kind == "pbft.reply"


def test_a_stale_new_view_does_not_take_a_changing_replica_back():
    # a replica in view 2 that is changing to view 3 refuses view 1's
    # NewView, and still takes view 3's
    log = EventLog()
    replica = PBFTReplica(node_id=0, committee=(0, 1, 2, 3), sim=Simulator(),
                          transport=_Outbox(), event_log=log)
    replica._enter_view(2)
    replica.start_view_change(3)

    def new_view(view):
        return NewView(new_view=view, view_change_senders=(1, 2, 3),
                       pre_prepares=(), sender=replica.primary_of(view))

    replica.receive(new_view(1))
    assert replica.view == 2 and replica.in_view_change
    replica.receive(new_view(3))
    assert replica.view == 3 and not replica.in_view_change
    assert [e.data["view"] for e in log.of_kind(EV_PBFT_ENTERED_VIEW)] == [2, 3]
