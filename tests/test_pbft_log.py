"""Unit tests: PBFT message log, quorum predicates and rosters."""

import sys

import pytest

from repro.common.config import TopologySpec
from repro.common.errors import ConsensusError
from repro.crypto.hashing import sha256
from repro.pbft.log import MessageLog, roster
from repro.pbft.messages import ClientRequest, Commit, Prepare, PrePrepare, RawOperation

D = sha256(b"request")
D2 = sha256(b"other")


def request():
    return ClientRequest(client=9, timestamp=0.0, op=RawOperation("op"))


def log_of(n, owner):
    """The log of replica *owner* in committee ``0 .. n-1``."""
    return MessageLog(roster(tuple(range(n))), owner)


def pre_prepare(view=0, seq=1, digest=D, sender=0):
    return PrePrepare(view=view, seq=seq, digest=digest, request=request(), sender=sender)


class TestQuorums:
    def test_f_computation(self):
        assert log_of(4, 0).f == 1
        assert log_of(7, 0).f == 2
        assert log_of(10, 0).f == 3
        assert log_of(40, 0).f == 13

    def test_rejects_tiny_committee(self):
        with pytest.raises(ConsensusError):
            log_of(3, 0)

    def test_prepared_needs_preprepare_plus_2f(self):
        log = log_of(4, 1)  # f=1, need pre-prepare + 2 more prepares
        log.add_pre_prepare(pre_prepare())
        assert not log.prepared(0, 1)
        log.add_prepare(Prepare(view=0, seq=1, digest=D, sender=1))
        assert not log.prepared(0, 1)
        log.add_prepare(Prepare(view=0, seq=1, digest=D, sender=2))
        assert log.prepared(0, 1)

    def test_prepares_without_preprepare_insufficient(self):
        log = log_of(4, 1)
        for s in (1, 2, 3):
            log.add_prepare(Prepare(view=0, seq=1, digest=D, sender=s))
        assert not log.prepared(0, 1)

    def test_committed_local_needs_2f_plus_1_commits(self):
        log = log_of(4, 1)
        log.add_pre_prepare(pre_prepare())
        for s in (1, 2):
            log.add_prepare(Prepare(view=0, seq=1, digest=D, sender=s))
        for s in (0, 1):
            log.add_commit(Commit(view=0, seq=1, digest=D, sender=s))
        assert not log.committed_local(0, 1)
        log.add_commit(Commit(view=0, seq=1, digest=D, sender=2))
        assert log.committed_local(0, 1)

    def test_duplicate_senders_not_double_counted(self):
        log = log_of(4, 1)
        log.add_pre_prepare(pre_prepare())
        for _ in range(5):
            state = log.add_prepare(Prepare(view=0, seq=1, digest=D, sender=1))
            assert log.voters(state.prepares) == {0, 1}  # the primary and one voter, once
        for _ in range(5):
            state = log.add_commit(Commit(view=0, seq=1, digest=D, sender=1))
            assert log.voters(state.commits) == {1}
        assert not log.prepared(0, 1)


class TestRoster:
    def test_a_vote_from_outside_the_roster_is_not_counted(self):
        log = log_of(4, 1)
        log.add_pre_prepare(pre_prepare())
        for sender in (4, 99, -1):
            state = log.add_prepare(Prepare(view=0, seq=1, digest=D, sender=sender))
            log.add_commit(Commit(view=0, seq=1, digest=D, sender=sender))
        assert log.voters(state.prepares) == {0} and log.voters(state.commits) == set()
        assert state.prepares.bit_count() == 1 and state.commits == 0
        # nor does an outsider's first vote fix the instance's digest
        state = log.add_commit(Commit(view=0, seq=2, digest=D2, sender=7))
        assert state.digest is None and state.commits == 0

    def test_a_202_member_instance_keeps_each_mask_in_64_bytes(self):
        log = log_of(202, 0)
        log.add_pre_prepare(pre_prepare())
        for sender in range(202):
            log.add_prepare(Prepare(view=0, seq=1, digest=D, sender=sender))
            state = log.add_commit(Commit(view=0, seq=1, digest=D, sender=sender))
        assert state.prepares.bit_count() == state.commits.bit_count() == 202
        assert log.voters(state.prepares) == log.voters(state.commits) == set(range(202))
        assert sys.getsizeof(state.prepares) <= 64
        assert sys.getsizeof(state.commits) <= 64

    def test_every_replica_and_client_of_a_cluster_shares_one_roster(self):
        cluster = TopologySpec.cluster(202, n_clients=3).build()
        members = [*cluster.replicas.values(), *cluster.clients.values()]
        shared = members[0]._roster
        assert all(member._roster is shared for member in members)
        assert all(replica.log._roster is shared for replica in cluster.replicas.values())
        assert shared == {node: 1 << node for node in range(202)}

    def test_the_cache_evicts_its_oldest_roster_past_its_bound(self, monkeypatch):
        from repro.pbft import log as log_module

        monkeypatch.setattr(log_module, "_rosters", {})
        monkeypatch.setattr(log_module, "ROSTER_BOUND", 3)
        first = roster((0, 1, 2, 3))
        assert roster((0, 1, 2, 3)) is first
        for k in range(1, 4):
            roster(tuple(range(k, k + 4)))
        assert list(log_module._rosters) == [(1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6)]
        assert roster((0, 1, 2, 3)) is not first and roster((0, 1, 2, 3)) == first


class TestConflicts:
    def test_conflicting_preprepare_recorded(self):
        log = log_of(4, 1)
        assert log.add_pre_prepare(pre_prepare(digest=D))
        assert not log.add_pre_prepare(
            PrePrepare(view=0, seq=1, digest=D2, request=request(), sender=0)
        )
        assert log.conflicts[0][:2] == (0, 1)

    def test_mismatched_prepare_rejected(self):
        log = log_of(4, 1)
        log.add_pre_prepare(pre_prepare(digest=D))
        state = log.add_prepare(Prepare(view=0, seq=1, digest=D2, sender=1))
        assert state is log.instance(0, 1)  # handed back, vote not counted
        assert log.voters(state.prepares) == {0} and state.digest == D

    def test_mismatched_commit_rejected(self):
        log = log_of(4, 1)
        log.add_pre_prepare(pre_prepare(digest=D))
        state = log.add_commit(Commit(view=0, seq=1, digest=D2, sender=1))
        assert state is log.instance(0, 1)
        assert log.voters(state.commits) == set() and state.digest == D

    def test_first_vote_fixes_the_digest_until_the_pre_prepare_arrives(self):
        log = log_of(4, 1)
        assert log.voters(log.add_commit(Commit(view=0, seq=1, digest=D, sender=2)).commits) == {2}
        assert log.voters(
            log.add_prepare(Prepare(view=0, seq=1, digest=D2, sender=3)).prepares) == set()
        assert not log.add_pre_prepare(pre_prepare(digest=D2))
        assert log.conflicts == [(0, 1, D, D2)]

    def test_votes_ahead_of_the_pre_prepare_count_when_it_arrives(self):
        log = log_of(4, 1)
        for s in (1, 2):
            log.add_prepare(Prepare(view=0, seq=1, digest=D, sender=s))
        for s in (0, 1, 2):
            state = log.add_commit(Commit(view=0, seq=1, digest=D, sender=s))
        assert not state.prepared_flag and not state.committed_flag
        assert log.add_pre_prepare(pre_prepare())
        assert state.prepared_flag and state.committed_flag


class TestViewChangeSupport:
    def _prepared_log(self, seqs, view=0):
        log = log_of(4, 1)
        for seq in seqs:
            log.add_pre_prepare(pre_prepare(view=view, seq=seq))
            for s in (1, 2):
                log.add_prepare(Prepare(view=view, seq=seq, digest=D, sender=s))
        return log

    def test_prepared_instances_sorted_above_min(self):
        log = self._prepared_log([1, 2, 5])
        result = log.prepared_instances(min_seq=1)
        assert [s.seq for s in result] == [2, 5]

    def test_highest_view_certificate_wins(self):
        log = log_of(4, 1)
        for view in (0, 2):
            log.add_pre_prepare(pre_prepare(view=view, seq=3))
            for s in (1, 2):
                log.add_prepare(Prepare(view=view, seq=3, digest=D, sender=s))
        result = log.prepared_instances(min_seq=0)
        assert len(result) == 1 and result[0].view == 2

    def test_garbage_collect(self):
        log = self._prepared_log([1, 2, 3, 4])
        removed = log.garbage_collect(stable_seq=2)
        assert removed == 2
        assert not log.prepared(0, 1)
        assert log.prepared(0, 3)
