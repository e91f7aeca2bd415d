"""Unit tests: PBFT wire-message size accounting and validation.

The communication-cost reproduction depends on these exact sizes (see
DESIGN.md): ints 4 B, timestamps 8 B, digests 32 B, signatures 64 B.
A prepare/commit must be exactly 108 B -- with n = 202 that yields the
paper's ~8.6 MB per request.
"""

import copy
import inspect
import pickle

import pytest

from repro.common.errors import ConsensusError
from repro.common.eventlog import Event
from repro.crypto.hashing import sha256
from repro.pbft.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    NewView,
    Prepare,
    PreparedProof,
    PrePrepare,
    RawOperation,
    Reply,
    ViewChange,
)

D = sha256(b"digest")


def request(op_bytes=200):
    return ClientRequest(client=1, timestamp=0.0,
                         op=RawOperation("op", size_bytes=op_bytes))


class TestSizes:
    def test_prepare_is_108_bytes(self):
        msg = Prepare(view=0, seq=1, digest=D, sender=2)
        assert msg.size_bytes == 108

    def test_commit_is_108_bytes(self):
        msg = Commit(view=0, seq=1, digest=D, sender=2)
        assert msg.size_bytes == 108

    def test_request_is_overhead_plus_op(self):
        # client 4 + timestamp 8 + signature 64 + op
        assert request(200).size_bytes == 276

    def test_pre_prepare_piggybacks_request(self):
        msg = PrePrepare(view=0, seq=1, digest=D, request=request(), sender=0)
        assert msg.size_bytes == 3 * 4 + 32 + 64 + 276

    def test_reply_size(self):
        msg = Reply(view=0, timestamp=0.0, client=1, sender=2,
                    request_id="1:op", result_digest=D)
        assert msg.size_bytes == 3 * 4 + 8 + 32 + 64

    def test_checkpoint_size(self):
        msg = Checkpoint(seq=10, state_digest=D, sender=1)
        assert msg.size_bytes == 2 * 4 + 32 + 64

    def test_view_change_grows_with_prepared_set(self):
        proof = PreparedProof(view=0, seq=1, digest=D, request=request(),
                              prepare_count=3)
        empty = ViewChange(new_view=1, last_stable_seq=0, prepared=(), sender=1)
        loaded = ViewChange(new_view=1, last_stable_seq=0, prepared=(proof,),
                            sender=1)
        assert loaded.size_bytes == empty.size_bytes + proof.size_bytes
        # the certificate charges one prepare-sized entry per vote
        assert proof.size_bytes >= 3 * 108

    def test_new_view_charges_votes_and_pre_prepares(self):
        pp = PrePrepare(view=1, seq=1, digest=D, request=request(), sender=0)
        msg = NewView(new_view=1, view_change_senders=(0, 1, 2),
                      pre_prepares=(pp,), sender=0)
        bare = NewView(new_view=1, view_change_senders=(), pre_prepares=(),
                       sender=0)
        assert msg.size_bytes > bare.size_bytes + pp.size_bytes


class TestEpochScoping:
    def test_epoch_defaults_to_zero(self):
        assert Prepare(view=0, seq=1, digest=D, sender=2).epoch == 0

    def test_epoch_does_not_change_size(self):
        # the era rides in the view word on the wire (view numbering
        # restarts each era), so tagging costs no bytes
        a = Prepare(view=0, seq=1, digest=D, sender=2, epoch=0)
        b = Prepare(view=0, seq=1, digest=D, sender=2, epoch=7)
        assert a.size_bytes == b.size_bytes

    def test_replica_ignores_foreign_epoch(self):
        from repro.net.simulator import Simulator
        from repro.pbft.replica import PBFTReplica

        sent = []

        class Recorder:
            def send(self, dst, payload):
                sent.append((dst, payload))

            def multicast(self, dsts, payload):
                sent.extend((dst, payload) for dst in dsts)

        replica = PBFTReplica(
            node_id=1, committee=(0, 1, 2, 3), sim=Simulator(),
            transport=Recorder(), epoch=2,
        )
        req = request()
        foreign = PrePrepare(view=0, seq=1, digest=req.digest(),
                             request=req, sender=0, epoch=1)
        replica.receive(foreign)
        assert sent == []  # no prepare issued for old-era traffic
        native = PrePrepare(view=0, seq=1, digest=req.digest(),
                            request=req, sender=0, epoch=2)
        replica.receive(native)
        assert any(p.kind == "pbft.prepare" for _, p in sent)


def phase_messages():
    """One of each tuple message kind."""
    req = request()
    return [
        PrePrepare(view=0, seq=1, digest=req.digest(), request=req, sender=0),
        Prepare(view=0, seq=1, digest=D, sender=2, epoch=3),
        Commit(view=0, seq=1, digest=D, sender=2),
        Reply(view=0, timestamp=0.5, client=1, sender=2, request_id="1:op",
              result_digest=D),
        Checkpoint(seq=10, state_digest=D, sender=1),
    ]


class TestTupleMessages:
    def test_a_prepare_never_equals_a_commit_with_the_same_fields(self):
        prepare = Prepare(view=0, seq=1, digest=D, sender=2)
        commit = Commit(view=0, seq=1, digest=D, sender=2)
        assert prepare != commit
        assert len({prepare, commit}) == 2
        assert prepare == Prepare(0, 1, D, 2, 0) and hash(prepare) == hash(Prepare(0, 1, D, 2))

    @pytest.mark.parametrize("msg", phase_messages(), ids=lambda m: m.kind)
    def test_pickle_copy_and_repr_round_trip(self, msg):
        names = {cls.__name__: cls for cls in (PrePrepare, Prepare, Commit, Reply,
                                               Checkpoint, ClientRequest, RawOperation)}
        for twin in (pickle.loads(pickle.dumps(msg)), copy.copy(msg),
                     copy.deepcopy(msg), eval(repr(msg), names)):
            assert twin == msg and type(twin) is type(msg)
        assert repr(msg).startswith(f"{type(msg).__name__}(")

    @pytest.mark.parametrize("msg", phase_messages(), ids=lambda m: m.kind)
    def test_kind_and_size_are_class_level_and_fields_are_read_only(self, msg):
        cls = type(msg)
        assert msg.kind == cls.kind and msg[0] == cls.kind
        if cls is not PrePrepare:
            assert msg.size_bytes == cls.size_bytes
        with pytest.raises(AttributeError):
            msg.sender = 9
        assert not hasattr(msg, "__dict__")

    @pytest.mark.parametrize("cls", [PrePrepare, Prepare, Commit, Reply, Checkpoint, Event])
    def test_declared_fields_are_the_constructor_parameters_in_order(self, cls):
        # a field declared out of step with __new__ would read the wrong item
        assert cls._fields == tuple(inspect.signature(cls.__new__).parameters)[1:]


class TestValidation:
    def test_pre_prepare_digest_length_checked(self):
        with pytest.raises(ConsensusError):
            PrePrepare(view=0, seq=1, digest=b"short", request=request(), sender=0)
        with pytest.raises(ConsensusError, match="32 bytes"):
            PrePrepare(view=0, seq=1, digest=D[:31], request=request(), sender=0)

    def test_request_id_format(self):
        assert request().request_id == "1:op"

    def test_request_digest_depends_on_op(self):
        a = ClientRequest(client=1, timestamp=0.0, op=RawOperation("a"))
        b = ClientRequest(client=1, timestamp=0.0, op=RawOperation("b"))
        assert a.digest() != b.digest()
