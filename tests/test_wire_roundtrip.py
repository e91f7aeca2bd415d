"""Property tests: every registered wire codec round-trips losslessly
and rejects malformed bytes with a structured error.

``test_codec.py`` pins the byte layouts against their declared sizes;
this module drives each encode/decode pair through Hypothesis-generated
message values and then attacks the encodings: every strict prefix of a
valid frame must be rejected, trailing junk must be rejected, and a
single flipped byte must either decode cleanly (flips inside opaque
digest/signature/padding fields are indistinguishable from a different
valid message) or raise the repo's own error hierarchy -- never an
unstructured crash.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.block import Block
from repro.chain.transaction import NormalTransaction
from repro.codec import (
    decode_block,
    decode_block_header,
    decode_checkpoint,
    decode_commit,
    decode_era_switch,
    decode_geo_report,
    decode_pre_prepare,
    decode_prepare,
    decode_reply,
    decode_request,
    decode_transaction,
    decode_xzone_tx,
    decode_zone_checkpoint,
    encode_block,
    encode_block_header,
    encode_checkpoint,
    encode_commit,
    encode_era_switch,
    encode_geo_report,
    encode_pre_prepare,
    encode_prepare,
    encode_reply,
    encode_request,
    encode_transaction,
    encode_view_change,
    encode_prepared_proof,
    encode_xzone_tx,
    encode_zone_checkpoint,
)
from repro.common.errors import ReproError, ValidationError
from repro.core.messages import (
    EraSwitchOperation,
    InterZoneTx,
    ZoneCheckpointOperation,
)
from repro.crypto.hashing import sha256
from repro.geo.coords import LatLng
from repro.geo.reports import GeoReport
from repro.pbft.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    Prepare,
    PreparedProof,
    PrePrepare,
    RawOperation,
    Reply,
    ViewChange,
)

SIG = bytes(range(64))

u32s = st.integers(min_value=0, max_value=2**32 - 1)
small_u32s = st.integers(min_value=0, max_value=2**20)
digests = st.binary(min_size=32, max_size=32)
signatures = st.binary(min_size=64, max_size=64)
timestamps = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


def _tx(sender=3, nonce=9):
    return NormalTransaction(sender=sender, nonce=nonce, fee=1.25,
                             geo=GeoReport(node=sender,
                                           position=LatLng(22.3193, 114.1694),
                                           timestamp=2.5),
                             key="temp", value="25C")


def _request(op_bytes=120):
    return ClientRequest(client=1, timestamp=0.5,
                         op=RawOperation("op-rt", size_bytes=op_bytes))


def _sample_frames():
    """One representative valid frame per registered decoder.

    Returns ``name -> (data, decode)`` where *decode* takes raw bytes and
    either returns a value or raises from the repo error hierarchy.
    """
    tx = _tx()
    request = _request()
    request_bytes = encode_request(request, b"\x07" * request.op.size_bytes, SIG)
    pre_prepare = PrePrepare(view=1, seq=2, digest=request.digest(),
                             request=request, sender=0, epoch=1)
    block = Block.assemble(3, b"\x22" * 32, 1, 0, 3, 2, 7.5,
                           [_tx(nonce=i) for i in range(2)])
    era_switch = EraSwitchOperation(new_era=2, committee=(0, 1, 2, 3),
                                    added=(3,), removed=(5,))
    xzone = InterZoneTx(src_zone=0, dst_zone=1, tx=tx)
    checkpoint_op = ZoneCheckpointOperation(
        zone=0, seq=3, era=1, height=5, head=b"\x44" * 32,
        txs=(xzone, InterZoneTx(src_zone=0, dst_zone=2, tx=_tx(nonce=11))))
    return {
        "geo_report": (
            encode_geo_report(GeoReport(node=7, position=LatLng(22.0, 114.0),
                                        timestamp=12.5)),
            decode_geo_report,
        ),
        "transaction": (encode_transaction(tx, SIG), decode_transaction),
        "prepare": (
            encode_prepare(Prepare(view=3, seq=17, digest=sha256(b"d"),
                                   sender=5, epoch=2), SIG),
            lambda data: decode_prepare(data, epoch=2),
        ),
        "commit": (
            encode_commit(Commit(view=0, seq=1, digest=sha256(b"d"),
                                 sender=2), SIG),
            decode_commit,
        ),
        "checkpoint": (
            encode_checkpoint(Checkpoint(seq=64, state_digest=sha256(b"s"),
                                         sender=1), SIG),
            decode_checkpoint,
        ),
        "reply": (
            encode_reply(Reply(view=1, timestamp=10.5, client=9, sender=2,
                               request_id="9:op", result_digest=sha256(b"r")),
                         SIG),
            lambda data: decode_reply(data, request_id="9:op"),
        ),
        "request": (request_bytes, decode_request),
        "pre_prepare": (
            encode_pre_prepare(pre_prepare, request_bytes, SIG),
            decode_pre_prepare,
        ),
        "block_header": (
            encode_block_header(block.header, SIG),
            decode_block_header,
        ),
        "block": (encode_block(block, SIG), decode_block),
        "era_switch": (encode_era_switch(era_switch), decode_era_switch),
        "xzone_tx": (encode_xzone_tx(xzone, SIG), decode_xzone_tx),
        "zone_checkpoint": (
            encode_zone_checkpoint(checkpoint_op),
            decode_zone_checkpoint,
        ),
    }


FRAMES = _sample_frames()

#: Frames whose tail is an opaque variable-length payload: the outer
#: decoder deliberately absorbs any trailing bytes into the payload and
#: leaves rejection to the inner operation codec, so only the fixed
#: header (value = its byte length) is prefix-checked at this layer.
VARIABLE_TAIL = {"request": 4 + 8 + 64, "pre_prepare": 12 + 32 + 64}


class TestRoundTripProperties:
    """decode(encode(x)) == x for Hypothesis-generated messages."""

    @given(view=small_u32s, seq=small_u32s, sender=small_u32s,
           epoch=st.integers(min_value=0, max_value=2**16),
           digest=digests, sig=signatures)
    @settings(max_examples=50)
    def test_commit(self, view, seq, sender, epoch, digest, sig):
        msg = Commit(view=view, seq=seq, digest=digest, sender=sender,
                     epoch=epoch)
        data = encode_commit(msg, sig)
        assert len(data) == msg.size_bytes
        decoded, decoded_sig = decode_commit(data, epoch=epoch)
        assert decoded == msg and decoded_sig == sig

    @given(seq=small_u32s, sender=small_u32s, digest=digests, sig=signatures)
    @settings(max_examples=50)
    def test_checkpoint(self, seq, sender, digest, sig):
        msg = Checkpoint(seq=seq, state_digest=digest, sender=sender)
        data = encode_checkpoint(msg, sig)
        assert len(data) == msg.size_bytes
        decoded, decoded_sig = decode_checkpoint(data)
        assert decoded == msg and decoded_sig == sig

    @given(view=small_u32s, client=small_u32s, sender=small_u32s,
           ts=timestamps, digest=digests)
    @settings(max_examples=50)
    def test_reply(self, view, client, sender, ts, digest):
        rid = f"{client}:op"
        msg = Reply(view=view, timestamp=ts, client=client, sender=sender,
                    request_id=rid, result_digest=digest)
        data = encode_reply(msg, SIG)
        assert len(data) == msg.size_bytes
        decoded, _ = decode_reply(data, request_id=rid)
        assert decoded == msg

    @given(client=small_u32s, ts=timestamps,
           payload=st.binary(min_size=1, max_size=300), sig=signatures)
    @settings(max_examples=50)
    def test_request(self, client, ts, payload, sig):
        msg = ClientRequest(client=client, timestamp=ts,
                            op=RawOperation("p", size_bytes=len(payload)))
        data = encode_request(msg, payload, sig)
        assert len(data) == msg.size_bytes
        d_client, d_ts, d_sig, d_payload = decode_request(data)
        assert (d_client, d_ts, d_sig, d_payload) == (client, ts, sig, payload)

    @given(view=small_u32s, seq=small_u32s, sender=small_u32s,
           op_bytes=st.integers(min_value=1, max_value=300))
    @settings(max_examples=50)
    def test_pre_prepare(self, view, seq, sender, op_bytes):
        request = _request(op_bytes)
        request_bytes = encode_request(request, b"\x01" * op_bytes, SIG)
        msg = PrePrepare(view=view, seq=seq, digest=request.digest(),
                         request=request, sender=sender)
        data = encode_pre_prepare(msg, request_bytes, SIG)
        assert len(data) == msg.size_bytes
        d_view, d_seq, d_sender, d_digest, d_sig, d_payload = \
            decode_pre_prepare(data)
        assert (d_view, d_seq, d_sender) == (view, seq, sender)
        assert d_digest == request.digest() and d_payload == request_bytes

    @given(height=st.integers(min_value=1, max_value=2**20),
           era=st.integers(min_value=0, max_value=200),
           view=small_u32s, proposer=small_u32s, ts=timestamps,
           parent=digests, sig=signatures)
    @settings(max_examples=50)
    def test_block_header(self, height, era, view, proposer, ts, parent, sig):
        block = Block.assemble(height, parent, era, view, height, proposer,
                               ts, [])
        data = encode_block_header(block.header, sig)
        assert len(data) == block.header.size_bytes
        decoded, decoded_sig = decode_block_header(data)
        assert decoded == block.header and decoded_sig == sig

    @given(n_txs=st.integers(min_value=0, max_value=6),
           height=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=30)
    def test_block(self, n_txs, height):
        txs = [_tx(nonce=i) for i in range(n_txs)]
        block = Block.assemble(height, b"\x33" * 32, 0, 0, height, 1,
                               float(height), txs)
        data = encode_block(block)
        assert len(data) == block.size_bytes
        decoded = decode_block(data)
        assert decoded.digest() == block.digest()
        assert [t.tx_id for t in decoded.transactions] == \
            [t.tx_id for t in block.transactions]

    @given(
        new_era=st.integers(min_value=1, max_value=2**16),
        committee=st.sets(u32s, min_size=1, max_size=12).map(
            lambda s: tuple(sorted(s))),
        added=st.sets(st.integers(min_value=0, max_value=99),
                      max_size=4).map(lambda s: tuple(sorted(s))),
        removed=st.sets(st.integers(min_value=100, max_value=199),
                        max_size=4).map(lambda s: tuple(sorted(s))),
    )
    @settings(max_examples=50)
    def test_era_switch(self, new_era, committee, added, removed):
        op = EraSwitchOperation(new_era=new_era, committee=committee,
                                added=added, removed=removed)
        data = encode_era_switch(op)
        assert len(data) == op.size_bytes
        assert decode_era_switch(data) == op

    @given(src=st.integers(min_value=0, max_value=30),
           dst=st.integers(min_value=0, max_value=30),
           sender=small_u32s, nonce=small_u32s, sig=signatures)
    @settings(max_examples=50)
    def test_xzone_tx(self, src, dst, sender, nonce, sig):
        if src == dst:
            dst = src + 1
        env = InterZoneTx(src_zone=src, dst_zone=dst,
                          tx=_tx(sender=sender, nonce=nonce))
        data = encode_xzone_tx(env, sig)
        assert len(data) == env.size_bytes
        decoded, decoded_sig = decode_xzone_tx(data)
        assert decoded == env and decoded_sig == sig

    @given(zone=st.integers(min_value=0, max_value=30), seq=small_u32s,
           era=st.integers(min_value=0, max_value=200), height=small_u32s,
           head=digests, n_txs=st.integers(min_value=0, max_value=4))
    @settings(max_examples=50)
    def test_zone_checkpoint(self, zone, seq, era, height, head, n_txs):
        txs = tuple(
            InterZoneTx(src_zone=zone, dst_zone=zone + 1 + i, tx=_tx(nonce=i))
            for i in range(n_txs)
        )
        op = ZoneCheckpointOperation(zone=zone, seq=seq, era=era,
                                     height=height, head=head, txs=txs)
        data = encode_zone_checkpoint(op)
        assert len(data) == op.size_bytes
        assert decode_zone_checkpoint(data) == op


class TestEncodeOnlySizeHonesty:
    """View-change messages have no decoder; their encoders must still
    hit the declared ``size_bytes`` for any proof/pre-prepare counts."""

    @given(prepare_count=st.integers(min_value=1, max_value=7))
    @settings(max_examples=20)
    def test_prepared_proof(self, prepare_count):
        req = _request()
        proof = PreparedProof(view=0, seq=1, digest=req.digest(), request=req,
                              prepare_count=prepare_count)
        req_bytes = encode_request(req, b"\x00" * req.op.size_bytes)
        assert len(encode_prepared_proof(proof, req_bytes)) == proof.size_bytes

    @given(n_proofs=st.integers(min_value=0, max_value=4),
           new_view=st.integers(min_value=1, max_value=100))
    @settings(max_examples=20)
    def test_view_change(self, n_proofs, new_view):
        req = _request()
        req_bytes = encode_request(req, b"\x00" * req.op.size_bytes)
        proofs = tuple(
            PreparedProof(view=0, seq=i + 1, digest=req.digest(),
                          request=req, prepare_count=3)
            for i in range(n_proofs)
        )
        proofs_bytes = [encode_prepared_proof(p, req_bytes) for p in proofs]
        msg = ViewChange(new_view=new_view, last_stable_seq=0,
                         prepared=proofs, sender=2)
        assert len(encode_view_change(msg, proofs_bytes, SIG)) == msg.size_bytes


class TestMalformedInputRejection:
    """Truncation, trailing junk and byte flips never crash a decoder."""

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_every_strict_prefix_rejected(self, name):
        data, decode = FRAMES[name]
        checked = VARIABLE_TAIL.get(name, len(data))
        for cut in range(checked):
            with pytest.raises(ValidationError):
                decode(data[:cut])

    @pytest.mark.parametrize("name", sorted(set(FRAMES) - set(VARIABLE_TAIL)))
    @given(junk=st.binary(min_size=1, max_size=16))
    @settings(max_examples=20)
    def test_trailing_junk_rejected(self, name, junk):
        data, decode = FRAMES[name]
        with pytest.raises(ValidationError):
            decode(data + junk)

    @pytest.mark.parametrize("name", sorted(VARIABLE_TAIL))
    @given(junk=st.binary(min_size=1, max_size=16))
    @settings(max_examples=20)
    def test_trailing_junk_lands_in_payload(self, name, junk):
        # the envelope absorbs junk into the opaque payload; the inner
        # operation codec is the layer that rejects it (covered by the
        # transaction truncation/garbage cases above)
        data, decode = FRAMES[name]
        payload = decode(data + junk)[-1]
        assert payload.endswith(junk)

    @pytest.mark.parametrize("name", sorted(FRAMES))
    @given(pos=st.integers(min_value=0), flip=st.integers(min_value=1,
                                                          max_value=255))
    @settings(max_examples=60)
    def test_single_byte_flip_is_bounded(self, name, pos, flip):
        data, decode = FRAMES[name]
        mutated = bytearray(data)
        pos %= len(mutated)
        mutated[pos] ^= flip
        try:
            decode(bytes(mutated))
        except ReproError:
            pass  # structured rejection is the contract
        # a flip inside an opaque digest/signature/padding field may
        # decode as a *different* valid message; that is fine -- only
        # unstructured exceptions are failures

    @pytest.mark.parametrize("name", sorted(FRAMES))
    @given(data=st.binary(max_size=250))
    @settings(max_examples=40)
    def test_random_bytes_never_crash(self, name, data):
        _, decode = FRAMES[name]
        try:
            decode(data)
        except ReproError:
            pass
