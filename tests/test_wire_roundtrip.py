"""Property tests: every registered wire codec round-trips losslessly,
and every decoder is the exact inverse of its encoder.

``test_codec.py`` pins the byte layouts against their declared sizes;
this module drives each encode/decode pair through Hypothesis-generated
message values and then attacks one sample frame per registered
decoder.  A field map read from the ``WIRE_MESSAGES`` layouts drives
the attack: every strict prefix, trailing bytes, every byte outside the
opaque digest, signature and operation fields, and every count or
length field at its edges.  Each outcome must be ``ValidationError`` or
a value that re-encodes to exactly the bytes decoded -- nothing else.
"""

import re
import struct
from typing import NamedTuple

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
from repro.codec import wire
from repro.common.errors import ConsensusError, GeoError, ValidationError
from repro.common.wire_layout import WIRE_MESSAGES, wire_struct
from repro.core.messages import (
    EraSwitchOperation,
    InterZoneTx,
    ZoneCheckpointOperation,
)
from repro.crypto.hashing import sha256
from repro.crypto.keys import SIGNATURE_BYTES
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


_HEAD = wire_struct("pbft.request").size


def _stand_in_request(size, client=0, timestamp=0.0):
    """A request whose frame is *size* bytes: what a layer that carries
    request bytes opaquely needs to re-encode them."""
    return ClientRequest(client=client, timestamp=timestamp,
                         op=RawOperation("opaque", size_bytes=size - _HEAD))


def _reencode_request(value):
    client, timestamp, signature, op_bytes = value
    request = _stand_in_request(_HEAD + len(op_bytes), client, timestamp)
    return encode_request(request, op_bytes, signature)


def _reencode_pre_prepare(value):
    view, seq, sender, digest, signature, request_bytes = value
    msg = PrePrepare(view=view, seq=seq, digest=digest, sender=sender,
                     request=_stand_in_request(len(request_bytes)))
    return encode_pre_prepare(msg, request_bytes, signature)


def _sample_frames():
    """One representative valid frame per registered decoder.

    Returns ``name -> (data, decode, reencode)``, keyed by the decoder's
    name without its ``decode_`` prefix.  *decode* takes raw bytes and
    either returns a value or raises ``ValidationError``; *reencode*
    turns a decoded value back into bytes.  ``decode_block``,
    ``decode_xzone_tx`` and ``decode_zone_checkpoint`` drop the
    signatures of the frames they embed, so theirs re-encode with the
    signatures the sample frame was built with.
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

    def signed(encode):
        return lambda value: encode(*value)

    return {
        "geo_report": (
            encode_geo_report(GeoReport(node=7, position=LatLng(22.0, 114.0),
                                        timestamp=12.5)),
            decode_geo_report, encode_geo_report,
        ),
        "transaction": (encode_transaction(tx, SIG), decode_transaction,
                        signed(encode_transaction)),
        "prepare": (
            encode_prepare(Prepare(view=3, seq=17, digest=sha256(b"d"),
                                   sender=5, epoch=2), SIG),
            lambda data: decode_prepare(data, epoch=2), signed(encode_prepare),
        ),
        "commit": (
            encode_commit(Commit(view=0, seq=1, digest=sha256(b"d"),
                                 sender=2), SIG),
            decode_commit, signed(encode_commit),
        ),
        "checkpoint": (
            encode_checkpoint(Checkpoint(seq=64, state_digest=sha256(b"s"),
                                         sender=1), SIG),
            decode_checkpoint, signed(encode_checkpoint),
        ),
        "reply": (
            encode_reply(Reply(view=1, timestamp=10.5, client=9, sender=2,
                               request_id="9:op", result_digest=sha256(b"r")),
                         SIG),
            lambda data: decode_reply(data, request_id="9:op"),
            signed(encode_reply),
        ),
        "request": (request_bytes, decode_request, _reencode_request),
        "pre_prepare": (
            encode_pre_prepare(pre_prepare, request_bytes, SIG),
            decode_pre_prepare, _reencode_pre_prepare,
        ),
        "block_header": (
            encode_block_header(block.header, SIG),
            decode_block_header, signed(encode_block_header),
        ),
        "block": (encode_block(block, SIG), decode_block,
                  lambda value: encode_block(value, SIG)),
        "era_switch": (encode_era_switch(era_switch), decode_era_switch,
                       encode_era_switch),
        "xzone_tx": (encode_xzone_tx(xzone, SIG), decode_xzone_tx,
                     signed(encode_xzone_tx)),
        "zone_checkpoint": (
            encode_zone_checkpoint(checkpoint_op),
            decode_zone_checkpoint, encode_zone_checkpoint,
        ),
    }


FRAMES = _sample_frames()

#: Frames whose tail is an opaque variable-length payload: the outer
#: decoder deliberately absorbs any trailing bytes into the payload and
#: leaves rejection to the inner operation codec, so only the fixed
#: header (value = its byte length) must be refused when cut short.
VARIABLE_TAIL = {"request": 4 + 8 + 64, "pre_prepare": 12 + 32 + 64}

#: Count and length fields, by (kind, field index in its layout): the
#: (shift, bits) of each count the field's word holds.  A transaction's
#: key and value lengths share one u32 as 16-bit halves.
COUNTS = {
    ("chain.transaction", 4): ((0, 32),),
    ("chain.transaction", 5): ((16, 16), (0, 16)),
    ("gpbft.era_switch", 1): ((0, 32),),
    ("gpbft.era_switch", 2): ((0, 32),),
    ("gpbft.era_switch", 3): ((0, 32),),
    ("gpbft.zone_checkpoint", 4): ((0, 32),),
}

#: The kind of each sample frame (``decode_<name>`` is its decoder).
KINDS = {entry["decoder"].removeprefix("decode_"): kind
         for kind, entry in WIRE_MESSAGES.items() if entry["decoder"]}


class Field(NamedTuple):
    """One field of a frame: ``width`` bytes at ``start``; the (shift,
    bits) of each count it holds."""

    start: int
    width: int
    label: str
    opaque: bool
    counts: tuple[tuple[int, int], ...] = ()


def _record(kind, part, start):
    """The fields of *kind*'s *part* record at *start*, and its end."""
    fields = []
    index = 0
    layout = WIRE_MESSAGES[kind][part]
    for count, code in re.findall(r"(\d*)([a-zA-Z?])", layout):
        raw = code in "sx"
        width = struct.calcsize(">" + (count if raw else "") + code)
        for _ in range(1 if raw else int(count or 1)):
            label = f"{kind} {part} " + (
                "padding" if code == "x" else f"field {index}")
            fields.append(Field(start, width, label, code == "s",
                                COUNTS.get((kind, index), ())))
            start += width
            index += code != "x"
    return fields, start


def _layout(kind, data, start=0):
    """Every field of the *kind* frame at *start* in *data*, embedded
    frames included, and the frame's end.

    ``s`` fields are opaque (digests, signatures), except the geo record
    a transaction's tail embeds; a request's operation bytes are opaque
    too.  What follows each record is docs/protocol.md section 10.
    """
    if kind == "chain.block":
        fields, start = _layout("chain.block_header", data, start)
        while start < len(data):
            tx_fields, start = _layout("chain.transaction", data, start)
            fields += tx_fields
        return fields, start
    fields, end = _record(kind, "layout", start)
    if kind == "chain.transaction":
        payload = struct.unpack_from(">I", data, fields[4].start)[0]
        fields.append(Field(end, payload, f"{kind} payload", False))
        tail, end = _record(kind, "tail", end + payload)
        geo, _ = _layout("geo.report", data, tail[0].start)
        fields += geo + tail[1:]
    elif kind == "gpbft.era_switch":
        while end < len(data):
            item, end = _record(kind, "item", end)
            fields += item
    elif kind == "gpbft.xzone_tx":
        tx, end = _layout("chain.transaction", data, end)
        signature, end = _record(kind, "tail", end)
        fields += tx + signature
    elif kind == "gpbft.zone_checkpoint":
        while end < len(data):
            envelope, end = _layout("gpbft.xzone_tx", data, end)
            fields += envelope
    elif kind == "pbft.pre_prepare":
        request, end = _layout("pbft.request", data, end)
        fields += request
    elif kind == "pbft.request":
        fields.append(Field(end, len(data) - end, f"{kind} operation", True))
        end = len(data)
    return fields, end


def _editable(name):
    """The byte offsets of *name*'s sample frame outside opaque fields."""
    data = FRAMES[name][0]
    return [offset for field in _layout(KINDS[name], data)[0]
            if not field.opaque
            for offset in range(field.start, field.start + field.width)]


def _dropped_signatures(name):
    """The byte offsets of the signatures *name*'s decoder drops: those
    of the frames a block, an envelope or a zone checkpoint embeds (an
    envelope returns its own gateway signature)."""
    if name not in ("block", "xzone_tx", "zone_checkpoint"):
        return set()
    kept = "gpbft.xzone_tx tail field 0" if name == "xzone_tx" else None
    return {offset for field in _layout(KINDS[name], FRAMES[name][0])[0]
            if field.opaque and field.width == SIGNATURE_BYTES
            and field.label != kept
            for offset in range(field.start, field.start + field.width)}


#: The kind of the frames each kind carries after its head record.
EMBEDS = {"pbft.pre_prepare": "pbft.request",
          "chain.block": "chain.transaction",
          "gpbft.xzone_tx": "chain.transaction",
          "gpbft.zone_checkpoint": "gpbft.xzone_tx"}


def _head_end(kind, start=0):
    """Where the head record of the *kind* frame at *start* ends."""
    head = "chain.block_header" if kind == "chain.block" else kind
    return _record(head, "layout", start)[1]


def _embedded(kind, data, start=0):
    """(start, end) of every frame the *kind* frame at *start* in *data*
    embeds, nested ones included: a pre-prepare's request, a block's
    transactions, an envelope's transaction, a checkpoint's envelopes."""
    inner = EMBEDS.get(kind)
    spans = []
    at = _head_end(kind, start)
    while inner is not None and at < len(data):
        end = _layout(inner, data, at)[1]
        spans += [(at, end), *_embedded(inner, data, at)]
        at = end
        if kind == "gpbft.xzone_tx":  # one transaction, then the tail
            break
    return spans


def _raw_fields(value):
    """Every bytes-like value a decoded *value* holds, through tuples
    (messages included), lists and the slots and attributes of the
    package's own objects."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _raw_fields(item)
    elif type(value).__module__.startswith("repro."):
        names = list(getattr(value, "__dict__", ()))
        for cls in type(value).__mro__:
            names += cls.__dict__.get("__slots__", ())
        for name in names:
            if hasattr(value, name) and not name.startswith("__"):
                yield from _raw_fields(getattr(value, name))


def _count_edges(name):
    """(label, frame) for every count or length field of *name*'s sample
    frame set to 0, 1, its maximum, maximum + 1 (modulo its u32 word, so
    a 16-bit half carries into its neighbour) and one more than the
    bytes after it."""
    data = FRAMES[name][0]
    for field in _layout(KINDS[name], data)[0]:
        word = int.from_bytes(data[field.start:field.start + 4], "big")
        remaining = len(data) - field.start - 4
        for shift, bits in field.counts:
            top = (1 << bits) - 1
            for value in (0, 1, top, top + 1, remaining + 1):
                edited = (word & ~(top << shift)) + (value << shift)
                frame = bytearray(data)
                frame[field.start:field.start + 4] = \
                    (edited % (1 << 32)).to_bytes(4, "big")
                yield (f"{field.label} bits {shift}+{bits} = {value}",
                       bytes(frame))


def _edit(name, label, byte, index=-1):
    """*name*'s sample frame with byte *index* of its first field
    labelled *label* set to *byte*."""
    data = bytearray(FRAMES[name][0])
    field = next(field for field in _layout(KINDS[name], data)[0]
                 if field.label == label)
    data[field.start + range(field.width)[index]] = byte
    return bytes(data)


def assert_contract(name, data, what):
    """Decoding *data* raises ``ValidationError`` or returns a value that
    re-encodes to exactly *data*; nothing else is allowed."""
    _, decode, reencode = FRAMES[name]
    try:
        value = decode(data)
    except ValidationError:
        return
    except Exception as exc:  # the contract admits no other outcome
        pytest.fail(f"{name}, {what}: decoder raised {exc!r}")
    try:
        again = reencode(value)
    except Exception as exc:  # the contract admits no other outcome
        pytest.fail(f"{name}, {what}: decoded {value!r} does not re-encode: "
                    f"{exc!r}")
    assert again == data, f"{name}, {what}: {value!r} re-encodes differently"


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
    """Truncation, trailing bytes, byte edits and count edges: every
    decoder answers ``ValidationError`` or an exact round trip."""

    def test_every_decoder_is_registered_and_has_a_frame(self):
        public = {name for name, value in vars(wire).items()
                  if name.startswith("decode_") and callable(value)}
        registered = {entry["decoder"] for entry in WIRE_MESSAGES.values()
                      if entry["decoder"]}
        assert public <= registered, (
            f"decoders missing from WIRE_MESSAGES: {public - registered}")
        assert {f"decode_{name}" for name in FRAMES} == registered

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_every_strict_prefix_rejected(self, name):
        # a cut frame is refused by its framing, before any half-read
        # field reaches a message class (whose refusal the codec
        # chains); past an opaque tail's header the cut lands in the
        # payload and must round-trip
        data = FRAMES[name][0]
        checked = VARIABLE_TAIL.get(name, len(data))
        for cut in range(len(data)):
            if cut >= checked:
                assert_contract(name, data[:cut], f"cut at {cut}")
                continue
            with pytest.raises(ValidationError) as refused:
                FRAMES[name][1](data[:cut])
            assert refused.value.__cause__ is None, (
                f"{name} cut at {cut}: {refused.value!r} is a field's "
                "refusal, not the framing's")

    @pytest.mark.parametrize("name", sorted(set(FRAMES) - set(VARIABLE_TAIL)))
    @given(junk=st.binary(min_size=1, max_size=16))
    @settings(max_examples=20)
    def test_trailing_junk_rejected(self, name, junk):
        data, decode, _ = FRAMES[name]
        with pytest.raises(ValidationError):
            decode(data + junk)

    @pytest.mark.parametrize("name", sorted(VARIABLE_TAIL))
    @given(junk=st.binary(min_size=1, max_size=16))
    @settings(max_examples=20)
    def test_trailing_junk_lands_in_payload(self, name, junk):
        # the envelope absorbs junk into the opaque payload; the inner
        # operation codec is the layer that rejects it (covered by the
        # transaction truncation/garbage cases above)
        data, decode, _ = FRAMES[name]
        payload = decode(data + junk)[-1]
        assert payload.endswith(junk)
        assert_contract(name, data + junk, "trailing junk")

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_layout_tiles_the_frame(self, name):
        # the sweep's field map: every byte of the sample in exactly one
        # field, read from the table's layouts
        data = FRAMES[name][0]
        fields, end = _layout(KINDS[name], data)
        assert end == len(data)
        assert [f.start for f in fields] == [0] + [
            f.start + f.width for f in fields[:-1]]

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_every_byte_edit_meets_the_contract(self, name):
        data = FRAMES[name][0]
        for offset in _editable(name):
            for byte in (0x00, 0x01, 0x7F, 0xFF):
                frame = bytearray(data)
                frame[offset] = byte
                assert_contract(name, bytes(frame),
                                f"byte {offset} set to {byte:#04x}")

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_every_count_edge_meets_the_contract(self, name):
        for what, frame in _count_edges(name):
            assert_contract(name, frame, what)

    @pytest.mark.parametrize("name", sorted(FRAMES))
    @given(pos=st.integers(min_value=0), flip=st.integers(min_value=1,
                                                          max_value=255))
    @settings(max_examples=60)
    def test_single_byte_flip_is_bounded(self, name, pos, flip):
        data, decode, _ = FRAMES[name]
        mutated = bytearray(data)
        offset = pos % len(data)
        mutated[offset] ^= flip
        if offset in _dropped_signatures(name):
            decode(bytes(mutated))  # never read, so never refused
        else:
            assert_contract(name, bytes(mutated),
                            f"byte {offset} ^ {flip:#04x}")

    @pytest.mark.parametrize("name", sorted(FRAMES))
    @given(data=st.binary(max_size=250))
    @settings(max_examples=40)
    def test_random_bytes_never_crash(self, name, data):
        assert_contract(name, data, "random bytes")


class TestSplicedFrames:
    """Frames built from other frames' parts: an embedded frame cut
    short with more after it, and one kind's head on another's body."""

    @pytest.mark.parametrize("name", ["pre_prepare", "block", "xzone_tx",
                                      "zone_checkpoint"])
    def test_an_embedded_frame_cut_short_meets_the_contract(self, name):
        data = FRAMES[name][0]
        spans = _embedded(KINDS[name], data)
        assert spans
        for start, end in spans:
            for cut in range(start + 1, end):
                # the cut frame followed by what came after it, and by
                # the whole frame again
                assert_contract(name, data[:cut] + data[end:],
                                f"frame {start}-{end} cut at {cut}")
                assert_contract(name, data[:cut] + data[start:],
                                f"frame {start}-{end} cut at {cut}, "
                                "then the whole frame")

    @pytest.mark.parametrize("head, body", [
        (head, body) for head in sorted(FRAMES) for body in sorted(FRAMES)
        if head != body])
    def test_a_head_on_another_kinds_body_meets_the_contract(self, head,
                                                             body):
        data = (FRAMES[head][0][:_head_end(KINDS[head])]
                + FRAMES[body][0][_head_end(KINDS[body]):])
        for name in (head, body):
            assert_contract(name, data, f"{head} head on {body} body")


class TestDecodedFieldsAreBytes:
    """A decoder reads embedded frames through views of its buffer and
    returns every raw field as ``bytes``: a view would compare equal to
    its bytes, so the round trips above cannot tell."""

    #: The decoders whose values hold no raw field at all.
    NO_RAW = {"geo_report", "era_switch"}

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_every_raw_field_is_bytes(self, name):
        data, decode, _ = FRAMES[name]
        raw = list(_raw_fields(decode(data)))
        assert bool(raw) != (name in self.NO_RAW)
        assert [type(field) for field in raw] == [bytes] * len(raw)


class TestCanonicalDecoding:
    """Named cases of the sweep above: bytes the encoder writes as
    zeroes must read as zeroes, and a field value a message class
    refuses is a ``ValidationError`` chained to the class's error."""

    @pytest.mark.parametrize("name, label", [
        ("geo_report", "geo.report layout padding"),
        ("transaction", "chain.transaction layout field 6"),  # action byte
        ("transaction", "chain.transaction layout padding"),
        ("transaction", "chain.transaction payload"),  # the zero fill
        ("block_header", "chain.block_header layout padding"),
        ("block", "chain.transaction layout padding"),
        ("xzone_tx", "geo.report layout padding"),
        ("zone_checkpoint", "chain.transaction payload"),
    ])
    def test_nonzero_reserved_bytes_rejected(self, name, label):
        with pytest.raises(ValidationError, match="nonzero|reserved"):
            FRAMES[name][1](_edit(name, label, 0x01))

    @pytest.mark.parametrize("name", [
        "geo_report", "transaction", "block", "xzone_tx", "zone_checkpoint"])
    def test_coordinate_out_of_range_is_a_validation_error(self, name):
        frame = _edit(name, "geo.report layout field 1", 0x7F, index=0)
        with pytest.raises(ValidationError, match="longitude") as refused:
            FRAMES[name][1](frame)
        assert isinstance(refused.value.__cause__, GeoError)

    @pytest.mark.parametrize("name, label, reason", [
        ("era_switch", "gpbft.era_switch layout field 0", "new_era"),
        ("xzone_tx", "gpbft.xzone_tx layout field 1", "cross zones"),
        ("zone_checkpoint", "gpbft.xzone_tx layout field 1", "cross zones"),
    ])
    def test_refused_operation_is_a_validation_error(self, name, label,
                                                      reason):
        with pytest.raises(ValidationError, match=reason) as refused:
            FRAMES[name][1](_edit(name, label, 0x00))
        assert isinstance(refused.value.__cause__, ConsensusError)
