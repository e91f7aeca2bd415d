"""Concrete byte layouts for protocol messages.

Every encoder produces exactly ``msg.size_bytes`` bytes -- the test
suite enforces it -- so the communication costs the experiments charge
are the costs a real deployment of these layouts would pay.

Every fixed record is a :class:`~repro.codec.primitives.Record` built
from the shared layout table (``WIRE_MESSAGES``), the same table the
message modules compute their sizes from; what is variable in a frame
is sized by a length its head carries or by the bytes that remain.

Signatures are not stored on the message objects (the simulation
verifies via the key registry), so encoders accept the 64-byte
signature as a parameter (zeroes by default) and decoders return it
alongside the message.

Decoding is the exact inverse of encoding: a decoder returns a value
that re-encodes to its input (bar embedded frames' signatures, which
are dropped) or raises ``ValidationError``, chained to the message
class's own error when the class refuses a field's value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.chain.transaction import NormalTransaction, Transaction
from repro.codec.primitives import Record
from repro.common.errors import ConsensusError, GeoError, ValidationError
from repro.crypto.keys import SIGNATURE_BYTES
from repro.geo.coords import LatLng
from repro.geo.reports import GeoReport
from repro.pbft.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    Prepare,
    PrePrepare,
    Reply,
)

if TYPE_CHECKING:
    from repro.chain.block import Block, BlockHeader
    from repro.core.messages import (
        EraSwitchOperation,
        InterZoneTx,
        ZoneCheckpointOperation,
    )
    from repro.pbft.messages import NewView, PreparedProof, ViewChange

_ZERO_SIG = b"\x00" * SIGNATURE_BYTES

#: Transaction kind tag in the wire header (the only kind there is).
_TX_KIND_NORMAL = 1

#: A normal transaction's key and value lengths share one header word.
_LENGTH_BITS = 16
_LENGTH_MAX = (1 << _LENGTH_BITS) - 1

_GEO = Record("geo.report")
_TX = Record("chain.transaction")
_TX_TAIL = Record("chain.transaction", "tail")
_REQUEST = Record("pbft.request")
_PRE_PREPARE = Record("pbft.pre_prepare")
_PREPARE = Record("pbft.prepare")
_COMMIT = Record("pbft.commit")
_CHECKPOINT = Record("pbft.checkpoint")
_REPLY = Record("pbft.reply")
_BLOCK_HEADER = Record("chain.block_header")
_ERA_SWITCH = Record("gpbft.era_switch")
_ERA_SWITCH_ID = Record("gpbft.era_switch", "item")
_XZONE = Record("gpbft.xzone_tx")
_XZONE_TAIL = Record("gpbft.xzone_tx", "tail")
_ZONE_CHECKPOINT = Record("gpbft.zone_checkpoint")
_PREPARED_PROOF = Record("pbft.prepared_proof")
_VIEW_CHANGE = Record("pbft.view_change")
_NEW_VIEW = Record("pbft.new_view")
_NEW_VIEW_VOTE = Record("pbft.new_view", "item")


def _expect_end(rest: bytes) -> None:
    if rest:
        raise ValidationError(f"{len(rest)} trailing bytes after decode")


# -- geographic info ----------------------------------------------------------

def encode_geo_report(report: GeoReport) -> bytes:
    """32-byte record: node u32 + pad 4 + lng f64 + lat f64 + ts f64."""
    return _GEO.pack(report.node, report.position.lng, report.position.lat,
                     report.timestamp)


def decode_geo_report(data: bytes) -> GeoReport:
    """Inverse of :func:`encode_geo_report`."""
    node, lng, lat, ts = _GEO.unpack(data)
    try:
        return GeoReport(node=node, position=LatLng(lat, lng), timestamp=ts)
    except GeoError as exc:
        raise ValidationError(f"geo.report: {exc}") from exc


# -- transactions ----------------------------------------------------------------

def encode_transaction(tx: Transaction, signature: bytes = _ZERO_SIG) -> bytes:
    """Fixed 40-byte header + payload region + geo record + signature."""
    if not isinstance(tx, NormalTransaction):
        raise ValidationError(f"no wire layout for {type(tx).__name__}")
    key = tx.key.encode()
    value = tx.value.encode()
    if len(key) > _LENGTH_MAX or len(value) > _LENGTH_MAX:
        raise ValidationError(f"key and value ({len(key)} and {len(value)} "
                              f"B) must each fit a {_LENGTH_BITS}-bit length")
    if len(key) + len(value) > tx.payload_bytes:
        raise ValidationError(f"key+value ({len(key)}+{len(value)} B) exceed "
                              f"the declared payload of {tx.payload_bytes} B")
    header = _TX.pack(_TX_KIND_NORMAL, tx.sender, tx.nonce, tx.fee,
                      tx.payload_bytes,
                      len(key) << _LENGTH_BITS | len(value), 0)
    payload = (key + value).ljust(tx.payload_bytes, b"\x00")
    return header + payload + _TX_TAIL.pack(encode_geo_report(tx.geo), signature)


def _read_transaction(data: bytes) -> tuple[Transaction, bytes, bytes]:
    """The transaction frame *data* starts with: (tx, signature, rest)."""
    (kind, sender, nonce, fee, payload_bytes, word, action), rest = \
        _TX.unpack_head(data)
    if len(rest) < payload_bytes:
        raise ValidationError(f"truncated transaction: {payload_bytes} B of "
                              f"payload declared, {len(rest)} remain")
    payload, rest = rest[:payload_bytes], rest[payload_bytes:]
    (geo_bytes, signature), rest = _TX_TAIL.unpack_head(rest)
    if kind != _TX_KIND_NORMAL:
        raise ValidationError(f"unknown transaction kind tag {kind}")
    if action:
        raise ValidationError(f"reserved action byte is {action}, not 0")
    key_len, value_len = word >> _LENGTH_BITS, word & _LENGTH_MAX
    used = key_len + value_len
    if used > payload_bytes:
        raise ValidationError(f"key+value ({key_len}+{value_len} B) exceed "
                              f"the declared payload of {payload_bytes} B")
    if payload.count(0, used) != payload_bytes - used:
        raise ValidationError("nonzero fill after the key and value")
    try:
        key = payload[:key_len].decode()
        value = payload[key_len:key_len + value_len].decode()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"key/value is not UTF-8: {exc}") from exc
    tx = NormalTransaction(
        sender=sender, nonce=nonce, fee=fee, geo=decode_geo_report(geo_bytes),
        payload_bytes=payload_bytes, key=key, value=value,
    )
    return tx, signature, rest


def decode_transaction(data: bytes) -> tuple[Transaction, bytes]:
    """Inverse of :func:`encode_transaction`; returns (tx, signature)."""
    tx, signature, rest = _read_transaction(data)
    _expect_end(rest)
    return tx, signature


# -- PBFT messages ----------------------------------------------------------------

def encode_prepare(msg: Prepare, signature: bytes = _ZERO_SIG) -> bytes:
    """view u32 + seq u32 + sender u32 + digest 32 + signature 64."""
    return _PREPARE.pack(msg.view, msg.seq, msg.sender, msg.digest, signature)


def decode_prepare(data: bytes, epoch: int = 0) -> tuple[Prepare, bytes]:
    """Inverse of :func:`encode_prepare` (epoch rides in the view word)."""
    view, seq, sender, digest, signature = _PREPARE.unpack(data)
    return Prepare(view=view, seq=seq, digest=digest, sender=sender,
                   epoch=epoch), signature


def encode_commit(msg: Commit, signature: bytes = _ZERO_SIG) -> bytes:
    """Same layout as prepare."""
    return _COMMIT.pack(msg.view, msg.seq, msg.sender, msg.digest, signature)


def decode_commit(data: bytes, epoch: int = 0) -> tuple[Commit, bytes]:
    """Inverse of :func:`encode_commit`."""
    view, seq, sender, digest, signature = _COMMIT.unpack(data)
    return Commit(view=view, seq=seq, digest=digest, sender=sender,
                  epoch=epoch), signature


def encode_checkpoint(msg: Checkpoint, signature: bytes = _ZERO_SIG) -> bytes:
    """seq u32 + sender u32 + digest 32 + signature 64."""
    return _CHECKPOINT.pack(msg.seq, msg.sender, msg.state_digest, signature)


def decode_checkpoint(data: bytes, epoch: int = 0) -> tuple[Checkpoint, bytes]:
    """Inverse of :func:`encode_checkpoint`."""
    seq, sender, digest, signature = _CHECKPOINT.unpack(data)
    return Checkpoint(seq=seq, state_digest=digest, sender=sender,
                      epoch=epoch), signature


def encode_reply(msg: Reply, signature: bytes = _ZERO_SIG) -> bytes:
    """view u32 + client u32 + sender u32 + timestamp f64 + digest 32
    + signature 64.  The request id is not on the wire: the client
    matches replies by (client, timestamp), as in classic PBFT."""
    return _REPLY.pack(msg.view, msg.client, msg.sender, msg.timestamp,
                       msg.result_digest, signature)


def decode_reply(data: bytes, request_id: str = "") -> tuple[Reply, bytes]:
    """Inverse of :func:`encode_reply`.

    Args:
        data: the wire bytes.
        request_id: supplied by the receiver's pending-request table
            (keyed by client + timestamp); empty when unknown.
    """
    view, client, sender, timestamp, digest, signature = _REPLY.unpack(data)
    return Reply(view=view, timestamp=timestamp, client=client, sender=sender,
                 request_id=request_id, result_digest=digest), signature


def encode_request(msg: ClientRequest, op_bytes: bytes,
                   signature: bytes = _ZERO_SIG) -> bytes:
    """client u32 + timestamp f64 + signature 64 + opaque operation.

    Args:
        msg: the request envelope.
        op_bytes: the serialized operation; its length must equal the
            operation's declared ``size_bytes`` (layout honesty check).
    """
    if len(op_bytes) != msg.op.size_bytes:
        raise ValidationError(f"operation encodes to {len(op_bytes)} B but "
                              f"declares {msg.op.size_bytes} B")
    return _REQUEST.pack(msg.client, msg.timestamp, signature) + op_bytes


def decode_request(data: bytes) -> tuple[int, float, bytes, bytes]:
    """Inverse of :func:`encode_request`.

    Returns:
        (client, timestamp, signature, op_bytes); the caller decodes the
        operation with the codec matching its kind.
    """
    (client, timestamp, signature), op_bytes = _REQUEST.unpack_head(data)
    return client, timestamp, signature, op_bytes


def encode_pre_prepare(msg: PrePrepare, request_bytes: bytes,
                       signature: bytes = _ZERO_SIG) -> bytes:
    """view u32 + seq u32 + sender u32 + digest 32 + signature 64 +
    the piggybacked request bytes."""
    if len(request_bytes) != msg.request.size_bytes:
        raise ValidationError(f"request encodes to {len(request_bytes)} B but "
                              f"declares {msg.request.size_bytes} B")
    return _PRE_PREPARE.pack(msg.view, msg.seq, msg.sender, msg.digest,
                             signature) + request_bytes


def decode_pre_prepare(data: bytes) -> tuple[int, int, int, bytes, bytes, bytes]:
    """Inverse of :func:`encode_pre_prepare`.

    Returns:
        (view, seq, sender, digest, signature, request_bytes).
    """
    (view, seq, sender, digest, signature), request_bytes = \
        _PRE_PREPARE.unpack_head(data)
    return view, seq, sender, digest, signature, request_bytes


# -- blocks ----------------------------------------------------------------

def encode_block_header(header: BlockHeader,
                        signature: bytes = _ZERO_SIG) -> bytes:
    """Fixed header: height/era/view/seq/proposer u32s + pad + timestamp
    f64 + parent 32 + tx_root 32 + signature 64 (matches
    ``BlockHeader.size_bytes``; the 20 reserved bytes leave room for
    future header fields)."""
    return _BLOCK_HEADER.pack(header.height, header.era, header.view,
                              header.seq, header.proposer, header.timestamp,
                              header.parent, header.tx_root, signature)


def _read_block_header(data: bytes) -> tuple[BlockHeader, bytes, bytes]:
    """The header frame *data* starts with: (header, signature, rest)."""
    from repro.chain.block import BlockHeader

    (height, era, view, seq, proposer, timestamp, parent, tx_root,
     signature), rest = _BLOCK_HEADER.unpack_head(data)
    header = BlockHeader(height=height, parent=parent, era=era, view=view,
                         seq=seq, proposer=proposer, timestamp=timestamp,
                         tx_root=tx_root)
    return header, signature, rest


def decode_block_header(data: bytes) -> tuple[BlockHeader, bytes]:
    """Inverse of :func:`encode_block_header`; returns (header, sig)."""
    header, signature, rest = _read_block_header(data)
    _expect_end(rest)
    return header, signature


def encode_block(block: Block, signature: bytes = _ZERO_SIG) -> bytes:
    """Header followed by each transaction's encoding, in order."""
    return encode_block_header(block.header, signature) + b"".join(
        encode_transaction(tx) for tx in block.transactions)


def decode_block(data: bytes) -> Block:
    """Inverse of :func:`encode_block`: the header, then transaction
    frames (each one's extent follows from its own header) to the end."""
    from repro.chain.block import Block

    header, _sig, rest = _read_block_header(data)
    txs: list[Transaction] = []
    while rest:
        tx, _tx_sig, rest = _read_transaction(rest)
        txs.append(tx)
    return Block(header, tuple(txs))


# -- G-PBFT operations -------------------------------------------------------

def encode_era_switch(op: EraSwitchOperation) -> bytes:
    """counts u32 x3 + new_era u32 + committee + added + removed ids."""
    return _ERA_SWITCH.pack(
        op.new_era, len(op.committee), len(op.added), len(op.removed),
    ) + b"".join(_ERA_SWITCH_ID.pack(node)
                 for node in (*op.committee, *op.added, *op.removed))


def decode_era_switch(data: bytes) -> EraSwitchOperation:
    """Inverse of :func:`encode_era_switch`."""
    from repro.core.messages import EraSwitchOperation

    (new_era, n_committee, n_added, n_removed), rest = \
        _ERA_SWITCH.unpack_head(data)
    # the ids are sized by the bytes that remain, never by the counts
    ids = [node for (node,) in _ERA_SWITCH_ID.unpack_each(rest)]
    if len(ids) != n_committee + n_added + n_removed:
        raise ValidationError(f"era switch declares {n_committee}+{n_added}+"
                              f"{n_removed} ids, carries {len(ids)}")
    added_at = n_committee + n_added
    try:
        return EraSwitchOperation(new_era=new_era,
                                  committee=tuple(ids[:n_committee]),
                                  added=tuple(ids[n_committee:added_at]),
                                  removed=tuple(ids[added_at:]))
    except ConsensusError as exc:
        raise ValidationError(f"gpbft.era_switch: {exc}") from exc


# -- hierarchical (zone-sharded) messages -------------------------------------

def encode_xzone_tx(msg: InterZoneTx, signature: bytes = _ZERO_SIG) -> bytes:
    """src + dst zone u32s, the embedded transaction frame, gateway sig."""
    return (_XZONE.pack(msg.src_zone, msg.dst_zone)
            + encode_transaction(msg.tx) + _XZONE_TAIL.pack(signature))


def _read_xzone_tx(data: bytes) -> tuple[InterZoneTx, bytes, bytes]:
    """The envelope frame *data* starts with: (envelope, signature, rest)."""
    from repro.core.messages import InterZoneTx

    (src_zone, dst_zone), rest = _XZONE.unpack_head(data)
    tx, _tx_sig, rest = _read_transaction(rest)
    (signature,), rest = _XZONE_TAIL.unpack_head(rest)
    try:
        envelope = InterZoneTx(src_zone=src_zone, dst_zone=dst_zone, tx=tx)
    except ConsensusError as exc:
        raise ValidationError(f"gpbft.xzone_tx: {exc}") from exc
    return envelope, signature, rest


def decode_xzone_tx(data: bytes) -> tuple[InterZoneTx, bytes]:
    """Inverse of :func:`encode_xzone_tx`; returns (envelope, signature)."""
    envelope, signature, rest = _read_xzone_tx(data)
    _expect_end(rest)
    return envelope, signature


def encode_zone_checkpoint(op: ZoneCheckpointOperation) -> bytes:
    """zone/seq/era/height/count u32s + 32-byte head + envelope frames."""
    return _ZONE_CHECKPOINT.pack(
        op.zone, op.seq, op.era, op.height, len(op.txs), op.head,
    ) + b"".join(encode_xzone_tx(env) for env in op.txs)


def decode_zone_checkpoint(data: bytes) -> ZoneCheckpointOperation:
    """Inverse of :func:`encode_zone_checkpoint`."""
    from repro.core.messages import ZoneCheckpointOperation

    (zone, seq, era, height, count, head), rest = \
        _ZONE_CHECKPOINT.unpack_head(data)
    # the envelopes are sized by the bytes that remain, never by the count
    txs: list[InterZoneTx] = []
    while rest:
        envelope, _sig, rest = _read_xzone_tx(rest)
        txs.append(envelope)
    if len(txs) != count:
        raise ValidationError(f"zone checkpoint declares {count} envelopes, "
                              f"carries {len(txs)}")
    return ZoneCheckpointOperation(zone=zone, seq=seq, era=era,
                                   height=height, head=head, txs=tuple(txs))


# -- view changes ---------------------------------------------------------------

def encode_prepared_proof(proof: PreparedProof, request_bytes: bytes) -> bytes:
    """view + seq + prepare_count u32s, digest 32, request bytes, then
    one prepare-sized certificate entry per recorded vote."""
    if len(request_bytes) != proof.request.size_bytes:
        raise ValidationError("request bytes do not match the declared size")
    # certificate entries: the prepares backing the proof.  The
    # simulation keeps only their count; the wire carries reconstructed
    # prepare records (sender and signature are placeholders).
    return _PREPARED_PROOF.pack(
        proof.view, proof.seq, proof.prepare_count, proof.digest,
    ) + request_bytes + b"".join(
        _PREPARE.pack(proof.view, proof.seq, i, proof.digest, _ZERO_SIG)
        for i in range(proof.prepare_count))


def _embedded(messages: Iterable[PreparedProof | PrePrepare],
              blobs: Iterable[bytes], what: str) -> bytes:
    """The pre-encoded frames of *messages*, joined, each checked
    against the size its message declares."""
    frames = []
    for message, blob in zip(messages, blobs):
        if len(blob) != message.size_bytes:
            raise ValidationError(f"{what} bytes do not match the declared size")
        frames.append(blob)
    return b"".join(frames)


def encode_view_change(msg: ViewChange, proofs_bytes: list[bytes],
                       signature: bytes = _ZERO_SIG) -> bytes:
    """new_view + last_stable_seq + sender + proof-count u32s,
    signature, then each encoded prepared proof."""
    return _VIEW_CHANGE.pack(
        msg.new_view, msg.last_stable_seq, msg.sender, len(msg.prepared),
        signature,
    ) + _embedded(msg.prepared, proofs_bytes, "proof")


def encode_new_view(msg: NewView, pre_prepares_bytes: list[bytes],
                    signature: bytes = _ZERO_SIG) -> bytes:
    """new_view + sender + vote-count + pre-prepare-count u32s,
    signature, one (sender u32 + signature) per view-change vote, then
    the re-issued pre-prepare bytes."""
    return _NEW_VIEW.pack(
        msg.new_view, msg.sender, len(msg.view_change_senders),
        len(msg.pre_prepares), signature,
    ) + b"".join(
        _NEW_VIEW_VOTE.pack(sender) for sender in msg.view_change_senders
    ) + _embedded(msg.pre_prepares, pre_prepares_bytes, "pre-prepare")
