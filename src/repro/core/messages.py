"""G-PBFT wire payloads and the operations its PBFT engine orders.

Two kinds of objects live here:

* **network payloads** (``kind`` + ``size_bytes``) that travel in
  envelopes: periodic geo reports, committee announcements after era
  switches, raw transaction submissions in block-production mode;
* **PBFT operations** (implementing :class:`repro.pbft.messages.Operation`)
  that ride inside client requests: a single transaction, an era switch,
  or a whole block proposal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConsensusError
from repro.common.wire_layout import wire_struct
from repro.crypto.keys import SIGNATURE_BYTES
from repro.crypto.hashing import digest_concat
from repro.chain.block import Block
from repro.chain.transaction import Transaction
from repro.geo.reports import GeoReport

_INT_BYTES = 4

#: Fixed parts of the frames repro.codec lays out, read once from the
#: layouts it packs with (WIRE_MESSAGES).
_ERA_SWITCH_BYTES = wire_struct("gpbft.era_switch").size
_ERA_SWITCH_ID_BYTES = wire_struct("gpbft.era_switch", "item").size
_XZONE_BYTES = (wire_struct("gpbft.xzone_tx").size
                + wire_struct("gpbft.xzone_tx", "tail").size)
_ZONE_CHECKPOINT_BYTES = wire_struct("gpbft.zone_checkpoint").size


@dataclass(frozen=True, slots=True)
class GeoReportMsg:
    """Periodic ``<lng, lat, ts>`` upload, signed by the device."""

    report: GeoReport

    @property
    def kind(self) -> str:
        """Message kind for dispatch and traffic accounting."""
        return "geo.report"

    @property
    def size_bytes(self) -> int:
        """The 32-byte report record (verified by repro.codec) plus the
        device's detached signature (modelled, not encoded)."""
        return self.report.size_bytes + SIGNATURE_BYTES


@dataclass(frozen=True, slots=True)
class CommitteeInfo:
    """Announcement of the committee of *era* (sent after era switches).

    Devices use it to retarget their request routing; newly elected
    endorsers use it to activate their consensus machinery.  Receivers
    should trust it only after seeing f+1 identical copies (the node
    layer enforces that for activation decisions).
    """

    era: int
    committee: tuple[int, ...]
    sender: int

    def __post_init__(self) -> None:
        if self.era < 0:
            raise ConsensusError("era must be >= 0")
        if not self.committee:
            raise ConsensusError("committee must be non-empty")

    @property
    def kind(self) -> str:
        """Message kind for dispatch and traffic accounting."""
        return "gpbft.committee_info"

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (modelled, not encoded: era and
        sender words, one word per member, a signature)."""
        return 2 * _INT_BYTES + _INT_BYTES * len(self.committee) + SIGNATURE_BYTES


@dataclass(frozen=True, slots=True)
class TxSubmission:
    """Raw transaction hand-off to an endorser (block-production mode)."""

    tx: Transaction
    forwarded: bool = False

    @property
    def kind(self) -> str:
        """Message kind for dispatch and traffic accounting."""
        return "tx.submit"

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (modelled, not encoded: the
        transaction frame plus one flag word)."""
        return self.tx.size_bytes + _INT_BYTES


@dataclass(frozen=True, slots=True)
class TxOperation:
    """PBFT operation wrapping one transaction (per-transaction mode).

    This is the configuration the paper's latency/traffic experiments
    measure: every transaction goes through one consensus instance.
    """

    tx: Transaction

    @property
    def op_id(self) -> str:
        """Unique operation id (PBFT request dedup key)."""
        return self.tx.tx_id

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (verified by repro.codec)."""
        return self.tx.size_bytes

    def signing_bytes(self) -> bytes:
        """Canonical bytes committed to by request digests."""
        return self.tx.signing_bytes()


@dataclass(frozen=True, slots=True)
class EraSwitchOperation:
    """PBFT operation committing an era switch.

    Attributes:
        new_era: era number after the switch.
        committee: full committee of the new era.
        added: ids elected this switch.
        removed: ids evicted this switch.
    """

    new_era: int
    committee: tuple[int, ...]
    added: tuple[int, ...]
    removed: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.new_era < 1:
            raise ConsensusError("new_era must be >= 1")
        if not self.committee:
            raise ConsensusError("new committee must be non-empty")
        if set(self.added) & set(self.removed):
            raise ConsensusError("a node cannot be both added and removed")

    @property
    def op_id(self) -> str:
        """Unique operation id (PBFT request dedup key)."""
        return f"era-switch:{self.new_era}"

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (verified by repro.codec)."""
        # wire layout (repro.codec): new_era + three list-length words,
        # then one word per listed node id
        return _ERA_SWITCH_BYTES + _ERA_SWITCH_ID_BYTES * (
            len(self.committee) + len(self.added) + len(self.removed))

    def signing_bytes(self) -> bytes:
        """Canonical bytes committed to by request digests."""
        return digest_concat(
            b"era-switch",
            str(self.new_era).encode(),
            repr(sorted(self.committee)).encode(),
            repr(sorted(self.added)).encode(),
            repr(sorted(self.removed)).encode(),
        )


@dataclass(frozen=True, slots=True)
class BlockProposalOperation:
    """PBFT operation carrying a producer-assembled block.

    Attributes:
        block: the proposed block (already merkle-rooted).
        producer: endorser selected by the timer-weighted lottery.
    """

    block: Block
    producer: int

    @property
    def op_id(self) -> str:
        """Unique operation id (PBFT request dedup key)."""
        return f"block:{self.block.digest().hex()[:24]}"

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes: the block frame (verified by
        repro.codec) plus the producer word (modelled, not encoded)."""
        return self.block.size_bytes + _INT_BYTES

    def signing_bytes(self) -> bytes:
        """Canonical bytes committed to by request digests."""
        return digest_concat(b"block-proposal", self.block.digest(), str(self.producer).encode())


@dataclass(frozen=True, slots=True)
class InterZoneTx:
    """Envelope carrying a transaction from its home zone to another.

    The source zone's gateway wraps a locally committed transaction in
    this payload; it travels to the top-level committee inside a
    :class:`ZoneCheckpointOperation` and, once globally ordered, to the
    destination zone's gateway for local re-execution.
    """

    src_zone: int
    dst_zone: int
    tx: Transaction

    def __post_init__(self) -> None:
        if self.src_zone < 0 or self.dst_zone < 0:
            raise ConsensusError("zone indices must be >= 0")
        if self.src_zone == self.dst_zone:
            raise ConsensusError("inter-zone tx must cross zones")

    @property
    def kind(self) -> str:
        """Message kind for dispatch and traffic accounting."""
        return "gpbft.xzone_tx"

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (verified by repro.codec)."""
        # wire layout (repro.codec): src + dst zone words, the embedded
        # transaction frame, and the source gateway's signature
        return _XZONE_BYTES + self.tx.size_bytes


@dataclass(frozen=True, slots=True)
class ZoneCheckpointOperation:
    """PBFT operation the top-level committee orders for one zone.

    A zone gateway batches its pending outbound :class:`InterZoneTx`
    envelopes, stamps them with the zone chain's era/height/head, and
    submits the bundle as one operation.  The committed sequence of
    checkpoint operations *is* the global inter-zone order: envelope
    ``pos`` of checkpoint ``top_seq`` has global index
    ``(top_seq, pos)``.

    Attributes:
        zone: index of the originating zone.
        seq: the gateway's own checkpoint counter (dedup key part).
        era: the zone chain's era at assembly time.
        height: the zone chain's height at assembly time.
        head: digest of the zone chain's head block (32 bytes).
        txs: the batched outbound envelopes, in local commit order.
    """

    zone: int
    seq: int
    era: int
    height: int
    head: bytes
    txs: tuple[InterZoneTx, ...]

    def __post_init__(self) -> None:
        if self.zone < 0 or self.seq < 0 or self.era < 0 or self.height < 0:
            raise ConsensusError("zone/seq/era/height must be >= 0")
        if len(self.head) != 32:
            raise ConsensusError("head must be a 32-byte digest")

    @property
    def op_id(self) -> str:
        """Unique operation id (PBFT request dedup key)."""
        return f"zone-ckpt:{self.zone}:{self.seq}"

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (verified by repro.codec)."""
        # wire layout (repro.codec): zone + seq + era + height + count
        # words, the 32-byte head, then the envelope frames
        return (_ZONE_CHECKPOINT_BYTES
                + sum(env.size_bytes for env in self.txs))

    def signing_bytes(self) -> bytes:
        """Canonical bytes committed to by request digests."""
        return digest_concat(
            b"zone-checkpoint",
            str(self.zone).encode(),
            str(self.seq).encode(),
            str(self.era).encode(),
            str(self.height).encode(),
            self.head,
            *[env.tx.signing_bytes() for env in self.txs],
        )
