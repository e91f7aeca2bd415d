"""Blocks: merkle-rooted containers of ordered transactions."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.common.wire_layout import wire_struct
from repro.crypto.hashing import digest_concat, HASH_BYTES
from repro.crypto.merkle import MerkleTree
from repro.chain.transaction import Transaction

#: Serialized header size (height, era, view, seq, proposer, reserved
#: bytes, timestamp, two digests, signature), read once from the layout
#: repro.codec packs with.
_HEADER_BYTES = wire_struct("chain.block_header").size


@dataclass(frozen=True, slots=True)
class BlockHeader:
    """Header committing to a block's contents and chain position.

    Attributes:
        height: 0-based chain height (genesis is 0).
        parent: digest of the parent block.
        era: era in which the block was produced (G-PBFT term).
        view: PBFT view that ordered it.
        seq: PBFT sequence number that ordered it.
        proposer: node id of the producing primary/endorser.
        timestamp: simulated production time.
        tx_root: merkle root of the transaction list.
    """

    height: int
    parent: bytes
    era: int
    view: int
    seq: int
    proposer: int
    timestamp: float
    tx_root: bytes

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValidationError("height must be >= 0")
        if len(self.parent) != HASH_BYTES:
            raise ValidationError("parent digest must be 32 bytes")
        if len(self.tx_root) != HASH_BYTES:
            raise ValidationError("tx_root must be 32 bytes")
        if self.era < 0 or self.view < 0 or self.seq < 0:
            raise ValidationError("era/view/seq must be >= 0")

    def digest(self) -> bytes:
        """Unique digest of this header (and hence of the block)."""
        return digest_concat(
            str(self.height).encode(),
            self.parent,
            str(self.era).encode(),
            str(self.view).encode(),
            str(self.seq).encode(),
            str(self.proposer).encode(),
            repr(self.timestamp).encode(),
            self.tx_root,
        )

    @property
    def size_bytes(self) -> int:
        """Serialized header size: fixed fields + two digests + signature."""
        return _HEADER_BYTES


class Block:
    """An ordered list of transactions plus a committing header.

    Built through :meth:`assemble`, which computes the merkle root so the
    header always matches the body.
    """

    __slots__ = ("header", "transactions", "_digest")

    def __init__(self, header: BlockHeader, transactions: tuple[Transaction, ...]) -> None:
        root = MerkleTree([tx.signing_bytes() for tx in transactions]).root
        if root != header.tx_root:
            raise ValidationError("header tx_root does not match transaction list")
        self.header = header
        self.transactions = transactions
        self._digest = header.digest()

    @classmethod
    def assemble(
        cls,
        height: int,
        parent: bytes,
        era: int,
        view: int,
        seq: int,
        proposer: int,
        timestamp: float,
        transactions: list[Transaction] | tuple[Transaction, ...],
    ) -> "Block":
        """Build a block, computing the merkle root from *transactions*."""
        txs = tuple(transactions)
        root = MerkleTree([tx.signing_bytes() for tx in txs]).root
        header = BlockHeader(
            height=height,
            parent=parent,
            era=era,
            view=view,
            seq=seq,
            proposer=proposer,
            timestamp=timestamp,
            tx_root=root,
        )
        return cls(header, txs)

    def digest(self) -> bytes:
        """Digest of the header (cached at construction)."""
        return self._digest

    def __len__(self) -> int:
        return len(self.transactions)

    @property
    def size_bytes(self) -> int:
        """On-wire size: header plus every transaction."""
        return self.header.size_bytes + sum(tx.size_bytes for tx in self.transactions)

    @property
    def total_fees(self) -> float:
        """Sum of transaction fees (input to the incentive mechanism)."""
        return sum(tx.fee for tx in self.transactions)

    def __repr__(self) -> str:
        return (
            f"Block(height={self.header.height}, era={self.header.era}, "
            f"txs={len(self.transactions)}, digest={self._digest.hex()[:12]})"
        )
