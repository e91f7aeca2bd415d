"""Per-node chain storage with linkage validation and fork detection.

The paper evicts endorsers that "miss a block or cause a fork"
(section III-B3); the ledger is where both conditions are observed.  A
fork here means two *different* blocks presented for the same height --
the ledger keeps the first and records the conflict so the committee can
attribute blame to the proposer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ChainError
from repro.common.errors import ForkError  # re-exported for callers
from repro.chain.block import Block
from repro.chain.genesis import GenesisBlock
from repro.chain.state import LedgerState


@dataclass(frozen=True, slots=True)
class ForkEvidence:
    """Record of an attempted fork at one height.

    Attributes:
        height: chain height where the conflict occurred.
        accepted: digest of the block the ledger kept.
        rejected: digest of the conflicting block.
        proposer: node that proposed the rejected block.
    """

    height: int
    accepted: bytes
    rejected: bytes
    proposer: int


#: Cap on retained fork evidence.  A single conflicting block already
#: convicts its proposer; an equivocating peer replaying forks forever
#: must not grow node memory without bound.
MAX_FORK_EVIDENCE = 64


class Ledger:
    """An append-only chain of blocks rooted at a genesis block."""

    def __init__(self, genesis: GenesisBlock) -> None:
        self.genesis = genesis
        self._blocks: list[Block] = [genesis.block()]
        self._forks: list[ForkEvidence] = []
        self.state = LedgerState()

    # -- queries ------------------------------------------------------------

    @property
    def height(self) -> int:
        """Height of the latest block (genesis = 0)."""
        return self._blocks[-1].header.height

    @property
    def head(self) -> Block:
        """The latest block."""
        return self._blocks[-1]

    def __len__(self) -> int:
        return len(self._blocks)

    def block_at(self, height: int) -> Block:
        """The block at *height*.

        Raises:
            ChainError: when the height is not on the chain yet.
        """
        if not 0 <= height < len(self._blocks):
            raise ChainError(f"no block at height {height} (chain height {self.height})")
        return self._blocks[height]

    @property
    def forks(self) -> tuple[ForkEvidence, ...]:
        """Every fork attempt observed so far."""
        return tuple(self._forks)

    def contains_tx(self, tx_id: str) -> bool:
        """True iff a committed block contains transaction *tx_id*."""
        return self.state.applied(tx_id)

    # -- appends ------------------------------------------------------------

    def append(self, block: Block) -> None:
        """Append *block* at the next height.

        Raises:
            ForkError: if a *different* block already occupies the height
                (the conflict is recorded as fork evidence first).
            ChainError: on bad parent linkage or height gaps.
        """
        expected_height = self.height + 1
        if block.header.height <= self.height:
            existing = self._blocks[block.header.height]
            if existing.digest() == block.digest():
                return  # idempotent re-append of the same block
            evidence = ForkEvidence(
                height=block.header.height,
                accepted=existing.digest(),
                rejected=block.digest(),
                proposer=block.header.proposer,
            )
            if len(self._forks) < MAX_FORK_EVIDENCE:
                self._forks.append(evidence)
            raise ForkError(
                f"fork at height {block.header.height}: proposer {block.header.proposer} "
                f"offered {block.digest().hex()[:12]} but chain has "
                f"{existing.digest().hex()[:12]}"
            )
        if block.header.height != expected_height:
            raise ChainError(
                f"height gap: expected {expected_height}, got {block.header.height}"
            )
        if block.header.parent != self.head.digest():
            raise ChainError(
                f"parent mismatch at height {block.header.height}: "
                f"{block.header.parent.hex()[:12]} != {self.head.digest().hex()[:12]}"
            )
        self._blocks.append(block)
        self.state.apply_block(block)
