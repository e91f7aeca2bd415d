"""Per-node chain storage with linkage validation.

The paper evicts endorsers that "miss a block or cause a fork"
(section III-B3).  The ledger refuses a *different* block offered for a
height it already holds with a :class:`ForkError`; every append in the
node offers the next height, so cross-replica divergence is what
:class:`~repro.verify.invariants.PrefixConsistencyMonitor` checks.
"""

from __future__ import annotations

from repro.common.errors import ChainError, ForkError
from repro.chain.block import Block
from repro.chain.genesis import GenesisBlock
from repro.chain.state import LedgerState


class Ledger:
    """An append-only chain of blocks rooted at a genesis block."""

    def __init__(self, genesis: GenesisBlock) -> None:
        self.genesis = genesis
        self._blocks: list[Block] = [genesis.block()]
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

    def contains_tx(self, tx_id: str) -> bool:
        """True iff a committed block contains transaction *tx_id*."""
        return self.state.applied(tx_id)

    # -- appends ------------------------------------------------------------

    def append(self, block: Block) -> None:
        """Append *block* at the next height.

        Raises:
            ForkError: if a *different* block already occupies the height.
            ChainError: on bad parent linkage or height gaps.
        """
        expected_height = self.height + 1
        if block.header.height <= self.height:
            existing = self._blocks[block.header.height]
            if existing.digest() == block.digest():
                return  # idempotent re-append of the same block
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
