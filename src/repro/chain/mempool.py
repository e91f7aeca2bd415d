"""Pending-transaction pool.

Endorsers hold client transactions here until the PBFT primary packs a
batch into a block proposal.  The pool deduplicates by transaction id,
serves batches in FIFO order (fee-priority optional), and drops entries
already committed to the ledger.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.errors import ValidationError
from repro.chain.transaction import Transaction


#: Overflow policies applied when an insert hits the capacity boundary.
OVERFLOW_POLICIES = ("evict-oldest", "reject-new", "evict-lowest-fee")


class Mempool:
    """FIFO transaction pool with deduplication and a size cap.

    Args:
        capacity: maximum resident transactions; an insert at the cap
            applies *policy* so the pool never grows beyond it.
        fee_priority: when True, :meth:`take_batch` returns highest-fee
            transactions first instead of FIFO.
        policy: behaviour at the capacity boundary --
            ``"evict-oldest"`` (default) drops the oldest resident
            entry (IoT devices retransmit, so dropping the oldest is
            safe), ``"reject-new"`` refuses the incoming transaction,
            and ``"evict-lowest-fee"`` drops whichever of the residents
            and the newcomer ranks lowest by the deterministic
            ``(fee, tx_id)`` key (ties broken by transaction id, so the
            outcome never depends on arrival order).
    """

    def __init__(self, capacity: int = 100_000, fee_priority: bool = False,
                 policy: str = "evict-oldest") -> None:
        if capacity <= 0:
            raise ValidationError("mempool capacity must be positive")
        if policy not in OVERFLOW_POLICIES:
            raise ValidationError(
                f"unknown mempool policy {policy!r}; "
                f"expected one of {OVERFLOW_POLICIES}")
        self._capacity = capacity
        self._fee_priority = fee_priority
        self._policy = policy
        self._pool: OrderedDict[str, Transaction] = OrderedDict()
        self.evicted = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._pool

    def add(self, tx: Transaction) -> bool:
        """Insert *tx*; returns False when already pooled or rejected.

        At the capacity boundary the overflow policy decides: either a
        resident transaction is evicted to make room (``evicted`` is
        incremented) or the newcomer is refused (``rejected`` is
        incremented and the method returns False).
        """
        if tx.tx_id in self._pool:
            return False
        if len(self._pool) >= self._capacity and not self._make_room(tx):
            self.rejected += 1
            return False
        self._pool[tx.tx_id] = tx
        return True

    def _make_room(self, incoming: Transaction) -> bool:
        """Apply the overflow policy; True iff *incoming* may insert."""
        if self._policy == "reject-new":
            return False
        if self._policy == "evict-oldest":
            self._pool.popitem(last=False)
            self.evicted += 1
            return True
        # evict-lowest-fee: rank residents and the newcomer by the total
        # order (fee, tx_id); min() over dict values is order-independent
        # under a total key, so the victim never depends on arrival order
        victim = min(self._pool.values(), key=lambda t: (t.fee, t.tx_id))
        if (incoming.fee, incoming.tx_id) <= (victim.fee, victim.tx_id):
            return False
        del self._pool[victim.tx_id]
        self.evicted += 1
        return True

    def remove_committed(self, txs) -> int:
        """Drop every transaction of a committed block; returns count."""
        removed = 0
        for tx in txs:
            if self._pool.pop(tx.tx_id, None) is not None:
                removed += 1
        return removed

    def peek_batch(self, max_txs: int) -> list[Transaction]:
        """Up to *max_txs* transactions in serving order, without removal."""
        if max_txs <= 0:
            return []
        if self._fee_priority:
            # tie-break equal fees by tx id so the batch does not depend
            # on the schedule-dependent arrival order
            ranked = sorted(self._pool.values(), key=lambda t: (-t.fee, t.tx_id))
            return ranked[:max_txs]
        out = []
        for tx in self._pool.values():  # FIFO: insertion order is the batch order
            out.append(tx)
            if len(out) >= max_txs:
                break
        return out

    def take_batch(self, max_txs: int) -> list[Transaction]:
        """Remove and return up to *max_txs* transactions in serving order."""
        batch = self.peek_batch(max_txs)
        for tx in batch:
            self._pool.pop(tx.tx_id, None)
        return batch
