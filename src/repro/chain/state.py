"""The key-value state machine committed transactions mutate.

Normal transactions write ``key -> value`` (the latest write wins, like a
sensor reading register); committees change through era-switch
operations, not through the state.  Every transaction is applied once
and folded into a running digest, so replicas can cheaply compare that
they executed the same history (PBFT checkpoint semantics).
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.crypto.hashing import digest_concat, sha256
from repro.chain.transaction import NormalTransaction, Transaction


class LedgerState:
    """Deterministic state machine over committed blocks."""

    def __init__(self) -> None:
        self._kv: dict[str, str] = {}
        self._applied_tx: set[str] = set()
        self._root = sha256(b"genesis-state")
        self.transactions_applied = 0

    # -- queries ------------------------------------------------------------

    def get(self, key: str, default: str | None = None) -> str | None:
        """Read the latest value written at *key*."""
        return self._kv.get(key, default)

    def applied(self, tx_id: str) -> bool:
        """True iff the transaction was already executed (replay guard)."""
        return tx_id in self._applied_tx

    @property
    def root(self) -> bytes:
        """Running digest over the applied history."""
        return self._root

    # -- mutation -------------------------------------------------------------

    def apply_transaction(self, tx: Transaction) -> bool:
        """Execute *tx*; returns False (no-op) when already applied.

        Raises:
            ValidationError: on an unknown transaction kind.
        """
        if tx.tx_id in self._applied_tx:
            return False
        if not isinstance(tx, NormalTransaction):
            raise ValidationError(f"unknown transaction kind {type(tx).__name__}")
        self._kv[tx.key] = tx.value
        self._applied_tx.add(tx.tx_id)
        self.transactions_applied += 1
        self._root = digest_concat(self._root, tx.signing_bytes())
        return True

    def apply_block(self, block) -> int:
        """Execute every transaction in *block*; returns how many were new."""
        fresh = 0
        for tx in block.transactions:
            if self.apply_transaction(tx):
                fresh += 1
        return fresh
