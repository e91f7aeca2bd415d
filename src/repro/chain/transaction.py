"""Transactions (section III-B2).

**Normal transactions** change ledger state for application use --
sensor readings, mobile-payment records, RFID signal strengths.  Both
clients and endorsers may propose them.  They "carry the geographic
information at the end of the transaction body", which is how the
election table gets fed.

The paper's configuration transactions -- adding or removing endorsers
-- are not ledger transactions here: the committee changes only through
an era switch (:mod:`repro.core.era`, sections III-B4 and III-E).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.wire_layout import wire_struct
from repro.crypto.hashing import digest_concat, sha256_hex
from repro.geo.reports import GeoReport

#: Serialized size of everything around the payload -- the header (ids,
#: fee, nonce, framing) before it, the geo record and signature after
#: it -- read once from the layouts repro.codec packs with.
_TX_FIXED_BYTES = (wire_struct("chain.transaction").size
                   + wire_struct("chain.transaction", "tail").size)


@dataclass(frozen=True, slots=True)
class Transaction:
    """Common transaction shape.

    Attributes:
        sender: proposing node id.
        nonce: per-sender sequence number; (sender, nonce) is unique.
        fee: transaction fee paid to the committee (incentive input).
        geo: the mandatory trailing geographic information.
        payload_bytes: serialized size of the application payload.
    """

    sender: int
    nonce: int
    fee: float
    geo: GeoReport
    payload_bytes: int = 64
    # memoized id/signing bytes (pure functions of the frozen fields);
    # excluded from eq/hash/repr
    _tx_id: str | None = field(default=None, init=False, repr=False, compare=False)
    _signing: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sender < 0:
            raise ValidationError("sender must be non-negative")
        if self.nonce < 0:
            raise ValidationError("nonce must be non-negative")
        if self.fee < 0:
            raise ValidationError("fee must be non-negative")
        if self.payload_bytes < 0:
            raise ValidationError("payload_bytes must be non-negative")

    @property
    def kind(self) -> str:
        """Message kind for envelopes and traffic accounting."""
        return "tx.base"

    @property
    def tx_id(self) -> str:
        """Content-derived unique identifier (memoized)."""
        tx_id = self._tx_id
        if tx_id is None:
            tx_id = sha256_hex(self.signing_bytes())[:32]
            object.__setattr__(self, "_tx_id", tx_id)
        return tx_id

    def signing_bytes(self) -> bytes:
        """Canonical bytes a sender signs (and the digest preimage, memoized)."""
        signing = self._signing
        if signing is None:
            signing = digest_concat(
                self.kind.encode(),
                str(self.sender).encode(),
                str(self.nonce).encode(),
                repr(self.fee).encode(),
                repr(
                    (self.geo.position.lat, self.geo.position.lng, self.geo.timestamp)
                ).encode(),
                self._body_bytes(),
            )
            object.__setattr__(self, "_signing", signing)
        return signing

    def _body_bytes(self) -> bytes:
        return b"normal"

    @property
    def size_bytes(self) -> int:
        """On-wire size: header + payload + trailing geo + signature."""
        return _TX_FIXED_BYTES + self.payload_bytes


@dataclass(frozen=True, slots=True)
class NormalTransaction(Transaction):
    """Application data upload (temperature, payment, RFID strength...).

    Attributes:
        key: state key the transaction writes.
        value: value written (kept small; size is payload_bytes).
    """

    key: str = "data"
    value: str = ""

    @property
    def kind(self) -> str:
        """Message kind for dispatch and traffic accounting."""
        return "tx.normal"

    def _body_bytes(self) -> bytes:
        return digest_concat(self.key.encode(), self.value.encode())
