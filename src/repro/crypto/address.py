"""Blockchain addresses derived from public keys.

A Crypto-Spatial Coordinate (paper section III-B3) pairs a geohash with a
*smart contract address*.  This module provides the address half: a
20-byte identifier derived from the owner's public key, rendered with a
``0x`` prefix like an Ethereum address.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import sha256
from repro.crypto.keys import PublicKey
from repro.common.errors import CryptoError

#: Byte length of the on-chain address payload.
ADDRESS_BYTES = 20


@dataclass(frozen=True, slots=True)
class Address:
    """A 20-byte account / contract address."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != ADDRESS_BYTES:
            raise CryptoError(f"address must be {ADDRESS_BYTES} bytes, got {len(self.value)}")

    def hex(self) -> str:
        """``0x``-prefixed lowercase hex rendering."""
        return "0x" + self.value.hex()

    def __str__(self) -> str:
        return self.hex()


def address_from_public_key(public_key: PublicKey) -> Address:
    """Derive the account address of *public_key* (last 20 digest bytes)."""
    return Address(sha256(b"addr:" + public_key.value)[-ADDRESS_BYTES:])
