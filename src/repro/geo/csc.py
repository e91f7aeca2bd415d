"""Crypto-Spatial Coordinates (CSC).

The paper (section III-B3) adopts the FOAM CSC standard: a CSC binds a
location (geohash) to a blockchain identity (smart-contract address) so
devices "make an immutable claim to historical locations".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.address import Address
from repro.geo.coords import LatLng
from repro.geo.geohash import geohash_bounds, geohash_encode


@dataclass(frozen=True, slots=True)
class CryptoSpatialCoordinate:
    """A (geohash, contract address) pair anchoring a device to a cell.

    Attributes:
        geohash: base-32 cell identifier; length sets the resolution.
        anchor: address of the contract registering the claim.
    """

    geohash: str
    anchor: Address

    def __post_init__(self) -> None:
        geohash_bounds(self.geohash)  # validates alphabet and non-emptiness

    @classmethod
    def from_point(cls, point: LatLng, anchor: Address, precision: int = 12) -> "CryptoSpatialCoordinate":
        """Build the CSC of *point* at *precision* characters."""
        return cls(geohash=geohash_encode(point, precision), anchor=anchor)

    def key(self) -> str:
        """Stable string key used by election tables and logs."""
        return f"{self.geohash}@{self.anchor.hex()}"

    def __str__(self) -> str:
        return self.key()
