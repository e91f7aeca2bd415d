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

#: Geohash length of a CSC cell and of every CSC equality test: 12
#: characters is roughly the paper's "one square metre" resolution.
CSC_PRECISION = 12


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
    def from_point(cls, point: LatLng, anchor: Address) -> "CryptoSpatialCoordinate":
        """Build the CSC of *point* at ``CSC_PRECISION`` characters."""
        return cls(geohash=geohash_encode(point, CSC_PRECISION), anchor=anchor)

    def key(self) -> str:
        """Stable string key used by election tables and logs."""
        return f"{self.geohash}@{self.anchor.hex()}"

    def __str__(self) -> str:
        return self.key()
