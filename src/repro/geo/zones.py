"""Zone partitioning of the geohash space for hierarchical G-PBFT.

The paper's deployment serves one small physical area with one endorser
committee.  The hierarchical extension (after Guo/Li/Nejad,
arXiv:2305.16962 / 2305.17681) splits the map into *zones*: disjoint
rectangular cells, each labelled by the geohash of its centre, each
hosting an independent location-based committee.  A :class:`ZoneMap` is
the pure-geometry half of that split -- it owns the cells and answers
"which zone does this point belong to?" deterministically; the consensus
half lives in :mod:`repro.core.hierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.common.errors import GeoError
from repro.geo.coords import Region
from repro.geo.geohash import geohash_encode

#: Geohash length used to label zone centres (~1.2 km cells -- zone
#: scale, far coarser than the 12-character CSC election resolution).
ZONE_GEOHASH_PRECISION = 6


@dataclass(frozen=True, slots=True)
class Zone:
    """One shard of the map: a named rectangular cell.

    Attributes:
        index: position in the owning :class:`ZoneMap` (0-based, dense).
        name: short human-readable label (``"z0"``, ``"z1"``, ...).
        region: the cell's bounding box; nodes of the zone live inside.
        geohash: geohash of the cell centre at
            :data:`ZONE_GEOHASH_PRECISION` -- the zone's map label.
    """

    index: int
    name: str
    region: Region
    geohash: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise GeoError("zone index must be >= 0")
        if not self.name:
            raise GeoError("zone name must be non-empty")


class ZoneMap:
    """An ordered, disjoint partition of a deployment area into zones.

    Args:
        zones: the cells, whose ``index`` fields must be exactly
            ``0..len(zones)-1`` in order (dense indexing keeps zone ids
            usable as list offsets everywhere else).
    """

    def __init__(self, zones: tuple[Zone, ...]) -> None:
        if not zones:
            raise GeoError("a ZoneMap needs at least one zone")
        for position, zone in enumerate(zones):
            if zone.index != position:
                raise GeoError(
                    f"zone {zone.name!r} has index {zone.index}, "
                    f"expected {position} (dense, ordered indexing)")
        self._zones = zones

    @classmethod
    def grid(cls, region: Region, rows: int, cols: int) -> "ZoneMap":
        """Split *region* into a ``rows x cols`` grid of equal cells.

        Cells are numbered row-major from the south-west corner; each is
        named ``z{index}`` and labelled with its centre geohash.
        """
        if rows < 1 or cols < 1:
            raise GeoError("grid needs rows >= 1 and cols >= 1")
        lat_step = (region.north - region.south) / rows
        lng_step = (region.east - region.west) / cols
        zones = []
        for row in range(rows):
            for col in range(cols):
                index = row * cols + col
                cell = Region(
                    south=region.south + row * lat_step,
                    west=region.west + col * lng_step,
                    north=region.south + (row + 1) * lat_step,
                    east=region.west + (col + 1) * lng_step,
                )
                zones.append(Zone(
                    index=index,
                    name=f"z{index}",
                    region=cell,
                    geohash=geohash_encode(cell.center, ZONE_GEOHASH_PRECISION),
                ))
        return cls(tuple(zones))

    def __len__(self) -> int:
        return len(self._zones)

    def __iter__(self) -> Iterator[Zone]:
        return iter(self._zones)

