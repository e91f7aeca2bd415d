"""Validated geographic coordinates and distance computations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import GeoError

if TYPE_CHECKING:
    from repro.common.rng import DeterministicRNG

#: Mean Earth radius in metres (IUGG value), used by haversine.
EARTH_RADIUS_M = 6_371_008.8


@dataclass(frozen=True, slots=True)
class LatLng:
    """A latitude/longitude pair in decimal degrees (WGS-84).

    Attributes:
        lat: latitude in [-90, 90].
        lng: longitude in [-180, 180].
    """

    lat: float
    lng: float

    def __post_init__(self) -> None:
        if not isinstance(self.lat, (int, float)) or not isinstance(self.lng, (int, float)):
            raise GeoError("coordinates must be numeric")
        if math.isnan(self.lat) or math.isnan(self.lng):
            raise GeoError("coordinates must not be NaN")
        if not -90.0 <= self.lat <= 90.0:
            raise GeoError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lng <= 180.0:
            raise GeoError(f"longitude {self.lng} outside [-180, 180]")

    def distance_to(self, other: "LatLng") -> float:
        """Great-circle distance to *other* in metres."""
        return haversine_m(self, other)

    def offset_m(self, north_m: float, east_m: float) -> "LatLng":
        """Return the point roughly *north_m* / *east_m* metres away.

        Uses the local flat-earth approximation, accurate to well under a
        metre for the sub-kilometre offsets IoT deployments use.
        """
        dlat = math.degrees(north_m / EARTH_RADIUS_M)
        denom = EARTH_RADIUS_M * math.cos(math.radians(self.lat))
        if abs(denom) < 1e-6:
            raise GeoError("cannot offset east/west at the poles")
        dlng = math.degrees(east_m / denom)
        lat = min(90.0, max(-90.0, self.lat + dlat))
        lng = ((self.lng + dlng + 180.0) % 360.0) - 180.0
        return LatLng(lat, lng)


def haversine_m(a: LatLng, b: LatLng) -> float:
    """Great-circle distance between *a* and *b* in metres.

    The haversine formulation is numerically stable for the short
    distances that dominate IoT deployments.
    """
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = phi2 - phi1
    dlmb = math.radians(b.lng - a.lng)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


@dataclass(frozen=True, slots=True)
class Region:
    """A latitude/longitude bounding box describing a deployment area.

    The paper assumes "all IoT devices ... are worked within a small
    physical area" (section III-A); experiments instantiate a Region (a
    few city blocks) and place devices inside it.
    """

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self) -> None:
        LatLng(self.south, self.west)  # reuse range validation
        LatLng(self.north, self.east)
        if self.south > self.north:
            raise GeoError(f"south {self.south} > north {self.north}")
        if self.west > self.east:
            raise GeoError(f"west {self.west} > east {self.east}")

    @classmethod
    def around(cls, center: LatLng, half_side_m: float) -> "Region":
        """Square region of side ``2 * half_side_m`` centred on *center*."""
        if half_side_m <= 0:
            raise GeoError("half_side_m must be positive")
        ne = center.offset_m(half_side_m, half_side_m)
        sw = center.offset_m(-half_side_m, -half_side_m)
        return cls(south=sw.lat, west=sw.lng, north=ne.lat, east=ne.lng)

    @property
    def center(self) -> LatLng:
        """Geometric centre of the box."""
        return LatLng((self.south + self.north) / 2, (self.west + self.east) / 2)

    def sample(self, rng: "DeterministicRNG") -> LatLng:
        """Uniformly sample a point inside the region.

        Args:
            rng: a :class:`repro.common.rng.DeterministicRNG`.
        """
        return LatLng(rng.uniform(self.south, self.north), rng.uniform(self.west, self.east))
