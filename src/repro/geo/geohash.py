"""A complete base-32 geohash codec.

Geohash interleaves longitude and latitude bits and renders them in a
base-32 alphabet; prefixes denote enclosing cells, which gives the CSC
standard its hierarchical "shorter address = larger area" property
(paper section III-B3).  Twelve characters resolve to roughly 3.7 cm x
1.8 cm -- comfortably below the paper's one-square-metre CSC resolution.

Implemented from the public algorithm (Niemeyer, 2008); no third-party
geohash package is used.
"""

from __future__ import annotations

from repro.common.errors import GeoError
from repro.geo.coords import LatLng

_BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"
_BASE32_INDEX = {c: i for i, c in enumerate(_BASE32)}

#: Maximum supported geohash length (beyond this float precision dominates).
MAX_PRECISION = 24


def geohash_encode(point: LatLng, precision: int = 12) -> str:
    """Encode *point* into a geohash string of *precision* characters.

    Raises:
        GeoError: if precision is outside [1, MAX_PRECISION].
    """
    if not 1 <= precision <= MAX_PRECISION:
        raise GeoError(f"precision must be in [1, {MAX_PRECISION}], got {precision}")
    lat_lo, lat_hi = -90.0, 90.0
    lng_lo, lng_hi = -180.0, 180.0
    chars: list[str] = []
    bits = 0
    bit_count = 0
    even = True  # even bit -> longitude
    while len(chars) < precision:
        if even:
            mid = (lng_lo + lng_hi) / 2
            if point.lng >= mid:
                bits = (bits << 1) | 1
                lng_lo = mid
            else:
                bits <<= 1
                lng_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2
            if point.lat >= mid:
                bits = (bits << 1) | 1
                lat_lo = mid
            else:
                bits <<= 1
                lat_hi = mid
        even = not even
        bit_count += 1
        if bit_count == 5:
            chars.append(_BASE32[bits])
            bits = 0
            bit_count = 0
    return "".join(chars)


def geohash_bounds(geohash: str) -> tuple[float, float, float, float]:
    """Decode *geohash* into its bounding box.

    Returns:
        ``(south, west, north, east)`` in degrees.

    Raises:
        GeoError: on empty input or characters outside the alphabet.
    """
    if not geohash:
        raise GeoError("geohash must be non-empty")
    lat_lo, lat_hi = -90.0, 90.0
    lng_lo, lng_hi = -180.0, 180.0
    even = True
    for char in geohash.lower():
        try:
            value = _BASE32_INDEX[char]
        except KeyError:
            raise GeoError(f"invalid geohash character {char!r} in {geohash!r}") from None
        for shift in range(4, -1, -1):
            bit = (value >> shift) & 1
            if even:
                mid = (lng_lo + lng_hi) / 2
                if bit:
                    lng_lo = mid
                else:
                    lng_hi = mid
            else:
                mid = (lat_lo + lat_hi) / 2
                if bit:
                    lat_lo = mid
                else:
                    lat_hi = mid
            even = not even
    return (lat_lo, lng_lo, lat_hi, lng_hi)


def geohash_decode(geohash: str) -> LatLng:
    """Decode *geohash* to the centre point of its cell."""
    south, west, north, east = geohash_bounds(geohash)
    return LatLng((south + north) / 2, (west + east) / 2)


def cell_size_m(precision: int) -> tuple[float, float]:
    """Approximate (height_m, width_m at the equator) of a geohash cell."""
    if not 1 <= precision <= MAX_PRECISION:
        raise GeoError(f"precision must be in [1, {MAX_PRECISION}], got {precision}")
    lat_bits = (5 * precision) // 2
    lng_bits = 5 * precision - lat_bits
    height_deg = 180.0 / (2**lat_bits)
    width_deg = 360.0 / (2**lng_bits)
    meters_per_deg = 111_320.0
    return (height_deg * meters_per_deg, width_deg * meters_per_deg)
