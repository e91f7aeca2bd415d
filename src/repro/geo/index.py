"""A geohash-bucketed spatial index for range and nearest-neighbour queries.

The index serves witness discovery ("which devices can observe this
claim?", :meth:`SpatialIndex.within`) over the whole population, where
O(n) per report would dominate large simulations.  Routing a request to
the *nearest endorser* does not use it: ``GPBFTNode._first_hop`` scans
the committee (40 endorsers at most) linearly, and its tie-breaks are
part of what the run digests pin.

The structure is a uniform grid keyed by geohash cells at a fixed
precision.  Nearest-neighbour search expands rings of cells around the
query until a candidate is found, then keeps expanding one extra ring
to guarantee correctness near cell boundaries.
"""

from __future__ import annotations

from collections import defaultdict

from repro.common.errors import GeoError
from repro.geo.coords import LatLng, haversine_m
from repro.geo.geohash import cell_size_m, geohash_encode


class SpatialIndex:
    """Mutable point index over node positions.

    Args:
        precision: geohash bucket precision.  6 (~1.2 km x 0.6 km cells)
            suits city-district deployments; 7 for very dense scenes.
    """

    def __init__(self, precision: int = 6) -> None:
        if not 1 <= precision <= 12:
            raise GeoError("index precision must be in [1, 12]")
        self.precision = precision
        self._cells: dict[str, set[int]] = defaultdict(set)
        self._positions: dict[int, LatLng] = {}
        self._cell_of: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, node: int) -> bool:
        return node in self._positions

    def insert(self, node: int, position: LatLng) -> None:
        """Add or move *node* to *position*."""
        old = self._cell_of.get(node)
        cell = geohash_encode(position, self.precision)
        if old is not None and old != cell:
            self._cells[old].discard(node)
        self._cells[cell].add(node)
        self._cell_of[node] = cell
        self._positions[node] = position

    # -- queries ------------------------------------------------------------

    def _ring_cells(self, center_lat: float, center_lng: float, ring: int):
        """Geohash cells at Chebyshev distance *ring* from the centre."""
        height_m, width_m = cell_size_m(self.precision)
        out = []
        for dy in range(-ring, ring + 1):
            for dx in range(-ring, ring + 1):
                if max(abs(dy), abs(dx)) != ring:
                    continue
                lat = center_lat + dy * (height_m / 111_320.0)
                lng = center_lng + dx * (width_m / 111_320.0)
                if not -90.0 <= lat <= 90.0:
                    continue
                lng = ((lng + 180.0) % 360.0) - 180.0
                out.append(geohash_encode(LatLng(lat, lng), self.precision))
        return out

    def nearest(self, query: LatLng, exclude=()) -> int | None:
        """The indexed node closest to *query* (great-circle metric).

        Args:
            query: search position.
            exclude: node ids to skip.

        Returns:
            The nearest node id, or ``None`` when the index (minus the
            exclusions) is empty or more than 64 grid rings away.
        """
        if not self._positions:
            return None
        excluded = set(exclude)
        best: int | None = None
        best_d = float("inf")
        found_ring: int | None = None
        for ring in range(65):
            if found_ring is not None and ring > found_ring + 1:
                break  # one guard ring past the first hit is sufficient
            cells = (
                [geohash_encode(query, self.precision)]
                if ring == 0
                else self._ring_cells(query.lat, query.lng, ring)
            )
            for cell in cells:
                for node in self._cells.get(cell, ()):
                    if node in excluded:
                        continue
                    d = haversine_m(query, self._positions[node])
                    if d < best_d:
                        best, best_d = node, d
            if best is not None and found_ring is None:
                found_ring = ring
        return best

    def within(self, query: LatLng, radius_m: float) -> list[int]:
        """All indexed nodes within *radius_m* of *query*, sorted by id."""
        if radius_m < 0:
            raise GeoError("radius must be >= 0")
        height_m, width_m = cell_size_m(self.precision)
        rings = int(radius_m / min(height_m, width_m)) + 1
        seen: set[str] = set()
        out = []
        for ring in range(rings + 1):
            cells = (
                [geohash_encode(query, self.precision)]
                if ring == 0
                else self._ring_cells(query.lat, query.lng, ring)
            )
            for cell in cells:
                if cell in seen:
                    continue
                seen.add(cell)
                for node in self._cells.get(cell, ()):
                    if haversine_m(query, self._positions[node]) <= radius_m:
                        out.append(node)
        return sorted(set(out))


class IndexedDirectory(dict):
    """A node-id -> position directory that maintains a spatial index.

    Drop-in replacement for the plain ``dict`` the deployment shares
    with every node: witness oracles answer range queries through
    :attr:`index` in near-O(1) instead of scanning the whole population
    per report.  The index is built from the directory on the first
    read of :attr:`index` (only a Sybil-protected deployment reads it),
    and assignments keep it synchronized from then on.  Nodes are only
    ever added or moved, never removed: a ``del`` would leave the index
    stale.
    """

    _index: SpatialIndex | None = None

    @property
    def index(self) -> SpatialIndex:
        """The spatial index over the directory, built on first read."""
        if self._index is None:
            self._index = SpatialIndex()
            for node, position in self.items():
                self._index.insert(node, position)
        return self._index

    def __setitem__(self, node: int, position: LatLng) -> None:
        super().__setitem__(node, position)
        if self._index is not None:
            self._index.insert(node, position)
