"""Tests: the geohash-bucketed spatial index (repro.geo.index)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import TopologySpec
from repro.common.errors import GeoError
from repro.common.rng import DeterministicRNG
from repro.geo import index as index_module
from repro.geo.coords import LatLng, Region, haversine_m
from repro.geo.geohash import geohash_encode
from repro.geo.index import IndexedDirectory, SpatialIndex

HK = LatLng(22.3193, 114.1694)
REGION = Region.around(HK, 800.0)


def populated_index(count=40, seed=1, precision=6):
    rng = DeterministicRNG(seed)
    index = SpatialIndex(precision=precision)
    positions = {}
    for node in range(count):
        pos = REGION.sample(rng)
        index.insert(node, pos)
        positions[node] = pos
    return index, positions


class TestBasics:
    def test_insert_and_contains(self):
        index = SpatialIndex()
        index.insert(1, HK)
        assert 1 in index and len(index) == 1

    def test_move_updates_bucket(self):
        index = SpatialIndex(precision=7)
        index.insert(1, HK)
        far = HK.offset_m(5000.0, 5000.0)
        index.insert(1, far)
        assert len(index) == 1
        assert index.nearest(far) == 1
        assert index.within(far, 0.0) == [1]
        assert index.within(HK, 1000.0) == []

    def test_precision_validation(self):
        with pytest.raises(GeoError):
            SpatialIndex(precision=0)
        with pytest.raises(GeoError):
            SpatialIndex(precision=13)


class TestNearest:
    def test_matches_linear_scan(self):
        index, positions = populated_index(count=60)
        rng = DeterministicRNG(2)
        for _ in range(25):
            q = REGION.sample(rng)
            expected = min(positions, key=lambda n: haversine_m(q, positions[n]))
            assert index.nearest(q) == expected

    def test_exclusion(self):
        index, positions = populated_index(count=10)
        q = positions[3]
        assert index.nearest(q) == 3
        second = index.nearest(q, exclude={3})
        assert second != 3 and second is not None

    def test_empty_index(self):
        assert SpatialIndex().nearest(HK) is None

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_nearest_property(self, seed):
        index, positions = populated_index(count=20, seed=seed)
        q = REGION.sample(DeterministicRNG(seed, "query"))
        got = index.nearest(q)
        best = min(positions.values(), key=lambda p: haversine_m(q, p))
        assert haversine_m(q, positions[got]) == pytest.approx(
            haversine_m(q, best)
        )


class TestWithin:
    def test_matches_linear_scan(self):
        index, positions = populated_index(count=60, seed=3)
        rng = DeterministicRNG(4)
        for radius in (50.0, 200.0, 600.0):
            q = REGION.sample(rng)
            expected = sorted(
                n for n, p in positions.items() if haversine_m(q, p) <= radius
            )
            assert index.within(q, radius) == expected

    def test_zero_radius(self):
        index, positions = populated_index(count=5, seed=5)
        assert index.within(positions[2], 0.0) == [2]

    def test_negative_radius_rejected(self):
        with pytest.raises(GeoError):
            SpatialIndex().within(HK, -1.0)


class TestIndexedDirectory:
    @staticmethod
    def _counted_encodes(monkeypatch):
        """Calls of ``geohash_encode`` made from ``repro.geo.index``."""
        calls = []

        def encode(position, precision):
            calls.append(position)
            return geohash_encode(position, precision)

        monkeypatch.setattr(index_module, "geohash_encode", encode)
        return calls

    def test_a_build_without_sybil_protection_never_encodes(self, monkeypatch):
        # only the Sybil witness oracle reads the index, so a deployment
        # without it never builds one
        calls = self._counted_encodes(monkeypatch)
        host = TopologySpec.single(60, 12).build()
        host.run(until=5.0)
        assert calls == []
        assert host.directory._index is None

    def test_the_index_is_built_on_first_read_and_kept_in_sync(self, monkeypatch):
        _, positions = populated_index(count=30, seed=7)
        calls = self._counted_encodes(monkeypatch)
        directory = IndexedDirectory(positions)
        assert calls == []
        moved = REGION.sample(DeterministicRNG(8))
        directory[3] = moved
        directory[30] = HK
        index = directory.index
        assert len(calls) == 31 and directory.index is index
        directory[4] = moved
        assert index.within(moved, 0.0) == [3, 4]
        for radius in (100.0, 400.0):
            assert index.within(HK, radius) == sorted(
                n for n, p in directory.items() if haversine_m(HK, p) <= radius)
