"""Unit tests: coordinates, geohash, CSC, reports, verification (repro.geo)."""

# gpb: allow-file GPB004 -- exact asserts on haversine fixed points (zero distance, meridian symmetry) that hold exactly in IEEE-754

import math

import pytest

from repro.common.errors import GeoError
from repro.common.rng import DeterministicRNG
from repro.crypto.address import Address
from repro.geo.coords import EARTH_RADIUS_M, LatLng, Region, haversine_m
from repro.geo.csc import CryptoSpatialCoordinate
from repro.geo.geohash import (
    cell_size_m,
    geohash_bounds,
    geohash_decode,
    geohash_encode,
)
from repro.geo.reports import GeoReport, ReportHistory
from repro.geo.verification import (
    AuditVerdict,
    LocationAuditor,
    WitnessStatement,
    honest_statements,
)

HK = LatLng(22.3193, 114.1694)
ANCHOR = Address(b"\x01" * 20)


class TestLatLng:
    def test_validates_ranges(self):
        with pytest.raises(GeoError):
            LatLng(91.0, 0.0)
        with pytest.raises(GeoError):
            LatLng(0.0, -181.0)
        with pytest.raises(GeoError):
            LatLng(float("nan"), 0.0)

    def test_haversine_zero_for_same_point(self):
        assert haversine_m(HK, HK) == 0.0

    def test_haversine_known_distance(self):
        # HK to Macau is roughly 60 km
        macau = LatLng(22.1987, 113.5439)
        assert 55_000 < haversine_m(HK, macau) < 70_000

    def test_haversine_symmetry(self):
        a, b = HK, LatLng(22.30, 114.18)
        assert haversine_m(a, b) == pytest.approx(haversine_m(b, a))

    def test_offset_roundtrip(self):
        moved = HK.offset_m(100.0, -50.0)
        assert haversine_m(HK, moved) == pytest.approx(111.8, rel=0.01)

    def test_offset_at_pole_rejected(self):
        with pytest.raises(GeoError):
            LatLng(90.0, 0.0).offset_m(0.0, 10.0)


class TestCoordsEdgeCases:
    """Antimeridian, poles, and float-tolerant round-trips."""

    def test_offset_east_across_antimeridian_wraps(self):
        near_dateline = LatLng(0.0, 179.999)
        moved = near_dateline.offset_m(0.0, 1000.0)  # ~0.009 deg of lng
        assert moved.lng < 0.0, "crossing +180 must wrap into [-180, 0)"
        assert -180.0 <= moved.lng <= 180.0

    def test_offset_west_across_antimeridian_wraps(self):
        near_dateline = LatLng(0.0, -179.999)
        moved = near_dateline.offset_m(0.0, -1000.0)
        assert moved.lng > 0.0, "crossing -180 must wrap into (0, 180]"

    def test_haversine_is_short_across_antimeridian(self):
        # 0.002 deg of equatorial lng is ~222 m; a naive flat subtraction
        # of longitudes would report a near-full circumference.
        east = LatLng(0.0, 179.999)
        west = LatLng(0.0, -179.999)
        assert haversine_m(east, west) < 1000.0

    def test_offset_at_either_pole_rejected(self):
        for lat in (90.0, -90.0):
            with pytest.raises(GeoError):
                LatLng(lat, 0.0).offset_m(100.0, 0.0)

    def test_near_pole_offset_clamps_latitude(self):
        near_pole = LatLng(89.9999, 0.0)
        moved = near_pole.offset_m(1_000_000.0, 0.0)
        assert moved.lat == 90.0

    def test_antipodal_distance_near_half_circumference(self):
        half_circumference = math.pi * EARTH_RADIUS_M
        got = haversine_m(LatLng(0.0, 0.0), LatLng(0.0, 180.0))
        assert math.isclose(got, half_circumference, rel_tol=1e-9)

    def test_offset_roundtrip_within_tolerance(self):
        # Compare with math.isclose, never ==: the flat-earth offset and
        # its inverse differ at floating-point scale even for small moves.
        moved = HK.offset_m(250.0, -125.0)
        back = moved.offset_m(-250.0, 125.0)
        assert math.isclose(back.lat, HK.lat, abs_tol=1e-9)
        assert math.isclose(back.lng, HK.lng, abs_tol=1e-9)
        assert haversine_m(HK, back) < 0.01  # metres

    def test_offset_roundtrip_across_antimeridian(self):
        start = LatLng(10.0, 179.9995)
        moved = start.offset_m(0.0, 500.0)
        assert moved.lng < 0.0
        back = moved.offset_m(0.0, -500.0)
        assert math.isclose(back.lng, start.lng, abs_tol=1e-9)
        assert haversine_m(start, back) < 0.01


class TestRegion:
    def test_sample_stays_inside(self):
        region = Region.around(HK, 300.0)
        rng = DeterministicRNG(1)
        for _ in range(50):
            point = region.sample(rng)
            assert region.south <= point.lat <= region.north
            assert region.west <= point.lng <= region.east

    def test_invalid_bounds_rejected(self):
        with pytest.raises(GeoError):
            Region(south=10.0, west=0.0, north=5.0, east=1.0)

    def test_nonpositive_half_side_rejected(self):
        with pytest.raises(GeoError):
            Region.around(HK, 0.0)


class TestGeohash:
    def test_known_vector(self):
        # canonical example from the geohash literature
        assert geohash_encode(LatLng(57.64911, 10.40744), 11) == "u4pruydqqvj"

    def test_decode_is_near_encode_input(self):
        gh = geohash_encode(HK, 12)
        decoded = geohash_decode(gh)
        assert haversine_m(HK, decoded) < 0.1  # 12 chars ~ centimetres

    def test_prefix_is_enclosing_cell(self):
        gh = geohash_encode(HK, 10)
        south, west, north, east = geohash_bounds(gh[:5])
        assert south <= HK.lat <= north and west <= HK.lng <= east

    def test_rejects_bad_precision(self):
        with pytest.raises(GeoError):
            geohash_encode(HK, 0)
        with pytest.raises(GeoError):
            geohash_encode(HK, 99)

    def test_rejects_invalid_characters(self):
        with pytest.raises(GeoError):
            geohash_bounds("abci")  # 'i' is not in the alphabet
        with pytest.raises(GeoError):
            geohash_bounds("")

    def test_equator_and_meridian_points(self):
        for point in (LatLng(0.0, 0.0), LatLng(0.0, 179.9), LatLng(0.0, -180.0)):
            gh = geohash_encode(point, 10)
            decoded = geohash_decode(gh)
            assert haversine_m(point, decoded) < 10.0

    def test_near_poles_encode_decode(self):
        for lat in (89.99, -89.99):
            point = LatLng(lat, 45.0)
            gh = geohash_encode(point, 10)
            south, west, north, east = geohash_bounds(gh)
            assert south <= lat <= north

    def test_cell_size_shrinks_with_precision(self):
        h6, w6 = cell_size_m(6)
        h12, w12 = cell_size_m(12)
        assert h12 < h6 and w12 < w6
        assert h12 < 1.0  # sub-metre at CSC precision


class TestCSC:
    def test_from_point_and_center(self):
        csc = CryptoSpatialCoordinate.from_point(HK, ANCHOR)
        assert len(csc.geohash) == 12
        assert haversine_m(geohash_decode(csc.geohash), HK) < 0.1

    def test_same_cell_ignores_anchor(self):
        other_anchor = Address(b"\x02" * 20)
        a = CryptoSpatialCoordinate.from_point(HK, ANCHOR)
        b = CryptoSpatialCoordinate.from_point(HK, other_anchor)
        assert a.geohash == b.geohash
        assert a.key() != b.key()

    def test_invalid_geohash_rejected(self):
        with pytest.raises(GeoError):
            CryptoSpatialCoordinate("not a geohash!", ANCHOR)


class TestReportHistory:
    def test_window_is_inclusive_lookback(self):
        history = ReportHistory(1)
        for t in (0.0, 10.0, 20.0, 30.0):
            history.add(GeoReport(node=1, position=HK, timestamp=t))
        window = history.window(now=30.0, lookback_s=15.0)
        assert [r.timestamp for r in window] == [20.0, 30.0]

    def test_rejects_wrong_node(self):
        history = ReportHistory(1)
        with pytest.raises(GeoError):
            history.add(GeoReport(node=2, position=HK, timestamp=0.0))

    def test_rejects_time_regression(self):
        history = ReportHistory(1)
        history.add(GeoReport(node=1, position=HK, timestamp=10.0))
        with pytest.raises(GeoError):
            history.add(GeoReport(node=1, position=HK, timestamp=5.0))

    def test_stationary_since_tracks_last_move(self):
        history = ReportHistory(1)
        far = HK.offset_m(500.0, 0.0)
        history.add(GeoReport(node=1, position=far, timestamp=0.0))
        history.add(GeoReport(node=1, position=HK, timestamp=100.0))
        history.add(GeoReport(node=1, position=HK, timestamp=200.0))
        assert history.stationary_since() == 100.0

    def test_stationary_since_empty(self):
        assert ReportHistory(1).stationary_since() is None

    def test_prune_before(self):
        history = ReportHistory(1)
        for t in range(10):
            history.add(GeoReport(node=1, position=HK, timestamp=float(t)))
        removed = history.prune_before(5.0)
        assert removed == 5
        assert len(history) == 5


class TestLocationAuditor:
    def _report(self, node=1, pos=HK, at=0.0):
        return GeoReport(node=node, position=pos, timestamp=at)

    def test_valid_with_witness(self):
        auditor = LocationAuditor(min_witnesses=1)
        report = self._report()
        statements = [
            WitnessStatement(witness=2, subject=1, observed=True, at=0.0,
                             witness_position=HK.offset_m(20.0, 0.0))
        ]
        result = auditor.audit(report, statements)
        assert result.verdict is AuditVerdict.VALID

    def test_unwitnessed_without_statements(self):
        auditor = LocationAuditor(min_witnesses=1)
        result = auditor.audit(self._report(), [])
        assert result.verdict is AuditVerdict.UNWITNESSED

    def test_contradicted_by_negative_statements(self):
        auditor = LocationAuditor(min_witnesses=1)
        statements = [
            WitnessStatement(witness=2, subject=1, observed=False, at=0.0,
                             witness_position=HK.offset_m(10.0, 0.0))
        ]
        result = auditor.audit(self._report(), statements)
        assert result.verdict is AuditVerdict.CONTRADICTED

    def test_out_of_range_witness_ignored(self):
        auditor = LocationAuditor(witness_range_m=50.0, min_witnesses=1)
        statements = [
            WitnessStatement(witness=2, subject=1, observed=True, at=0.0,
                             witness_position=HK.offset_m(500.0, 0.0))
        ]
        result = auditor.audit(self._report(), statements)
        assert result.verdict is AuditVerdict.UNWITNESSED

    def test_duplicate_cell_claims_conflict(self):
        auditor = LocationAuditor(min_witnesses=0, round_seconds=60.0)
        first = auditor.audit(self._report(node=1, at=0.0), [])
        second = auditor.audit(self._report(node=2, at=30.0), [])
        assert first.verdict is AuditVerdict.VALID
        assert second.verdict is AuditVerdict.DUPLICATE_CLAIM
        assert second.conflicting_nodes == (1,)

    def test_same_node_repeat_claims_ok(self):
        auditor = LocationAuditor(min_witnesses=0, round_seconds=60.0)
        auditor.audit(self._report(node=1, at=0.0), [])
        again = auditor.audit(self._report(node=1, at=30.0), [])
        assert again.verdict is AuditVerdict.VALID

    def test_claims_outside_round_do_not_conflict(self):
        auditor = LocationAuditor(min_witnesses=0, round_seconds=60.0)
        auditor.audit(self._report(node=1, at=0.0), [])
        later = auditor.audit(self._report(node=2, at=120.0), [])
        assert later.verdict is AuditVerdict.VALID

    def test_honest_statements_respect_range(self):
        report = self._report(node=1)
        positions = {
            1: HK,
            2: HK.offset_m(50.0, 0.0),   # in range
            3: HK.offset_m(5000.0, 0.0),  # out of range
        }
        statements = honest_statements(report, positions, 150.0, truthful_presence=True)
        assert [s.witness for s in statements] == [2]

    def test_constructor_validation(self):
        with pytest.raises(GeoError):
            LocationAuditor(witness_range_m=0.0)
        with pytest.raises(GeoError):
            LocationAuditor(round_seconds=0.0)
