"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.common.quorum import primary_for_view
from repro.common.rng import DeterministicRNG
from repro.crypto.hashing import digest_concat
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import MerkleTree
from repro.geo.coords import LatLng, haversine_m
from repro.geo.geohash import geohash_bounds, geohash_decode, geohash_encode
from repro.geo.reports import GeoReport, ReportHistory
from repro.metrics.latency import BoxplotStats
from repro.core.incentive import IncentiveEngine, select_producer
from repro.pbft.log import MessageLog, roster
from repro.pbft.messages import ClientRequest, Commit, Prepare, PrePrepare, RawOperation

# strategies -----------------------------------------------------------------

lat_strategy = st.floats(min_value=-89.9, max_value=89.9, allow_nan=False)
lng_strategy = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
latlng_strategy = st.builds(LatLng, lat_strategy, lng_strategy)


class TestGeohashProperties:
    @given(point=latlng_strategy, precision=st.integers(min_value=6, max_value=12))
    def test_decode_lies_in_encoded_cell(self, point, precision):
        gh = geohash_encode(point, precision)
        south, west, north, east = geohash_bounds(gh)
        assert south <= point.lat <= north
        assert west <= point.lng <= east

    @given(point=latlng_strategy, precision=st.integers(min_value=1, max_value=12))
    def test_reencoding_center_is_stable(self, point, precision):
        gh = geohash_encode(point, precision)
        assert geohash_encode(geohash_decode(gh), precision) == gh

    @given(point=latlng_strategy,
           p1=st.integers(min_value=1, max_value=11),
           extra=st.integers(min_value=1, max_value=6))
    def test_prefix_property(self, point, p1, extra):
        shorter = geohash_encode(point, p1)
        longer = geohash_encode(point, min(12, p1 + extra))
        assert longer.startswith(shorter)


class TestHaversineProperties:
    @given(a=latlng_strategy, b=latlng_strategy)
    def test_symmetric_and_nonnegative(self, a, b):
        d1, d2 = haversine_m(a, b), haversine_m(b, a)
        assert d1 >= 0
        assert math.isclose(d1, d2, rel_tol=1e-9, abs_tol=1e-6)

    @given(a=latlng_strategy)
    def test_identity(self, a):
        assert haversine_m(a, a) == 0.0

    @given(a=latlng_strategy, b=latlng_strategy)
    def test_bounded_by_half_circumference(self, a, b):
        assert haversine_m(a, b) <= math.pi * 6_371_008.8 + 1.0


class TestMerkleProperties:
    @given(leaves=st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=16))
    def test_root_deterministic(self, leaves):
        assert MerkleTree(leaves).root == MerkleTree(list(leaves)).root


class TestCryptoProperties:
    @given(node=st.integers(min_value=0, max_value=10_000),
           message=st.binary(max_size=256))
    @settings(max_examples=50)
    def test_sign_verify_roundtrip(self, node, message):
        kp = KeyPair.generate(node)
        assert kp.verify(message, kp.sign(message))

    @given(parts=st.lists(st.binary(max_size=16), min_size=1, max_size=5))
    def test_digest_concat_sensitive_to_split(self, parts):
        joined = digest_concat(b"".join(parts))
        split = digest_concat(*parts)
        if len(parts) > 1 and any(parts):
            assert joined != split


class TestQuorumProperties:
    @given(n=st.integers(min_value=4, max_value=100))
    def test_f_bound(self, n):
        log = MessageLog(roster(tuple(range(n))), 0)
        # 3f + 1 <= n always
        assert 3 * log.f + 1 <= n
        assert 3 * (log.f + 1) + 1 > n

    @given(n=st.integers(min_value=4, max_value=40),
           prepares=st.integers(min_value=0, max_value=40))
    def test_prepared_threshold_exact(self, n, prepares):
        prepares = min(prepares, n - 1)
        log = MessageLog(roster(tuple(range(n))), 0)
        request = ClientRequest(client=99, timestamp=0.0, op=RawOperation("x"))
        digest = request.digest()
        log.add_pre_prepare(
            PrePrepare(view=0, seq=1, digest=digest, request=request, sender=0)
        )
        for sender in range(1, prepares + 1):
            log.add_prepare(Prepare(view=0, seq=1, digest=digest, sender=sender))
        # pre-prepare counts as the primary's prepare: need 2f more
        assert log.prepared(0, 1) == (prepares + 1 >= 2 * log.f + 1)

    @given(view=st.integers(min_value=0, max_value=10_000),
           n=st.integers(min_value=1, max_value=100))
    def test_primary_always_in_range(self, view, n):
        assert 0 <= primary_for_view(view, n) < n


class TestIncentiveProperties:
    @given(fee=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
           n=st.integers(min_value=1, max_value=40))
    def test_fee_conservation_without_sanctions(self, fee, n):
        engine = IncentiveEngine()
        engine.on_block(1, producer=0, endorsers=list(range(n)), total_fee=fee)
        if n == 1:
            # lone producer: endorser pool has nobody to pay
            assert sum(engine.balances.values()) <= fee + 1e-6
        else:
            assert math.isclose(sum(engine.balances.values()), fee,
                                rel_tol=1e-9, abs_tol=1e-6)

    @given(timers=st.dictionaries(st.integers(min_value=0, max_value=50),
                                  st.floats(min_value=0.0, max_value=1e5,
                                            allow_nan=False),
                                  min_size=1, max_size=20),
           era=st.integers(min_value=0, max_value=100),
           height=st.integers(min_value=0, max_value=1000))
    def test_selected_producer_is_member(self, timers, era, height):
        assert select_producer(timers, era, height) in timers


class TestReportHistoryProperties:
    @given(times=st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                          min_size=1, max_size=30),
           lookback=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_window_subset_and_sorted(self, times, lookback):
        times = sorted(times)
        history = ReportHistory(1)
        pos = LatLng(10.0, 20.0)
        for t in times:
            history.add(GeoReport(node=1, position=pos, timestamp=t))
        now = times[-1]
        window = [r.timestamp for r in history.window(now, lookback)]
        assert window == sorted(window)
        assert all(now - lookback <= t <= now for t in window)


class TestBoxplotProperties:
    @given(samples=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                      allow_nan=False),
                            min_size=1, max_size=100))
    def test_ordering_invariants(self, samples):
        stats = BoxplotStats.from_samples(samples)
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
        eps = 1e-9 * max(1.0, stats.maximum)  # mean is float-summed
        assert stats.minimum - eps <= stats.mean <= stats.maximum + eps
        assert stats.count == len(samples)


class TestRNGProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31),
           label=st.text(min_size=1, max_size=10))
    @settings(max_examples=30)
    def test_fork_reproducibility(self, seed, label):
        a = DeterministicRNG(seed).fork(label)
        b = DeterministicRNG(seed).fork(label)
        assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]

    @given(weights=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                      allow_nan=False),
                            min_size=1, max_size=10))
    def test_weighted_index_in_range(self, weights):
        rng = DeterministicRNG(1)
        assert 0 <= rng.weighted_index(weights) < len(weights)
