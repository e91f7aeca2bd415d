"""Aggregated arrival streams: equivalence, thinning, bounded-memory wiring.

The load-bearing property: :class:`ExactAggregatedArrivals` with *k*
virtual clients reproduces the submission schedule of *k* independent
per-client arrival processes request-for-request -- same times, same
clients, same tie order, same rolling fingerprints.  Alongside it, the
statistical thinning mode, the rate profiles, and the satellite memory
bounds (event-log capacity rings, client completion caps, retry
backoff) that make the million-request aggregated day tractable.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import GPBFTConfig, TopologySpec, ZoneSpec
from repro.common.errors import ConfigurationError
from repro.common.eventlog import EV_REQUEST_SUBMITTED, Event, EventLog
from repro.common.rng import DeterministicRNG
from repro.net.simulator import Simulator
from repro.obs.instruments import Counter
from repro.workloads.arrivals import ConstantRateArrivals, PoissonArrivals
from repro.workloads.streams import (
    AggregatedArrivals,
    DiurnalWave,
    ExactAggregatedArrivals,
    FlashCrowdBurst,
    PoissonSuperposition,
    constant_delay,
    poisson_delay,
    schedule_fingerprint,
)


def _per_client_schedule(kind, k, periods, seed, horizon):
    """Run k real per-client arrival processes; return their schedule."""
    sim = Simulator()
    root = DeterministicRNG(seed)
    schedule = []
    procs = []
    for i in range(k):
        rng = root.fork(f"client-{i}")
        submit = (lambda j: lambda: schedule.append((sim.now, j)))(i)
        if kind == "constant":
            procs.append(ConstantRateArrivals(sim, submit, rng, periods[i]))
        else:
            procs.append(PoissonArrivals(sim, submit, rng, periods[i]))
    for proc in procs:
        proc.start()
    sim.run(until=horizon)
    return schedule


def _aggregate_schedule(kind, k, periods, seed, horizon):
    """Run the exact aggregate mirror; return (schedule, fingerprint)."""
    sim = Simulator()
    root = DeterministicRNG(seed)
    rngs = [root.fork(f"client-{i}") for i in range(k)]
    schedule = []
    submits = [(lambda j: lambda: schedule.append((sim.now, j)))(i)
               for i in range(k)]
    make = constant_delay if kind == "constant" else poisson_delay
    agg = ExactAggregatedArrivals(
        sim, submits, rngs, [make(p) for p in periods],
        record_fingerprint=True)
    agg.start()
    sim.run(until=horizon)
    return schedule, agg.fingerprint_hex()


class TestExactEquivalence:
    """The ISSUE's property: aggregate == per-client objects, exactly."""

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["constant", "poisson"]),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_schedules_identical(self, kind, k, seed, data):
        periods = [
            data.draw(st.floats(min_value=0.2, max_value=5.0))
            for _ in range(k)
        ]
        objects = _per_client_schedule(kind, k, periods, seed, horizon=40.0)
        aggregate, fingerprint = _aggregate_schedule(
            kind, k, periods, seed, horizon=40.0)
        assert objects == aggregate
        assert schedule_fingerprint(objects) == fingerprint

    def test_tie_order_follows_reschedule_order(self):
        # periods 1 s and 2 s with fixed phases collide at every even
        # second; the slower client's timer entered the heap earlier,
        # so per-object simulation fires it first -- index order would
        # be wrong here
        sim1 = Simulator()
        sched1 = []
        root1 = DeterministicRNG(3)
        a = ConstantRateArrivals(
            sim1, lambda: sched1.append((sim1.now, 0)), root1.fork("c0"), 1.0)
        b = ConstantRateArrivals(
            sim1, lambda: sched1.append((sim1.now, 1)), root1.fork("c1"), 2.0)
        a.start(phase=1.0)
        b.start(phase=2.0)
        sim1.run(until=10.0)

        sim2 = Simulator()
        sched2 = []
        root2 = DeterministicRNG(3)
        agg = ExactAggregatedArrivals(
            sim2,
            [lambda: sched2.append((sim2.now, 0)),
             lambda: sched2.append((sim2.now, 1))],
            [root2.fork("c0"), root2.fork("c1")],
            [constant_delay(1.0), constant_delay(2.0)])
        agg.start(phase=[1.0, 2.0])
        sim2.run(until=10.0)

        assert (2.0, 1) in sched1 and sched1.index((2.0, 1)) < sched1.index((2.0, 0))
        assert sched1 == sched2

    def test_single_live_timer(self):
        sim = Simulator()
        agg = ExactAggregatedArrivals(
            sim, [lambda: None] * 8,
            [DeterministicRNG(1).fork(f"c{i}") for i in range(8)],
            constant_delay(1.0))
        agg.start(phase=0.5)
        # 8 mirrored clients, but only the stream's one timer is queued
        assert sim.pending == 1

    def test_per_client_counts_and_limit(self):
        sim = Simulator()
        agg = ExactAggregatedArrivals(
            sim, [lambda: None, lambda: None],
            [DeterministicRNG(5).fork("a"), DeterministicRNG(5).fork("b")],
            constant_delay(1.0))
        agg.start(limit=5, phase=[0.25, 0.75])
        sim.run(until=100.0)
        assert agg.submitted == 5
        assert sum(agg.per_client) == 5

    def test_validation(self):
        sim = Simulator()
        rng = DeterministicRNG(0)
        with pytest.raises(ConfigurationError):
            ExactAggregatedArrivals(sim, [], [], constant_delay(1.0))
        with pytest.raises(ConfigurationError):
            ExactAggregatedArrivals(sim, [lambda: None], [rng, rng],
                                    constant_delay(1.0))
        with pytest.raises(ConfigurationError):
            ExactAggregatedArrivals(sim, [lambda: None], [rng],
                                    [constant_delay(1.0), constant_delay(2.0)])
        with pytest.raises(ConfigurationError):
            constant_delay(0.0)
        with pytest.raises(ConfigurationError):
            poisson_delay(-1.0)


class TestRateProfiles:
    def test_poisson_superposition_is_flat(self):
        profile = PoissonSuperposition(n_clients=50, mean_period_s=10.0)
        assert profile.rate(0.0) == profile.rate(1e6) == pytest.approx(5.0)
        assert profile.peak_rate() == pytest.approx(5.0)

    def test_diurnal_wave_shape(self):
        wave = DiurnalWave(base_rps=2.0, amplitude_rps=1.0, period_s=86_400.0)
        assert wave.rate(0.0) == pytest.approx(2.0)
        assert wave.rate(86_400.0 / 4) == pytest.approx(3.0)  # crest
        assert wave.rate(3 * 86_400.0 / 4) == pytest.approx(1.0)  # trough
        assert wave.peak_rate() == pytest.approx(3.0)
        # amplitude above base clamps at zero instead of going negative
        deep = DiurnalWave(base_rps=1.0, amplitude_rps=4.0, period_s=100.0)
        assert deep.rate(75.0) <= 0.0

    def test_flash_crowd_window(self):
        burst = FlashCrowdBurst(base_rps=1.0, burst_rps=9.0,
                                at_s=100.0, duration_s=50.0)
        assert burst.rate(99.9) == pytest.approx(1.0)
        assert burst.rate(100.0) == pytest.approx(10.0)
        assert burst.rate(149.9) == pytest.approx(10.0)
        assert burst.rate(150.0) == pytest.approx(1.0)
        assert burst.peak_rate() == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonSuperposition(0, 1.0)
        with pytest.raises(ConfigurationError):
            DiurnalWave(base_rps=0.0, amplitude_rps=1.0)
        with pytest.raises(ConfigurationError):
            FlashCrowdBurst(base_rps=1.0, burst_rps=1.0, at_s=-1.0,
                            duration_s=10.0)


class TestAggregatedArrivals:
    def _run(self, seed, profile, horizon, pool=3, record=False, counter=None):
        sim = Simulator()
        schedule = []
        submits = [(lambda j: lambda: schedule.append((sim.now, j)))(i)
                   for i in range(pool)]
        stream = AggregatedArrivals(
            sim, submits, DeterministicRNG(seed, "stream"), profile,
            record_fingerprint=record, offered_counter=counter)
        stream.start(until=horizon)
        sim.run(until=horizon + 1.0)
        return schedule, stream

    def test_deterministic_and_round_robin(self):
        profile = PoissonSuperposition(10, 5.0)
        first, stream1 = self._run(7, profile, 200.0, record=True)
        second, stream2 = self._run(7, profile, 200.0, record=True)
        assert first == second
        assert stream1.fingerprint_hex() == stream2.fingerprint_hex()
        # accepted submissions rotate through the pool in slot order
        assert [slot for _, slot in first[:6]] == [0, 1, 2, 0, 1, 2]

    def test_thinning_tracks_expected_rate(self):
        # 2 req/s over 2000 s -> 4000 expected; Poisson sd is ~63, so
        # +/-5 sd is a deterministic-seed-safe band
        profile = PoissonSuperposition(20, 10.0)
        schedule, stream = self._run(11, profile, 2000.0)
        assert stream.submitted == len(schedule)
        assert 4000 - 320 <= stream.submitted <= 4000 + 320

    def test_burst_window_density(self):
        profile = FlashCrowdBurst(base_rps=1.0, burst_rps=9.0,
                                  at_s=500.0, duration_s=100.0)
        schedule, _ = self._run(13, profile, 1000.0)
        inside = [t for t, _ in schedule if 500.0 <= t < 600.0]
        outside = [t for t, _ in schedule if t < 500.0 or t >= 600.0]
        # 10 req/s for 100 s vs 1 req/s for 900 s
        assert len(inside) > len(outside) * 0.7
        assert 800 <= len(inside) <= 1200

    def test_limit_and_counter(self):
        counter = Counter("workload.offered")
        profile = PoissonSuperposition(5, 1.0)
        sim = Simulator()
        stream = AggregatedArrivals(
            sim, [lambda: None], DeterministicRNG(1), profile,
            offered_counter=counter.child("z0"))
        stream.start(limit=25)
        sim.run(until=1e6)
        assert stream.submitted == 25
        assert counter.value == 25
        assert counter.child("z0").value == 25

    def test_fingerprint_requires_opt_in(self):
        profile = PoissonSuperposition(5, 1.0)
        _, stream = self._run(1, profile, 10.0, record=False)
        with pytest.raises(ConfigurationError):
            stream.fingerprint_hex()


class TestAggPoint:
    """The engine-level aggregated point at smoke scale."""

    def test_agg_point_completes_and_is_deterministic(self):
        from repro.experiments.engine import POINT_KINDS, PointSpec, run_point

        assert "agg" in POINT_KINDS
        spec = PointSpec.make("gpbft", "agg", 120, 0, zones=2,
                              duration_s=60.0, drain_slack_s=600.0)
        first = run_point(spec)
        assert first["offered"] > 0
        assert first["completed"] == first["offered"]
        assert run_point(spec) == first

    def test_agg_point_objects_fallback(self):
        from repro.experiments.engine import PointSpec, run_point

        out = run_point(PointSpec.make(
            "gpbft", "agg", 120, 0, zones=2, duration_s=60.0,
            drain_slack_s=600.0, workload="objects"))
        assert out["workload"] == "objects"
        assert out["completed"] == out["offered"] > 0

    def test_unknown_profile_rejected(self):
        from repro.experiments.engine import PointSpec, run_point

        with pytest.raises(ConfigurationError):
            run_point(PointSpec.make("gpbft", "agg", 10, 0, zones=2,
                                     duration_s=10.0, profile="square"))


class TestBoundedMemorySatellites:
    """Capacity rings and caps that keep million-request runs flat."""

    def test_eventlog_capacity_ring(self):
        log = EventLog(capacity=100)
        for i in range(1000):
            log.record(float(i), EV_REQUEST_SUBMITTED, node=1)
        assert log.total_appended == 1000
        assert log.count(EV_REQUEST_SUBMITTED) == 1000  # counts stay exact
        assert 100 <= len(log) <= 200  # amortized ring keeps <= 2x capacity
        # the retained suffix is the newest events, in order
        times = [e.at for e in log]
        assert times == sorted(times)
        assert int(times[-1]) == 999

    def test_eventlog_capacity_validation(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)
        unbounded = EventLog()
        for i in range(300):
            unbounded.record(float(i), EV_REQUEST_SUBMITTED)
        assert len(unbounded) == 300

    def test_zone_workload_validation(self):
        with pytest.raises(ConfigurationError):
            ZoneSpec(name="z0", n_nodes=4, workload="per-device")
        zone = ZoneSpec(name="z0", n_nodes=4, workload="aggregate")
        assert zone.workload == "aggregate"

    def test_event_capacity_threads_through_spec(self):
        with pytest.raises(ConfigurationError):
            TopologySpec.cluster(4, event_capacity=0)
        spec = TopologySpec.zoned(2, 8, workload="aggregate",
                                  event_capacity=500)
        assert spec.event_capacity == 500
        assert all(z.workload == "aggregate" for z in spec.zones)
        assert spec.zone_topology(1).event_capacity == 500
        cluster = TopologySpec.cluster(4, event_capacity=500).build()
        for i in range(1200):
            cluster.events.record(float(i), EV_REQUEST_SUBMITTED)
        assert len(cluster.events) <= 1000

    def test_client_completion_bound_and_backoff_default(self):
        from repro.pbft.client import COMPLETED_BOUND

        config = GPBFTConfig()
        assert config.pbft.retry_backoff_factor == pytest.approx(1.0)
        assert math.isinf(config.pbft.retry_backoff_max_s)
        assert COMPLETED_BOUND >= 10_000

    def test_backoff_schedule_grows_and_caps(self):
        from repro.pbft.client import PBFTClient

        sent = []
        from dataclasses import replace

        config = replace(GPBFTConfig().pbft, request_retry_timeout_s=1.0,
                         retry_backoff_factor=2.0, retry_backoff_max_s=4.0)
        sim = Simulator()

        class Recorder:
            def send(self, dst, payload):
                sent.append((sim.now, dst))

            def multicast(self, dsts, payload):
                sent.extend((sim.now, dst) for dst in dsts)

        client = PBFTClient(node_id=100, committee=(0, 1, 2, 3), sim=sim,
                            transport=Recorder(), config=config)
        from repro.pbft.messages import RawOperation

        client.submit(RawOperation(op_id="op", size_bytes=8))
        sim.run(until=40.0)
        # broadcasts at t=0 then retries at 1, 1+2, 3+4, 7+4, ...
        retry_times = sorted({t for t, _ in sent})
        assert retry_times[:5] == [0.0, 1.0, 3.0, 7.0, 11.0]
        gaps = [b - a for a, b in zip(retry_times[2:], retry_times[3:])]
        assert gaps == pytest.approx([4.0] * len(gaps))
