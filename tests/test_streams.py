"""Aggregated arrival streams: thinning, rate profiles, bounded memory.

The statistical thinning stream and its rate profiles, alongside the
satellite memory bounds (event-log capacity rings, client completion
caps, retry backoff) that make the million-request aggregated day
tractable.
"""

import math

import pytest

from repro.common.config import GPBFTConfig, TopologySpec, ZoneSpec
from repro.common.errors import ConfigurationError
from repro.common.eventlog import EV_REQUEST_SUBMITTED, TRACE_WINDOW, EventLog
from repro.common.rng import DeterministicRNG
from repro.net.simulator import Simulator
from repro.workloads.streams import (
    AggregatedArrivals,
    DiurnalWave,
    FlashCrowdBurst,
    PoissonSuperposition,
)


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

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_poisson_superposition_refuses_non_finite(self, value):
        with pytest.raises(ConfigurationError, match="mean_period_s must be finite"):
            PoissonSuperposition(n_clients=10, mean_period_s=value)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["base_rps", "amplitude_rps",
                                       "period_s", "phase_s"])
    def test_diurnal_wave_refuses_non_finite(self, field, value):
        kwargs = {"base_rps": 1.0, "amplitude_rps": 0.0, field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            DiurnalWave(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["base_rps", "burst_rps", "at_s",
                                       "duration_s"])
    def test_flash_crowd_burst_refuses_non_finite(self, field, value):
        kwargs = {"base_rps": 1.0, "burst_rps": 0.0, "at_s": 0.0,
                  "duration_s": 1.0, field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            FlashCrowdBurst(**kwargs)


class TestAggregatedArrivals:
    def _run(self, seed, profile, horizon, pool=3):
        sim = Simulator()
        schedule = []
        submits = [(lambda j: lambda: schedule.append((sim.now, j)))(i)
                   for i in range(pool)]
        stream = AggregatedArrivals(
            sim, submits, DeterministicRNG(seed, "stream"), profile)
        stream.start(until=horizon)
        sim.run(until=horizon + 1.0)
        return schedule, stream

    def test_deterministic_and_round_robin(self):
        profile = PoissonSuperposition(10, 5.0)
        first, _ = self._run(7, profile, 200.0)
        second, _ = self._run(7, profile, 200.0)
        # the recorded (sim.now, slot) schedules of two runs are equal
        assert len(first) > 100 and first == second
        assert self._run(8, profile, 200.0)[0] != first
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
        profile = PoissonSuperposition(5, 1.0)
        sim = Simulator()
        stream = AggregatedArrivals(sim, [lambda: None], DeterministicRNG(1),
                                    profile)
        stream.start(limit=25)
        sim.run(until=1e6)
        assert stream.submitted == 25
        assert sim.pending == 0  # the limit stops the candidate timer

    def test_single_live_timer(self):
        # a pool of 8 clients, but only the stream's one timer is queued
        sim = Simulator()
        stream = AggregatedArrivals(sim, [lambda: None] * 8,
                                    DeterministicRNG(1), PoissonSuperposition(8, 1.0))
        stream.start()
        assert sim.pending == 1
        sim.run(until=50.0)
        assert stream.submitted > 100 and sim.pending == 1
        stream.stop()
        assert sim.pending == 0

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError, match="submit callback"):
            AggregatedArrivals(sim, [], DeterministicRNG(0),
                               PoissonSuperposition(1, 1.0))

    def test_an_infinite_rate_is_refused_before_the_stream_runs(self):
        # an infinite peak made every candidate delay 0: run() never returned
        with pytest.raises(ConfigurationError, match="base_rps must be finite"):
            AggregatedArrivals(Simulator(), [lambda: None], DeterministicRNG(0),
                               DiurnalWave(base_rps=math.inf, amplitude_rps=0.0))


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

    def test_event_capacity_holds_a_whole_trace_window(self):
        # a ring of C keeps at least its newest C events, so C >= the
        # post-mortem window keeps every dump's window whole
        with pytest.raises(ConfigurationError, match=f">= {TRACE_WINDOW}"):
            TopologySpec.cluster(4, event_capacity=TRACE_WINDOW - 1)
        cluster = TopologySpec.cluster(4, event_capacity=TRACE_WINDOW).build()
        for i in range(3 * TRACE_WINDOW + 7):
            cluster.events.record(float(i), EV_REQUEST_SUBMITTED, seq=i)
        assert [e.data["seq"] for e in cluster.events.tail(TRACE_WINDOW)] == list(
            range(2 * TRACE_WINDOW + 7, 3 * TRACE_WINDOW + 7))

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
