"""Tests for the v2 observability pipeline (``repro.obs`` city-scale).

Covers the streaming windowed time-series (frame content, flush
timing, partial frames, bit-identical JSONL output), the deterministic
head sampler, the flight recorder (rings, storm trigger, invariant
-violation trigger, on-demand dumps), the simulator tick hook, the
zone-labeled facade clones, the streaming ``validate`` CLI path, and
the zero-overhead guarantee that enabling the v2 pipeline leaves the
event schedule bit-identical.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import replace

import pytest

from repro.common.config import (
    GPBFTConfig, PBFTConfig, TopologySpec, VerifyConfig,
)
from repro.common.eventlog import (
    EV_PBFT_ASSIGNED,
    EV_PBFT_VIEW_CHANGE,
    EV_REQUEST_COMPLETED,
    EV_REQUEST_SUBMITTED,
    TRACE_WINDOW,
    EventLog,
    event_to_json,
)
from repro.experiments import scenario
from repro.net.simulator import Simulator
from repro.net.stats import TrafficStats
from repro.obs.capture import capture_run
from repro.obs.cli import main as obs_main
from repro.obs.core import Observability
from repro.obs.flightrec import (
    DUMP_SCHEMA,
    STORM_THRESHOLD,
    STORM_WINDOW_S,
    FlightRecorder,
    validate_dump,
)
from repro.obs.obsconfig import ObsConfig
from repro.obs.sampling import sample_key
from repro.obs.spans import ObservabilityError
from repro.obs.timeseries import (
    FRAME_SCHEMA,
    FRAMES_TAIL,
    Heartbeat,
    QuantileSketch,
    Timeseries,
    Watch,
    load_frames,
    validate_frame,
)
from repro.pbft.faults import QuorumUndercountFaults
from repro.verify.invariants import InvariantViolation, MonitorHarness


class TestObsConfig:
    def test_defaults_disable_everything(self):
        cfg = ObsConfig()
        assert not (cfg.timeseries or cfg.flight_recorder)
        assert cfg.frames_path is None and cfg.dump_dir is None
        assert cfg.sample_rate == 1.0 and cfg.heartbeat_s is None

    def test_paths_activate_their_features(self, tmp_path):
        frames = str(tmp_path / "f.jsonl")
        assert Observability(ObsConfig(frames_path=frames)).timeseries is not None
        assert Observability(ObsConfig(timeseries=True)).timeseries is not None
        assert Observability(ObsConfig(dump_dir="dumps")).flight is not None
        assert Observability(ObsConfig(flight_recorder=True)).flight is not None

    @pytest.mark.parametrize("kwargs", [
        {"window_s": 0.0},
        {"window_s": -1.0},
        {"sample_rate": -0.1},
        {"sample_rate": 1.5},
        {"sample_rate": float("nan")},
        {"window_s": -0.0},
        {"heartbeat_s": -1.0},
        {"heartbeat_s": 0.0},
    ])
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(ObservabilityError):
            ObsConfig(**kwargs)

    @pytest.mark.parametrize("field", ["window_s", "heartbeat_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_seconds_are_refused_by_name(self, field, value):
        with pytest.raises(ObservabilityError, match=f"{field} must be finite"):
            ObsConfig(**{field: value})


class TestQuantileSketch:
    def test_empty_quantile_raises(self):
        with pytest.raises(ObservabilityError):
            QuantileSketch().quantile(0.5)
        assert QuantileSketch().summary() == {}

    def test_single_value_within_relative_error(self):
        sketch = QuantileSketch()
        sketch.observe(0.25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert 0.25 <= sketch.quantile(q) <= 0.25 * 1.1 + 1e-9

    def test_quantiles_are_monotone(self):
        sketch = QuantileSketch()
        for k in range(200):
            sketch.observe(0.001 * (k + 1))
        estimates = [sketch.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert estimates == sorted(estimates)

    def test_exact_stats_alongside_sketch(self):
        sketch = QuantileSketch()
        for value in (0.5, 1.5, 2.5):
            sketch.observe(value)
        summary = sketch.summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(4.5)
        assert summary["min"] == pytest.approx(0.5)
        assert summary["max"] == pytest.approx(2.5)

    def test_tiny_values_clamp_to_floor_bucket(self):
        sketch = QuantileSketch()
        sketch.observe(0.0)
        sketch.observe(1e-9)
        assert sketch.quantile(1.0) == pytest.approx(1e-4)

    def test_insertion_order_does_not_change_summary(self):
        values = [0.003, 1.7, 0.04, 0.5, 12.0, 0.003]
        a, b = QuantileSketch(), QuantileSketch()
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.summary() == b.summary()


def _traced(rate, rids):
    """Request ids a facade at *rate* keeps a request span for."""
    obs = Observability(ObsConfig(sample_rate=rate))
    log = EventLog()
    obs.listen(log)
    for rid in rids:
        log.record(0.0, EV_REQUEST_SUBMITTED, 0, rid, 4)
        log.record(0.0, EV_REQUEST_COMPLETED, 0, rid, 0.0)
    return [span.args["request_id"] for span in obs.tracer.spans]


class TestHeadSampler:
    def test_rate_one_keeps_everything(self):
        rids = [f"r{i}" for i in range(50)]
        assert _traced(1.0, rids) == rids

    def test_rate_zero_keeps_nothing(self):
        assert _traced(0.0, [f"r{i}" for i in range(50)]) == []

    def test_decisions_are_deterministic_across_instances(self):
        rids = [f"c{i}-{j}" for i in range(20) for j in range(20)]
        kept = _traced(0.3, rids)
        assert kept == _traced(0.3, rids)
        assert kept == [r for r in rids if sample_key(r) < 0.3]

    def test_sample_key_is_uniform_unit_interval(self):
        keys = [sample_key(f"req-{i}") for i in range(500)]
        assert all(0.0 <= k < 1.0 for k in keys)
        # a gross-uniformity sanity check, not a statistical test
        assert 0.3 < sum(keys) / len(keys) < 0.7

    def test_kept_fraction_tracks_rate(self):
        kept = len(_traced(0.2, [f"req-{i}" for i in range(2000)]))
        assert 0.14 < kept / 2000 < 0.26


class TestTimeseries:
    def test_frame_carries_window_counters_and_latency(self):
        stats = TrafficStats()
        ts = Timeseries(window_s=10.0, watched=[Watch("z0", stats)])
        ts.submitted("z0", "r1", 1.0)
        ts.submitted("z0", "r2", 2.0)
        ts.completed("z0", "r1", 3.0)
        ts.view_change("z0", 4.0)
        ts.era_switch("z0", 5.0)
        stats.on_send(0, "pbft.prepare", 700)
        ts.depth("z0", 3, 6.5)
        ts.depth("z0", 9, 7.0)
        ts.depth("z0", 5, 7.5)
        assert ts.finish(8.0) == 1
        frame = ts.frames_tail[-1]
        validate_frame(frame)
        assert frame["window"] == 0
        assert frame["start"] == 0.0 and frame["end"] == 10.0
        assert frame["zone"] == "z0"
        assert frame["partial"] is True
        assert frame["counters"] == {
            "bytes_sent": 700, "commits": 1, "era_switches": 1,
            "messages_sent": 1, "submitted": 2, "view_changes": 1,
        }
        assert frame["latency"]["count"] == 1
        assert frame["latency"]["sum"] == pytest.approx(2.0)
        assert frame["gauges"]["mempool_depth_max"] == 9

    def test_windows_flush_when_the_clock_crosses_a_boundary(self):
        ts = Timeseries(window_s=10.0)
        ts.submitted("z0", "r1", 1.0)
        assert ts.advance(9.999) == 0
        assert ts.advance(10.0) == 1
        assert "partial" not in ts.frames_tail[-1]
        ts.submitted("z0", "r2", 11.0)
        assert ts.finish(12.0) == 1
        assert [f["window"] for f in ts.frames_tail] == [0, 1]

    def test_multiple_zones_flush_sorted_by_name(self):
        ts = Timeseries(window_s=5.0)
        ts.submitted("zB", "r1", 1.0)
        ts.submitted("zA", "r2", 2.0)
        ts.pending(40, 3.0)
        assert ts.advance(5.0) == 3
        assert [f["zone"] for f in ts.frames_tail] == ["_sim", "zA", "zB"]
        assert ts.frames_tail[0]["gauges"]["pending_events_max"] == 40

    def test_quiet_gap_is_constant_cost(self):
        ts = Timeseries(window_s=1.0)
        ts.submitted("z0", "r1", 0.5)
        # a week-long quiet gap flushes exactly one frame; the window
        # index in the next frame keeps the timeline unambiguous
        assert ts.advance(604_800.0) == 1
        ts.submitted("z0", "r2", 604_800.5)
        assert ts.finish(604_801.0) == 1
        assert [f["window"] for f in ts.frames_tail] == [0, 604_800]

    def test_recording_with_a_late_clock_self_advances(self):
        ts = Timeseries(window_s=10.0)
        ts.submitted("z0", "r1", 1.0)
        # no explicit advance(): the next recording flushes window 0
        ts.submitted("z0", "r2", 25.0)
        assert ts.frames_written == 1
        assert ts.frames_tail[0]["window"] == 0

    def test_completion_without_submission_skips_latency(self):
        ts = Timeseries(window_s=10.0)
        ts.completed("z0", "ghost", 3.0)
        ts.finish(4.0)
        frame = ts.frames_tail[-1]
        assert frame["counters"]["commits"] == 1
        assert frame["latency"] is None

    def test_frames_file_is_bit_identical_across_runs(self, tmp_path):
        def run(path):
            ts = Timeseries(window_s=5.0, path=str(path))
            for k in range(40):
                rid = f"r{k}"
                ts.submitted("z0", rid, 0.5 * k)
                ts.completed("z0", rid, 0.5 * k + 0.3)
            ts.finish(25.0)

        run(tmp_path / "a.jsonl")
        run(tmp_path / "b.jsonl")
        a = (tmp_path / "a.jsonl").read_bytes()
        assert a == (tmp_path / "b.jsonl").read_bytes()
        assert a
        frames = load_frames(str(tmp_path / "a.jsonl"))
        assert all(f["schema"] == FRAME_SCHEMA for f in frames)

    def test_an_unfinished_run_leaves_every_closed_window_on_disk(self, tmp_path):
        # a killed run never reaches finish(): what it closed must already
        # be whole lines load_frames accepts
        path = tmp_path / "killed.jsonl"
        ts = Timeseries(window_s=1.0, path=str(path))
        for k in range(5):
            ts.submitted("z0", f"a{k}", k + 0.25)
            ts.submitted("z1", f"b{k}", k + 0.5)
        assert [(f["window"], f["zone"]) for f in load_frames(str(path))] == [
            (w, z) for w in range(4) for z in ("z0", "z1")]
        ts.finish(4.75)
        assert len(load_frames(str(path))) == 10

    def test_frames_tail_is_bounded(self):
        ts = Timeseries(window_s=1.0)
        windows = FRAMES_TAIL + 10
        for k in range(windows):
            ts.submitted("z0", f"r{k}", float(k))
        ts.finish(float(windows))
        assert ts.frames_written == windows
        assert [f["window"] for f in ts.frames_tail] == list(range(10, windows))

    def test_load_frames_reports_the_offending_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        ts = Timeseries(window_s=1.0, path=str(path))
        ts.submitted("z0", "r1", 0.5)
        ts.finish(1.0)
        with open(path, "a") as fh:
            fh.write('{"schema":1,"window":-3}\n')
        with pytest.raises(ObservabilityError, match=r"bad\.jsonl:2"):
            load_frames(str(path))

    @pytest.mark.parametrize("mutate,match", [
        (lambda f: f.__setitem__("schema", 99), "schema"),
        (lambda f: f.__setitem__("window", -1), "window"),
        (lambda f: f.__setitem__("start", "x"), "start/end"),
        (lambda f: f.__setitem__("zone", 7), "zone"),
        (lambda f: f["counters"].__setitem__("commits", -1), "commits"),
        (lambda f: f.__setitem__("latency", [1]), "latency"),
        (lambda f: f.__setitem__("gauges", None), "gauges"),
    ])
    def test_validate_frame_names_the_bad_field(self, mutate, match):
        ts = Timeseries(window_s=1.0)
        ts.submitted("z0", "r1", 0.5)
        ts.finish(1.0)
        frame = json.loads(json.dumps(ts.frames_tail[-1]))
        mutate(frame)
        with pytest.raises(ObservabilityError, match=match):
            validate_frame(frame)


class TestHeartbeat:
    def test_first_call_arms_without_printing(self):
        out = io.StringIO()
        hb = Heartbeat(interval_s=0.0, stream=out)
        assert hb.maybe_beat(10.0, 100) is False
        assert out.getvalue() == ""

    def test_beat_reports_sim_wall_and_rate(self):
        out = io.StringIO()
        hb = Heartbeat(interval_s=0.0, stream=out)
        hb.maybe_beat(10.0, 100)
        assert hb.maybe_beat(20.0, 600) is True
        line = out.getvalue()
        assert line.startswith("[obs] sim=20s wall=")
        assert "events/s=" in line and "rss=" in line


def _storm_feed(times):
    """A zone-labeled facade's recorder after one view change per time
    in a host log the facade attached."""
    obs = Observability(ObsConfig(flight_recorder=True))
    host = _StubHost()
    obs.for_zone("z0").attach_host(host)
    for k, at in enumerate(times):
        host.events.record(at, EV_PBFT_VIEW_CHANGE, k, 1, 0)
    return obs.flight


class TestFlightRecorder:
    def test_ring_is_bounded_and_keeps_the_newest(self):
        flight = FlightRecorder()
        log = EventLog()
        flight.attach(log, "z0")
        for k in range(300):
            log.record(float(k), EV_PBFT_ASSIGNED, 1, k, 0, f"r{k}")
        bundle = flight.dump("on-demand", at=300.0)
        ring = bundle["rings"]["z0"]
        assert len(ring) == TRACE_WINDOW == 256
        assert [e["data"]["seq"] for e in ring] == list(range(44, 300))

    def test_storm_dump_fires_exactly_once_at_threshold(self):
        flight = _storm_feed([1.0 + 0.01 * k for k in range(STORM_THRESHOLD + 5)])
        assert len(flight.dumps) == 1
        bundle = flight.dumps[0]
        assert bundle["reason"] == "view-change-storm"
        assert bundle["extra"]["group"] == "z0"
        assert bundle["extra"]["view_changes"] == STORM_THRESHOLD
        # the storm check runs before the facade counts the view change
        counted = bundle["instruments"]["counters"]["pbft.view_changes"]
        assert counted["total"] == STORM_THRESHOLD - 1

    def test_spread_out_view_changes_never_storm(self):
        # fewer than STORM_THRESHOLD view changes in any one storm window
        gap = STORM_WINDOW_S / (STORM_THRESHOLD - 4)
        assert len(_storm_feed([gap * k for k in range(100)]).dumps) == 0

    def test_violation_dump_embeds_the_serialized_violation(self):
        flight = FlightRecorder()
        violation = InvariantViolation("prefix-consistency", "slot forked")
        flight.on_violation(violation)
        bundle = flight.dumps[-1]
        assert bundle["reason"] == "invariant-violation"
        assert bundle["extra"]["violation"]["monitor"] == "prefix-consistency"
        assert bundle["extra"]["violation"]["message"] == "slot forked"

    def test_dump_file_is_deterministic_and_valid(self, tmp_path):
        flight = FlightRecorder(str(tmp_path))
        log = EventLog()
        flight.attach(log, "z0")
        log.record(1.0, EV_PBFT_ASSIGNED, 1, 0, 0, "r0")
        flight.dump("on-demand", at=1.0)
        flight.dump("on-demand", at=2.0)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["flight-000-on-demand.json",
                         "flight-001-on-demand.json"]
        with open(tmp_path / names[0]) as fh:
            doc = json.load(fh)
        validate_dump(doc)
        assert doc["schema"] == DUMP_SCHEMA

    def test_validate_dump_rejects_malformed_bundles(self):
        with pytest.raises(ObservabilityError):
            validate_dump([])
        with pytest.raises(ObservabilityError, match="schema"):
            validate_dump({"schema": 0, "reason": "x", "rings": {}})
        with pytest.raises(ObservabilityError, match="ring"):
            validate_dump({"schema": DUMP_SCHEMA, "reason": "x",
                           "rings": {"z0": [{"kind": "no-at"}]}})


class _StubHost:
    """Minimal host shape for attach_host: an event log + monitors."""

    def __init__(self):
        self.events = EventLog()
        self.monitors = MonitorHarness(self, monitors=[])


class _StubMonitor:
    name = "stub"


class TestObservabilityFacadeV2:
    def test_default_facade_has_no_v2_components(self):
        obs = Observability()
        assert obs.timeseries is None
        assert obs.flight is None
        assert obs.config.sample_rate == 1.0

    def test_each_kind_holds_at_most_one_obs_callback(self):
        # a kind no handler reads holds no callback; with the recorder
        # on, only pbft.view_change gains one: the storm counter, ahead
        # of the facade's own handler
        for recorder in (False, True):
            obs = Observability(ObsConfig(timeseries=True,
                                          flight_recorder=recorder))
            host = TopologySpec.cluster(4).build(obs=obs)
            subscribers = host.events._subscribers
            assert set(subscribers) == set(Observability._HANDLERS)
            for kind, callbacks in subscribers.items():
                expected = [Observability._HANDLERS[kind]]
                if recorder and kind == EV_PBFT_VIEW_CHANGE:
                    expected.insert(0, obs.flight.view_change)
                assert [cb.func for cb in callbacks] == expected

    def test_attach_host_routes_violations_to_the_recorder(self):
        obs = Observability(ObsConfig(flight_recorder=True))
        host = _StubHost()
        obs.for_zone("z0").attach_host(host)
        host.events.record(1.0, EV_PBFT_ASSIGNED, 0, 1, 0, "r1")
        assert host.monitors.on_violation == obs.flight.on_violation
        with pytest.raises(InvariantViolation):
            host.monitors.fail(_StubMonitor(), "planted failure")
        bundle = obs.flight.dumps[-1]
        assert bundle["reason"] == "invariant-violation"
        assert [e["kind"] for e in bundle["rings"]["z0"]] == [EV_PBFT_ASSIGNED]

    def test_violation_dump_and_violation_carry_one_window(self):
        # the dump's ring and the violation's trace are both the host
        # log's last TRACE_WINDOW events, serialized by event_to_json
        obs = Observability(ObsConfig(flight_recorder=True))
        config = GPBFTConfig(verify=VerifyConfig(monitors=True))
        host = TopologySpec.cluster(4, config=config).build(
            obs=obs, faults={0: QuorumUndercountFaults()})
        for k in range(3):
            scenario.submit(host, "pbft", "w", k, 0, 1.0 + k)
        with pytest.raises(InvariantViolation):
            host.sim.run(until=60.0)
        bundle = obs.flight.dumps[-1]
        assert bundle["reason"] == "invariant-violation"
        violation = bundle["extra"]["violation"]
        ring = bundle["rings"]["g0"]
        assert violation["trace"] == ring
        assert ring == [event_to_json(e) for e in host.events.tail(TRACE_WINDOW)]
        assert ring[-1] == violation["event"]

    def test_zone_clones_share_the_pipeline_and_label_frames(self):
        obs = Observability(ObsConfig(timeseries=True, window_s=10.0))
        za, zb = obs.for_zone("zA"), obs.for_zone("zB")
        assert za.timeseries is obs.timeseries
        assert za.tracer is obs.tracer
        log_a, log_b = EventLog(), EventLog()
        za.listen(log_a)
        zb.listen(log_b)
        log_a.record(0.0, EV_REQUEST_SUBMITTED, 0, "r1", 4)
        log_b.record(0.0, EV_REQUEST_SUBMITTED, 1, "r2", 4)
        obs.timeseries.finish(1.0)
        assert [f["zone"] for f in obs.timeseries.frames_tail] == ["zA", "zB"]

    def test_tick_hook_fires_once_per_distinct_time_before_events(self):
        sim = Simulator()
        seen = []
        fired_at_tick = []

        def tick(time):
            seen.append(time)
            fired_at_tick.append(sim.events_processed)

        sim.set_tick_hook(tick)
        for t in (1.0, 1.0, 2.5, 2.5, 2.5, 4.0):
            sim.schedule_at(t, lambda: None)
        sim.run()
        assert seen == [1.0, 2.5, 4.0]
        # the hook saw each timestamp before any event at it ran
        assert fired_at_tick == [0, 2, 5]

    def test_sampling_thins_spans_but_not_the_timeseries(self):
        obs = Observability(ObsConfig(timeseries=True, window_s=60.0,
                                      sample_rate=0.0))
        log = EventLog()
        obs.listen(log)
        for k in range(25):
            log.record(0.0, EV_REQUEST_SUBMITTED, 0, f"r{k}", 4)
            log.record(0.0, EV_REQUEST_COMPLETED, 0, f"r{k}", 0.0)
        obs.timeseries.finish(1.0)
        assert obs.tracer.spans == []
        frame = obs.timeseries.frames_tail[-1]
        assert frame["counters"]["submitted"] == 25
        assert frame["counters"]["commits"] == 25
        assert frame["latency"]["count"] == 25


def _storm_dump(obs):
    """16 replicas, five primaries in a row offline: the view changes
    cascade past the default storm trigger (50 inside 60 s)."""
    base = GPBFTConfig()
    config = base.replace(
        network=replace(base.network, seed=8),
        pbft=PBFTConfig(view_change_timeout_s=2.0, request_retry_timeout_s=3.0))
    host = TopologySpec.cluster(16, config=config).build(obs=obs)
    for replica in range(5):
        host.sim.schedule_at(0.5, host.network.set_offline, replica, True)
    for k in range(6):
        scenario.submit(host, "pbft", "storm", k, 0, 1.0 + 0.5 * k)
    host.sim.run(until=60.0)


def _violation_dump(obs):
    """A G-PBFT deployment under its monitors whose endorser 1 counts
    quorums two votes short: the first execution breaks an invariant."""
    config = GPBFTConfig(verify=VerifyConfig(monitors=True))
    host = TopologySpec.single(10, 4, config=config, seed=2).build(
        obs=obs, faults={1: QuorumUndercountFaults()})
    ids = sorted(host.nodes)
    for k in range(4):
        host.sim.schedule_at(1.0 + 0.25 * k, host.submit_from, ids[k])
    with pytest.raises(InvariantViolation):
        host.sim.run(until=60.0)


#: SHA-256 of the one dump file each scenario writes: the bundle's
#: rings, instrument snapshot and frame tail, byte for byte.
DUMP_PINS = {
    "flight-000-view-change-storm.json": (_storm_dump, 5.0, (
        "5d7a4c80234e8c87716c9898488eb3f9a9e6b2805136af57c60c4ea49ed591c4")),
    "flight-000-invariant-violation.json": (_violation_dump, 0.05, (
        "3ce62e74c987ffdcfd0b804f618f2c27e7929cf9c9ecde512af3e074f0ce6630")),
}


@pytest.mark.parametrize("name", sorted(DUMP_PINS))
def test_triggered_dumps_are_pinned(name, tmp_path):
    run, window_s, expected = DUMP_PINS[name]
    obs = Observability(ObsConfig(timeseries=True, window_s=window_s,
                                  dump_dir=str(tmp_path)))
    run(obs)
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected


class TestCaptureV2:
    CONFIG = dict(protocol="gpbft", n=8, submissions=5, seed=3,
                  horizon_s=60.0, era_switch_at=12.0)

    def test_v2_pipeline_leaves_the_schedule_bit_identical(self, tmp_path):
        _, plain = capture_run(**self.CONFIG)
        obs, v2 = capture_run(**self.CONFIG, obs_config=ObsConfig(
            timeseries=True, window_s=10.0,
            frames_path=str(tmp_path / "frames.jsonl"),
            sample_rate=0.5, flight_recorder=True))
        assert v2.sim.events_processed == plain.sim.events_processed
        assert v2.sim.now == plain.sim.now
        assert obs.timeseries.frames_written > 0
        for frame in obs.timeseries.frames_tail:
            validate_frame(frame)

    def test_same_seed_captures_write_identical_frames(self, tmp_path):
        for name in ("a.jsonl", "b.jsonl"):
            capture_run(**self.CONFIG, obs_config=ObsConfig(
                timeseries=True, window_s=10.0,
                frames_path=str(tmp_path / name)))
        a = (tmp_path / "a.jsonl").read_bytes()
        assert a == (tmp_path / "b.jsonl").read_bytes()
        assert a

    def test_city_frames_file_is_pinned(self, tmp_path):
        # four zones, each cluster's traffic read off its own TrafficStats
        # at every window close: the bytes of the file the send tap wrote
        from repro.experiments.runner import _gpbft_agg_point

        path = tmp_path / "frames.jsonl"
        out = _gpbft_agg_point(
            3000, 5, zones=4, duration_s=1800.0, drain_slack_s=600.0,
            obs=Observability(ObsConfig(
                timeseries=True, window_s=60.0, frames_path=str(path),
                sample_rate=0.05, flight_recorder=True)))
        assert out["obs"]["frames_written"] == 152
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "62a6aae49727ff3157fef3a3d810425bc838ff955d4fba81e5615ebb015cde60")

    def test_sampled_capture_records_fewer_request_spans(self):
        full, _ = capture_run(**self.CONFIG)
        thin, _ = capture_run(**self.CONFIG,
                              obs_config=ObsConfig(sample_rate=0.001))
        full_reqs = [s for s in full.tracer.spans if s.cat == "request"]
        thin_reqs = [s for s in thin.tracer.spans if s.cat == "request"]
        assert len(thin_reqs) < len(full_reqs)
        # era / election spans are never sampled away
        assert any(s.cat == "era" for s in thin.tracer.spans)

    def test_span_sketches_follow_the_sample_and_frames_do_not(self):
        # 20 requests on 10 replicas: one latency and ten prepare and
        # commit waits per traced request; the frames count every commit
        sketched = ("request.latency_s", "pbft.prepare_wait_s", "pbft.commit_wait_s")
        counts = {}
        for rate in (1.0, 0.5, 0.0):
            obs, _ = capture_run(protocol="pbft", n=10, submissions=20, seed=0,
                                 horizon_s=60.0, obs_config=ObsConfig(
                                     timeseries=True, sample_rate=rate))
            sketches = obs.snapshot()["sketches"]
            counts[rate] = [sketches[name]["count"] if name in sketches else None
                            for name in sketched]
            assert sum(frame["counters"]["commits"]
                       for frame in obs.timeseries.frames_tail) == 20
        assert counts == {1.0: [20, 200, 200], 0.5: [11, 110, 110],
                          0.0: [None, None, None]}


class TestValidateCli:
    def _frames_file(self, path):
        ts = Timeseries(window_s=5.0, path=str(path))
        for k in range(6):
            ts.submitted("z0", f"r{k}", 2.0 * k)
        ts.finish(12.0)

    def test_valid_frames_stream_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "frames.jsonl"
        self._frames_file(path)
        assert obs_main(["validate", str(path)]) == 0
        assert "valid jsonl (3 records)" in capsys.readouterr().out

    def test_malformed_line_exits_two_with_its_number(self, tmp_path, capsys):
        path = tmp_path / "frames.jsonl"
        self._frames_file(path)
        with open(path, "a") as fh:
            fh.write('{"schema":1,"window":3}\n')
        assert obs_main(["validate", str(path)]) == 2
        assert f"{path}:4:" in capsys.readouterr().err

    def test_non_json_line_exits_two_with_its_number(self, tmp_path, capsys):
        path = tmp_path / "frames.jsonl"
        self._frames_file(path)
        text = path.read_text().splitlines()
        text[1] = "{not json"
        path.write_text("\n".join(text) + "\n")
        assert obs_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2:" in err and "not JSON" in err

    def test_flight_dump_from_capture_validates(self, tmp_path, capsys):
        # a dump is one indented JSON object: it validates whole, as a dump
        dumps = tmp_path / "dumps"
        assert obs_main(["capture", "--protocol", "gpbft", "-n", "10",
                         "--submissions", "5", "--seed", "7", "--horizon", "40",
                         "--era-switch-at", "8", "--spans",
                         str(tmp_path / "spans.jsonl"), "--dump-dir", str(dumps),
                         "--dump"]) == 0
        path = dumps / "flight-000-on-demand.json"
        capsys.readouterr()
        assert obs_main(["validate", str(path)]) == 0
        assert "valid flight dump (159 ring events)" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        doc["rings"]["g0"].append({"kind": "no-at"})
        path.write_text(json.dumps(doc, indent=1))
        assert obs_main(["validate", str(path)]) == 2
        assert "dump ring 'g0' holds a malformed event" in capsys.readouterr().err

    def test_report_renders_a_frames_timeline(self, tmp_path, capsys):
        path = tmp_path / "frames.jsonl"
        self._frames_file(path)
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "window frames: 3" in out
        assert "z0" in out

    def test_report_on_a_flight_dump_names_the_format(self, tmp_path, capsys):
        # report and validate tell formats apart the same way: a dump
        # validates, and report says it has nothing to render
        dumps = tmp_path / "dumps"
        assert obs_main(["capture", "--protocol", "pbft", "-n", "4",
                         "--submissions", "1", "--horizon", "10",
                         "--spans", str(tmp_path / "spans.jsonl"),
                         "--dump-dir", str(dumps), "--dump"]) == 0
        path = dumps / "flight-000-on-demand.json"
        capsys.readouterr()
        assert obs_main(["validate", str(path)]) == 0
        assert obs_main(["report", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: a flight dump holds no spans\n")

    @pytest.mark.parametrize("command", ["report", "validate"])
    def test_an_empty_file_fails_alike_under_both(self, command, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert obs_main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:1: not JSON (Expecting value)\n")

    @pytest.mark.parametrize("command", ["report", "validate"])
    def test_a_non_json_file_is_named(self, command, tmp_path, capsys):
        path = tmp_path / "notes.txt"
        path.write_text("spans go here\n")
        assert obs_main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:1: not JSON (Expecting value)\n")

    @pytest.mark.parametrize("command", ["report", "validate"])
    def test_a_frame_in_a_span_dump_fails_alike_under_both(
            self, command, tmp_path, capsys):
        # the first line makes the file a span dump, so every line
        # must be a span
        frames = tmp_path / "frames.jsonl"
        self._frames_file(frames)
        span = {"sid": 0, "parent": -1, "name": "request", "cat": "request",
                "node": 0, "start": 1.0, "end": 2.0, "args": {}}
        path = tmp_path / "mixed.jsonl"
        path.write_text(json.dumps(span) + "\n"
                        + frames.read_text().splitlines()[0] + "\n")
        assert obs_main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: not a span row\n"
