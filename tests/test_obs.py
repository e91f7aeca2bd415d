"""Tests for the observability layer (``repro.obs``).

Covers the three pillars (spans, instruments, export/report), the
zero-overhead guarantee (an attached observer must not perturb the
event schedule), byte-identical exports for same-seed captures, the
shared network tap, and a golden per-phase breakdown for one fixed
n=10 G-PBFT scenario.
"""

# gpb: allow-file GPB004 -- exact asserts on span timestamps taken from the simulated clock (exact by construction)

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.common.config import (
    ElectionConfig, EraConfig, GPBFTConfig, PBFTConfig, TopologySpec,
)
from repro.common.eventlog import EV_PBFT_STATE_TRANSFER
from repro.experiments import scenario
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.obs.capture import capture_run
from repro.obs.core import Observability
from repro.obs.export import (
    chrome_trace,
    load_spans,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.instruments import Counter, Gauge, Registry
from repro.obs.obsconfig import ObsConfig
from repro.obs.report import (
    PHASES, RequestPhases, _kth, attribute_phases, era_timeline, phase_table,
    render_report,
)
from repro.obs.spans import ObservabilityError, Tracer
from repro.obs.timeseries import (
    FRAME_COUNTERS, FRAME_SCHEMA, QuantileSketch, validate_frame,
)


class TestTracer:
    def test_open_close_records_interval(self):
        tracer = Tracer()
        tracer.open("a", "work", at=1.0)
        span = tracer.close("a", at=3.5)
        assert span is not None
        assert span.start == 1.0 and span.end == 3.5
        assert span.duration == pytest.approx(2.5)
        assert tracer.spans == [span]

    def test_duplicate_open_is_noop_first_wins(self):
        tracer = Tracer()
        first = tracer.open("k", "one", at=1.0)
        assert tracer.open("k", "two", at=2.0) is None
        span = tracer.close("k", at=3.0)
        assert span is first and span.name == "one"

    def test_close_unknown_key_returns_none(self):
        assert Tracer().close("ghost") is None

    def test_parent_child_nesting(self):
        tracer = Tracer()
        parent = tracer.open("req", "request", at=0.0)
        child = tracer.open("phase", "prepare", parent_key="req", at=0.5)
        assert child.parent == parent.sid
        orphan = tracer.open("other", "x", parent_key="missing", at=0.6)
        assert orphan.parent == -1

    def test_sids_increment_in_open_order(self):
        tracer = Tracer()
        a = tracer.open("a", "a", at=0.0)
        b = tracer.open("b", "b", at=0.0)
        inst = tracer.instant("i", at=0.0)
        assert (a.sid, b.sid, inst.sid) == (0, 1, 2)

    def test_bound_clock_supplies_timestamps(self):
        tracer = Tracer()
        now = {"t": 7.0}
        tracer.bind_clock(lambda: now["t"])
        tracer.open("k", "work")
        now["t"] = 9.0
        span = tracer.close("k")
        assert (span.start, span.end) == (7.0, 9.0)

    def test_finish_flags_unclosed_spans(self):
        tracer = Tracer()
        tracer.open("b", "late", at=1.0)
        tracer.open("a", "late2", at=2.0)
        tracer.finish(at=10.0)
        assert len(tracer.spans) == 2
        assert all(s.args.get("unclosed") for s in tracer.spans)
        assert all(s.end == 10.0 for s in tracer.spans)


class TestInstruments:
    def test_counter_children_roll_up(self):
        c = Counter("net.messages")
        c.child("prepare").inc()
        c.child("commit").inc(2)
        assert c.value == 3
        snap = c.snapshot()
        assert snap == {"total": 3, "children": {"commit": 2, "prepare": 1}}

    def test_counter_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            Counter("c").inc(-1)

    def test_gauge_keeps_last_value(self):
        g = Gauge("depth")
        g.set(3.0)
        g.set(1.0)
        assert g.snapshot() == {"value": 1.0}

    def test_registry_get_or_create_and_kind_clash(self):
        reg = Registry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")
        with pytest.raises(ObservabilityError, match="already exists as a counter"):
            reg.sketch("x")

    def test_sketch_is_get_or_create(self):
        reg = Registry()
        sketch = reg.sketch("wait")
        assert isinstance(sketch, QuantileSketch)
        assert reg.sketch("wait") is sketch

    def test_snapshot_sketches_are_frame_latency_summaries(self):
        # a sketch snapshots as exactly what a frame's ``latency`` holds
        reg = Registry()
        for value in (0.5, 12.0, 300.0):
            reg.sketch("wait").observe(value)
        reg.sketch("untouched")
        summary = reg.snapshot()["sketches"]["wait"]
        assert summary == reg.sketch("wait").summary()
        assert set(summary) == {"count", "sum", "min", "max", "p50", "p95", "p99"}
        validate_frame({"schema": FRAME_SCHEMA, "window": 0, "start": 0.0,
                        "end": 1.0, "zone": "all", "gauges": {},
                        "counters": dict.fromkeys(FRAME_COUNTERS, 0),
                        "latency": summary})
        # a sketch with no observation has no summary to show yet
        assert "untouched" not in reg.snapshot()["sketches"]

    def test_snapshot_is_sorted_and_json_stable(self):
        reg = Registry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        reg.gauge("g").set(1.5)
        reg.sketch("h").observe(0.5)
        one = json.dumps(reg.snapshot(), sort_keys=True)
        two = json.dumps(reg.snapshot(), sort_keys=True)
        assert one == two
        assert list(reg.snapshot()["counters"]) == ["a", "b"]


class TestObsReadsTrafficStats:
    """``TrafficStats`` counts the bytes; observability only reads them."""

    def _net(self):
        sim = Simulator()
        net = SimulatedNetwork(sim)
        for node in range(3):
            net.register(node, lambda payload: None)
        return sim, net

    def test_bind_leaves_send_alone(self):
        sim, net = self._net()
        Observability().bind(sim, net)
        assert "send" not in vars(net)

    def test_mid_run_snapshot_equals_the_stats_per_kind(self):
        from repro.net.message import RawPayload
        from repro.pbft.cluster import charge_state_transfer

        sim, net = self._net()
        obs = Observability()
        obs.bind(sim, net)
        net.send(0, 1, RawPayload("a.x", 10))
        net.multicast(0, [0, 1, 2], RawPayload("a.y", 100))
        assert net.stats.bytes_sent == 10 + 2 * 100
        # a modelled transfer is charged straight to the stats: no ``send``
        charge_state_transfer(net.stats, 1, 2, n_ops=3)
        for _ in range(2):  # reading twice must not count twice
            counters = obs.snapshot()["counters"]
            assert counters["net.messages_sent"] == {
                "total": net.stats.messages_sent,
                "children": dict(sorted(net.stats.messages_by_kind.items()))}
            assert counters["net.bytes_sent"] == {
                "total": net.stats.bytes_sent,
                "children": dict(sorted(net.stats.bytes_by_kind.items()))}
        assert EV_PBFT_STATE_TRANSFER in counters["net.bytes_sent"]["children"]
        sim.run()
        obs.finish()
        assert (obs.registry.snapshot()["counters"]["net.bytes_sent"]["total"]
                == net.stats.bytes_sent)


class TestZeroOverhead:
    """An attached observer must not change the event schedule."""

    def _run(self, obs):
        base = GPBFTConfig()
        config = base.replace(network=replace(base.network, seed=7))
        dep = TopologySpec.single(10, config=config, seed=7, start_reports=False).build(obs=obs)
        ids = sorted(dep.nodes)
        for k in range(5):
            dep.sim.schedule_at(1.0 + 0.75 * k, dep.submit_from,
                                ids[k % len(ids)])
        dep.sim.schedule_at(8.0, dep.force_era_switch)
        dep.sim.run(until=40.0)
        return dep

    def test_schedule_identical_with_and_without_obs(self):
        plain = self._run(None)
        traced = self._run(Observability())
        assert plain.sim.events_processed == traced.sim.events_processed
        assert [(e.at, e.kind, e.node) for e in plain.events] == \
               [(e.at, e.kind, e.node) for e in traced.events]


class TestExport:
    def _spans(self):
        tracer = Tracer()
        tracer.open("req", "request", cat="request", node=1, at=1.0,
                    request_id="r1", committee_size=4)
        tracer.open("p", "prepare", cat="phase", node=2, parent_key="req",
                    at=1.2, request_id="r1")
        tracer.close("p", at=1.5)
        tracer.close("req", at=2.0)
        return tracer.spans

    def test_chrome_trace_schema_is_valid(self):
        doc = chrome_trace(self._spans())
        validate_chrome_trace(doc)
        ev = doc["traceEvents"][0]
        assert ev["ph"] == "X" and ev["ts"] == pytest.approx(1.2e6)
        assert ev["dur"] == pytest.approx(0.3e6)
        assert ev["tid"] == 2 and ev["pid"] == 0

    def test_validate_rejects_malformed_docs(self):
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "x"}]})
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "ts": 0, "pid": 0, "tid": 0,
                 "dur": -1}]})

    def test_roundtrip_both_formats(self, tmp_path):
        spans = self._spans()
        chrome = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        write_chrome_trace(spans, chrome)
        write_spans_jsonl(spans, jsonl)
        assert load_spans(jsonl) == spans
        # Chrome times are microsecond floats, and the end comes back as
        # ts + dur: every field but the times survives exactly
        loaded = load_spans(chrome)
        assert [replace(s, start=0.0, end=0.0) for s in loaded] == \
               [replace(s, start=0.0, end=0.0) for s in spans]
        for got, want in zip(loaded, spans):
            assert (got.start, got.end) == pytest.approx((want.start, want.end))

    def test_same_seed_exports_identical_bytes(self, tmp_path):
        files = []
        for i in (0, 1):
            cap, _ = capture_run(protocol="gpbft", n=10, submissions=3,
                              seed=5, horizon_s=20.0)
            chrome = tmp_path / f"c{i}.json"
            jsonl = tmp_path / f"s{i}.jsonl"
            write_chrome_trace(cap.tracer.spans, chrome)
            write_spans_jsonl(cap.tracer.spans, jsonl)
            files.append((chrome.read_bytes(), jsonl.read_bytes(),
                          json.dumps(cap.snapshot(), sort_keys=True)))
        assert files[0] == files[1]


class TestReport:
    def test_percentile_nearest_rank(self):
        # a cell's p50/p95/p99 are what a QuantileSketch of its values
        # reports, the summary a window frame carries
        values = [v / 1e3 for v in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)]
        rows = [RequestPhases(f"r{k}", 4, dict.fromkeys(PHASES, v), 2 * v)
                for k, v in enumerate(values)]
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        summary = sketch.summary()
        expected = [f"{summary[q] * 1e3:.2f}" for q in ("p50", "p95", "p99")]
        lines = phase_table(rows).splitlines()
        for line in lines[2:-1]:
            assert line.split()[-3:] == expected
        # the exact nearest ranks are 8 and 89 ms; the sketch reports its
        # bucket's upper edge, at most 10 % above
        assert expected == ["8.02", "95.56", "95.56"]
        # the f + 1 milestones stay exact order statistics
        assert _kth([3.0, 1.0, 2.0], 2) == 2.0
        assert _kth([3.0], 2) is None

    def test_golden_phase_breakdown_n10(self):
        """Golden: fixed n=10 G-PBFT scenario, seed 7, era switch at t=8.

        Pinned against the same determinism contract as the golden
        fingerprints: any change to message layout, timers, or span
        instrumentation shows up here.
        """
        cap, _ = capture_run(protocol="gpbft", n=10, submissions=5, seed=7,
                          horizon_s=40.0, era_switch_at=8.0)
        assert len(cap.tracer.spans) == 156
        breakdowns = attribute_phases(cap.tracer.spans)
        assert len(breakdowns) == 6  # 5 submissions + the era-switch op
        assert all(b.committee_size == 10 for b in breakdowns)
        first = breakdowns[0]
        assert first.phases["pre-prepare"] == pytest.approx(0.111251, abs=1e-5)
        assert first.phases["prepare"] == pytest.approx(0.510786, abs=1e-5)
        assert first.phases["commit"] == pytest.approx(0.9, abs=1e-5)
        assert first.phases["reply"] == pytest.approx(0.998361, abs=1e-5)
        assert first.total == pytest.approx(2.520398, abs=1e-5)
        timeline = era_timeline(cap.tracer.spans)
        assert len(timeline) == 1
        assert timeline[0]["era"] == 1
        assert timeline[0]["nodes"] == 10
        assert timeline[0]["downtime_s"] == pytest.approx(1.428868, abs=1e-5)
        snap = cap.snapshot()
        assert snap["counters"]["net.messages_sent"]["total"] == 1417
        sketches = snap["sketches"]
        assert sketches["era.switch_downtime_s"]["count"] == 10
        prepares = sketches["pbft.prepare_wait_s"]["count"]
        commits = sketches["pbft.commit_wait_s"]["count"]
        assert prepares + commits == 140

    def test_render_report_has_phase_table_and_era_line(self):
        cap, _ = capture_run(protocol="gpbft", n=10, submissions=3, seed=2,
                          horizon_s=30.0, era_switch_at=6.0)
        text = render_report(cap.tracer.spans)
        for needle in ("pre-prepare", "prepare", "commit", "reply",
                       "p50 ms", "era switches:", "era 1:"):
            assert needle in text, f"missing {needle!r} in report"

    def test_report_without_era_switches_says_so(self):
        cap, _ = capture_run(protocol="pbft", n=4, submissions=2, seed=0,
                          horizon_s=15.0)
        assert "era switches: none recorded" in render_report(cap.tracer.spans)


def _pin_config(seed: int, **fields) -> GPBFTConfig:
    base = GPBFTConfig()
    return base.replace(network=replace(base.network, seed=seed), **fields)


def _pin_pbft(obs):
    """A 7-replica cluster, two clients, six requests."""
    host = TopologySpec.cluster(7, n_clients=2, config=_pin_config(3)).build(obs=obs)
    for k in range(6):
        scenario.submit(host, "pbft", "pin", k, k % 2, 1.0 + 0.5 * k)
    host.sim.run(until=30.0)


def _pin_gpbft(obs, switches=(9.0,)):
    """14 nodes, 4 endorsers: fast elections add ten, plus forced switches."""
    config = _pin_config(4, era=EraConfig(period_s=15.0), election=ElectionConfig(
        stationary_hours=0.003, report_interval_s=3.0, min_reports=1,
        audit_window_s=60.0))
    host = TopologySpec.single(14, 4, config=config, seed=4).build(obs=obs)
    ids = sorted(host.nodes)
    for k in range(8):
        host.sim.schedule_at(1.0 + 2.0 * k, host.submit_from, ids[k % len(ids)])
    for at in switches:
        host.sim.schedule_at(at, host.force_era_switch)
    host.sim.run(until=70.0)


def _pin_zoned(obs):
    """Two zones of five: inter-zone and zone-local traffic interleaved."""
    host = TopologySpec.zoned(2, 5, config=_pin_config(5), seed=5,
                              start_reports=False).build(obs=obs)
    ids = sorted(host.nodes)
    for k in range(6):
        host.sim.schedule_at(1.0 + 0.75 * k, host.submit_xzone, ids[k % len(ids)])
        host.sim.schedule_at(1.3 + 0.75 * k, host.submit_from, ids[(k + 3) % len(ids)])
    host.sim.run(until=40.0)


def _pin_crash(obs):
    """A backup misses checkpoints (state transfer), then the primary dies."""
    config = _pin_config(6, pbft=PBFTConfig(
        checkpoint_interval=4, watermark_window=8, view_change_timeout_s=6.0,
        request_retry_timeout_s=4.0))
    host = TopologySpec.cluster(7, config=config).build(obs=obs)
    host.sim.schedule_at(0.5, host.network.set_offline, 6, True)
    host.sim.schedule_at(7.0, host.network.set_offline, 6, False)
    host.sim.schedule_at(8.0, host.network.set_offline, 0, True)
    for k in range(16):
        scenario.submit(host, "pbft", "crash", k, 0, 1.0 + 0.75 * k)
    host.sim.run(until=60.0)


#: SHA-256 of (spans JSONL, instrument snapshot, window frames) per
#: capture; every protocol fact obs records shows up in one of them.
CAPTURE_PINS = {
    "pbft": (_pin_pbft, (
        "47063197af2d146de5e5e097aac6422b6ee0280a7873e2d63be355ff8e652cf1",
        "4d95debc91a49cca6e19334ac750ee9f053786f46bdb080587f0a6715ca3b32a",
        "a498c2940dcbab1ae3e268fb84097e771b4db3e81ec0dd7b4484a56bfaddac32")),
    "gpbft": (_pin_gpbft, (
        "053b591ea88d59fc21c8bfbaedf37711a1ca36412290582b0e69388440b083a4",
        "8e68f5e5975db9e72e70533d7562fe6cfceb692a4c295e7fc38743ef9633eb37",
        "3f0ab535e3924dc68cd3d855c298599139db75d394cd77bfff64f22e8a094776")),
    "zoned": (_pin_zoned, (
        "326ad2d1c9ffb5ab2b6c926d341d31c286de0f22431706c886cec2f6df3ae8fb",
        "fdc853bb04a6fc2f279a05e587cea2de31a547701e5ad45fe6233f93a1f7e19f",
        "afd8eb1a04db82c6325fc7ba1e6b052dfb9c95c2e7a9b55d80cd6c686d1d10ff")),
    "crash": (_pin_crash, (
        "28c269816e039afb5eb102820632f4e6f7b55fc1b4e845c0d52396fd56de18ec",
        "22f8a99d17bc238679755007c5e349f238bec1b896b5626890a7427d90a1c4e3",
        "38b3da326ddc6f40da0ecf3a4c84243478bae8e76cb1344eaebb8c555eed7c0f")),
}


@pytest.mark.parametrize("name", sorted(CAPTURE_PINS))
def test_capture_outputs_are_pinned(name, tmp_path):
    build, expected = CAPTURE_PINS[name]
    obs = Observability(ObsConfig(timeseries=True, window_s=5.0))
    build(obs)
    obs.finish()
    spans = tmp_path / "spans.jsonl"
    write_spans_jsonl(obs.tracer.spans, spans)
    digests = [hashlib.sha256(blob).hexdigest() for blob in (
        spans.read_bytes(),
        json.dumps(obs.snapshot(), sort_keys=True).encode(),
        json.dumps(list(obs.timeseries.frames_tail), sort_keys=True).encode())]
    assert tuple(digests) == expected


def test_era_spans_name_the_era_each_node_enters():
    # the ten endorsers elected into era 2 adopt it from committee
    # announcements, without a switch of their own; their first switch
    # is into era 3, and their spans must say so
    obs = Observability()
    _pin_gpbft(obs, switches=(9.0, 40.0))
    obs.finish()
    eras = {}
    for span in obs.tracer.spans:
        if span.name == "era-switch":
            eras.setdefault(span.node, []).append(span.args["era"])
    assert eras == {node: [1, 2, 3] if node < 4 else [3] for node in range(14)}
    assert [(row["era"], row["nodes"]) for row in era_timeline(obs.tracer.spans)] == [
        (1, 4), (2, 4), (3, 14)]


class TestCli:
    def test_capture_report_validate_pipeline(self, tmp_path, capsys):
        from repro.obs.cli import main

        trace = tmp_path / "trace.json"
        spans = tmp_path / "spans.jsonl"
        metrics = tmp_path / "metrics.json"
        rc = main(["capture", "--protocol", "gpbft", "-n", "10",
                   "--submissions", "3", "--seed", "2", "--horizon", "30",
                   "--era-switch-at", "6",
                   "--trace", str(trace), "--spans", str(spans),
                   "--metrics", str(metrics)])
        assert rc == 0
        assert main(["validate", str(trace)]) == 0
        assert main(["report", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "era 1:" in out and "p50 ms" in out
        snapshot = json.loads(metrics.read_text())
        assert set(snapshot) == {"counters", "gauges", "sketches"}
        assert snapshot["gauges"]["sim.events_processed"]["value"] > 0

    def test_validate_rejects_non_trace_json(self, tmp_path):
        from repro.obs.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert main(["validate", str(bad)]) == 2
