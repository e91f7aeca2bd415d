"""Tests: the experiment harness (small, fast configurations).

These validate the *machinery* behind every figure/table: that points
measure what they claim, sweeps have the right shape, and the rendered
reports carry the paper's comparisons.  The full-scale reproduction runs
live in ``benchmarks/``.
"""

# gpb: allow-file GPB004 -- exact asserts that cached sweep results replay bit-identically (the cache contract under test)

import json
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError, ConsensusError
from repro.experiments.engine import PointSpec, _execute_point, run_point
from repro.experiments.profiles import PAPER, QUICK, active_profile
from repro.experiments.runner import latency_sweep, traffic_sweep
from repro.experiments.tables import table2
from repro.metrics.models import pbft_traffic_bytes
from repro.verify.explorer import generate_schedule, schedule_spec

PAPER_RESULTS = Path(__file__).resolve().parents[1] / "results" / "paper_results.json"


def _latency(protocol, n, seed, period, measured, warmup, **params):
    """One latency point through the unified dispatch."""
    return run_point(PointSpec.make(
        protocol, "latency", n, seed, proposal_period_s=period,
        measured=measured, warmup=warmup, **params))


def _traffic(protocol, n, **params):
    """One traffic point through the unified dispatch."""
    return run_point(PointSpec.make(protocol, "traffic", n, **params))


class TestProfiles:
    def test_default_profile_is_quick(self, monkeypatch):
        monkeypatch.delenv("GPBFT_BENCH_PROFILE", raising=False)
        assert active_profile().name == "quick"

    def test_env_selects_paper(self, monkeypatch):
        monkeypatch.setenv("GPBFT_BENCH_PROFILE", "paper")
        assert active_profile() is PAPER

    def test_unknown_profile_rejected(self, monkeypatch):
        monkeypatch.setenv("GPBFT_BENCH_PROFILE", "bogus")
        with pytest.raises(ConfigurationError):
            active_profile()

    def test_paper_profile_matches_section_v(self):
        assert PAPER.headline_n == 202
        assert PAPER.reps == 10
        assert PAPER.max_endorsers == 40
        assert max(PAPER.latency_node_counts) == 202


class TestLatencyPoints:
    def test_pbft_point_returns_measured_count(self):
        lat = _latency("pbft", 4, 1, 600.0, measured=3, warmup=1)
        assert len(lat) == 3
        assert all(x > 0 for x in lat)

    def test_pbft_latency_grows_with_n(self):
        small = _latency("pbft", 4, 1, 600.0, 2, 1)
        big = _latency("pbft", 16, 1, 600.0, 2, 1)
        assert sum(big) / len(big) > sum(small) / len(small)

    def test_gpbft_point_capped_committee(self):
        lat_small = _latency("gpbft", 8, 1, 600.0, 2, 1, max_endorsers=8)
        lat_big = _latency("gpbft", 24, 1, 600.0, 2, 1, max_endorsers=8)
        # 3x the nodes, same committee: similar latency
        mean_small = sum(lat_small) / len(lat_small)
        mean_big = sum(lat_big) / len(lat_big)
        assert mean_big < mean_small * 1.6

    def test_era_switch_produces_outlier(self):
        plain = _latency("gpbft", 12, 3, 600.0, 4, 0, max_endorsers=8)
        bumped = _latency("gpbft", 12, 3, 600.0, 4, 0, max_endorsers=8,
                          era_switch_at_tx=2)
        assert max(bumped) > max(plain)

    def test_deterministic_given_seed(self):
        a = _latency("pbft", 4, 7, 600.0, 2, 1)
        b = _latency("pbft", 4, 7, 600.0, 2, 1)
        assert a == b


class TestTrafficPoints:
    def test_pbft_traffic_matches_closed_form(self):
        measured_kb = _traffic("pbft", 10)
        predicted_kb = pbft_traffic_bytes(10) / 1024
        assert measured_kb == pytest.approx(predicted_kb, rel=0.15)

    def test_pbft_traffic_quadratic_growth(self):
        kb4 = _traffic("pbft", 4)
        kb16 = _traffic("pbft", 16)
        assert kb16 / kb4 > 8  # ~ (16/4)^2 with lower-order terms

    def test_gpbft_traffic_bounded_by_committee(self):
        kb_small = _traffic("gpbft", 10, max_endorsers=8)
        kb_big = _traffic("gpbft", 40, max_endorsers=8)
        assert kb_big < kb_small * 1.5

    def test_gpbft_cheaper_than_pbft_past_cap(self):
        assert _traffic("gpbft", 30, max_endorsers=8) < _traffic("pbft", 30) / 4


class TestSweeps:
    def test_latency_sweep_shape(self):
        sweep = latency_sweep("pbft", [4, 7], reps=1, proposal_period_s=600.0,
                              measured=2, warmup=1)
        assert sweep.xs == [4.0, 7.0]
        assert sweep.name == "PBFT"
        assert all(p.samples for p in sweep.points)

    def test_traffic_sweep_shape(self):
        sweep = traffic_sweep("gpbft", [4, 8, 12], max_endorsers=8)
        assert sweep.xs == [4.0, 8.0, 12.0]
        # capped: the 12-node point is not much above the 8-node point
        assert sweep.mean_at(12) < sweep.mean_at(8) * 1.5

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConsensusError):
            latency_sweep("raft", [4], 1, 600.0, 1, 0)
        with pytest.raises(ConsensusError):
            traffic_sweep("raft", [4])


class TestTable2:
    def test_timer_accumulates_like_paper(self):
        result = table2()
        timers = result.values["timers"]
        assert timers[0] == 0.0
        assert timers == sorted(timers)
        # the paper's final row: 18:56:04 of accumulated stationarity
        assert result.values["final_timer_s"] == pytest.approx(
            18 * 3600 + 56 * 60 + 4
        )

    def test_rendering_has_header(self):
        text = table2().text
        assert "CSC" in text and "geographic timer" in text.lower()


def _recorded(kind: str, max_n: float = float("inf")):
    """``(protocol, n, samples)`` of every recorded paper point up to *max_n*."""
    data = json.loads(PAPER_RESULTS.read_text())[kind]
    return [(protocol, int(point["x"]), point["samples"])
            for protocol in ("pbft", "gpbft")
            for point in data[protocol]["points"] if point["x"] <= max_n]


class TestPaperResultsRecompute:
    """The cheap half of ``results/paper_results.json``, at full precision."""

    def test_every_traffic_point(self):
        mismatches = []
        for protocol, n, samples in _recorded("traffic"):
            extra = {"max_endorsers": PAPER.max_endorsers} if protocol == "gpbft" else {}
            value = run_point(PointSpec.make(protocol, "traffic", n, 0, **extra))
            if [value] != samples:
                mismatches.append((protocol, n, value, samples))
        assert mismatches == []

    def test_latency_points_up_to_40_nodes(self):
        mismatches = []
        for protocol, n, samples in _recorded("latency", max_n=40):
            reps = len(samples) // PAPER.measured_txs
            got = []
            for rep in range(reps):
                got.extend(run_point(PointSpec.make(
                    protocol, "latency", n, 1000 * n + rep,
                    **PAPER.latency_point_kwargs(protocol))))
            if got != samples:
                mismatches.append((protocol, n))
        assert mismatches == []


#: One smoke-size point per (protocol, kind) pair the tests above leave
#: out, pinned to its value and the simulator event count the engine
#: reports for it.
PINNED = [
    (PointSpec.make("pbft", "tps", 16, 5, offered_interval_s=1.0, horizon_s=80.0),
     0.296875, 13141),
    (PointSpec.make("gpbft", "tps", 16, 5, offered_interval_s=1.0, horizon_s=80.0,
                    max_endorsers=8),
     0.609375, 6813),
    (PointSpec.make("gpbft", "era-churn", 5.0, 0, horizon_s=100.0,
                    offered_interval_s=3.0),
     9.163030237014087, 16240),
    (schedule_spec(generate_schedule("pbft", 7, 2, submissions=4, horizon_s=60.0)),
     {"events": 380, "executed": 25, "fingerprint": "765a0635cbc029aa",
      "ok": True, "violation": None}, 380),
    (schedule_spec(generate_schedule("gpbft", 8, 0, submissions=4, horizon_s=60.0,
                                     zones=2)),
     {"events": 351, "executed": 8, "fingerprint": "69f361e6613544ef",
      "ok": True, "violation": None}, 351),
    (PointSpec.make("gpbft", "pack", 16, 0, pack="regional_blackout"),
     {"blackout_lost": 1, "commit_rate": 0.8571428571428571, "committed": 6,
      "era_switches": 0, "recovered_commits": 2, "submitted": 7,
      "violation": None}, 932),
    (PointSpec.make("gpbft", "agg", 120, 0, zones=2, duration_s=60.0,
                    drain_slack_s=600.0),
     {"completed": 124, "events": 4798, "offered": 124, "pool_size": 4,
      "profile": "diurnal", "sim_now_s": 60.0, "workload": "aggregate",
      "zones": 2}, 4798),
]


@pytest.mark.parametrize("spec,value,events", PINNED,
                         ids=[f"{spec.protocol}-{spec.kind}" for spec, _, _ in PINNED])
def test_pinned_smoke_point(spec, value, events):
    got, _wall, got_events = _execute_point(spec)
    assert (got, got_events) == (value, events)
