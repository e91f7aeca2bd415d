"""Tests: metrics (latency, traffic, collector) and analysis models."""

import math

import pytest

from repro.metrics.models import (
    gpbft_consensus_seconds,
    gpbft_message_count,
    gpbft_traffic_bytes,
    pbft_consensus_seconds,
    pbft_message_count,
    pbft_phase_seconds,
    pbft_traffic_bytes,
    predicted_speedup,
    predicted_traffic_reduction,
    queueing_delay_factor,
    utilization,
)
from repro.common.errors import ConfigurationError
from repro.common.eventlog import EV_REQUEST_COMPLETED, EventLog
from repro.metrics.collector import (
    SweepResult,
    render_boxplot_rows,
    render_series,
    render_table,
)
from repro.metrics.latency import BoxplotStats


class TestBoxplotStats:
    def test_five_number_summary(self):
        stats = BoxplotStats.from_samples([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.minimum == 1.0
        assert stats.median == 3.0
        assert stats.maximum == 5.0
        assert stats.q1 == 2.0 and stats.q3 == 4.0
        assert stats.mean == 3.0
        assert stats.iqr == 2.0

    def test_outlier_detection(self):
        samples = [1.0, 1.1, 0.9, 1.0, 1.05, 8.0]
        stats = BoxplotStats.from_samples(samples)
        assert stats.outliers(samples) == [8.0]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            BoxplotStats.from_samples([])

    def test_latency_samples_from_events(self):
        log = EventLog()
        log.record(1.0, EV_REQUEST_COMPLETED, -1, "r1", 0.5)
        log.record(2.0, EV_REQUEST_COMPLETED, -1, "r2", 0.7)
        log.record(3.0, "other")
        stats = BoxplotStats.from_samples(
            event.data["latency"] for event in log.of_kind(EV_REQUEST_COMPLETED))
        assert stats.count == 2 and stats.median == pytest.approx(0.6)


class TestSweepResult:
    def _sweep(self):
        result = SweepResult("PBFT", "nodes", "latency (s)")
        result.add(4, [1.0, 1.2])
        result.add(10, [3.0, 3.5])
        return result

    def test_means_and_lookup(self):
        sweep = self._sweep()
        assert sweep.xs == [4.0, 10.0]
        assert sweep.mean_at(4) == pytest.approx(1.1)
        with pytest.raises(ConfigurationError):
            sweep.mean_at(99)

    def test_monotonic_x_enforced(self):
        sweep = self._sweep()
        with pytest.raises(ConfigurationError):
            sweep.add(5, [1.0])

    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepResult("x", "a", "b").add(1, [])

    def test_renders(self):
        sweep = self._sweep()
        series = render_series(sweep)
        assert "PBFT" in series and "#" in series
        rows = render_boxplot_rows(sweep)
        assert "median" in rows
        table = render_table(["a", "b"], [["1", "2"]], title="T")
        assert table.splitlines()[0] == "T"


class TestAnalysisModels:
    def test_phase_time_matches_paper_formula(self):
        # section IV-B: (2 * n) / (3 * s)
        assert pbft_phase_seconds(202, 10.0) == pytest.approx(2 * 202 / 30)

    def test_consensus_latency_monotonic_in_n(self):
        values = [pbft_consensus_seconds(n, 10.0) for n in (4, 40, 100, 202)]
        assert values == sorted(values)

    def test_gpbft_caps_at_committee(self):
        assert gpbft_consensus_seconds(202, 40, 10.0) == pbft_consensus_seconds(40, 10.0)
        assert gpbft_consensus_seconds(20, 40, 10.0) == pbft_consensus_seconds(20, 10.0)

    def test_message_count_quadratic(self):
        n = 202
        count = pbft_message_count(n)
        assert count == 1 + (n - 1) + (n - 1) ** 2 + n * (n - 1) + n
        # quadratic dominance
        assert count / pbft_message_count(101) > 3.5

    def test_traffic_matches_table3_order(self):
        kb = pbft_traffic_bytes(202) / 1024
        assert 8000 < kb < 9200  # paper: 8571.32
        gkb = gpbft_traffic_bytes(202, 40) / 1024
        assert 300 < gkb < 420  # paper: 380.29

    def test_predicted_speedup_and_reduction(self):
        assert predicted_speedup(202, 40) == pytest.approx(202 / 40)
        assert predicted_traffic_reduction(202, 40) == pytest.approx((40 / 202) ** 2)
        # below the cap there is no gain
        assert predicted_speedup(20, 40) == 1.0

    def test_utilization_and_queueing(self):
        rho = utilization(202, 10.0, 9000.0)
        assert rho == pytest.approx(2 * 202 * 202 / (9000 * 10))
        assert queueing_delay_factor(0.0) == 1.0
        assert queueing_delay_factor(0.9) > 5.0
        assert math.isinf(queueing_delay_factor(1.0))

    def test_loaded_latency_model(self):
        from repro.metrics.models import predicted_loaded_latency

        # light load ~ unloaded; saturation -> infinity
        light = predicted_loaded_latency(40, 10.0, 1e9)
        assert light == pytest.approx(pbft_consensus_seconds(40, 10.0))
        loaded = predicted_loaded_latency(94, 10.0, 4000.0)
        assert loaded > light
        assert math.isinf(predicted_loaded_latency(202, 10.0, 4000.0))

    def test_loaded_latency_tracks_simulation(self):
        from repro.metrics.models import predicted_loaded_latency
        from repro.experiments.engine import PointSpec, run_point

        # mid-utilisation point: model within ~2x of measurement
        n, R = 40, 1200.0
        measured = run_point(PointSpec.make(
            "pbft", "latency", n, seed=2, proposal_period_s=R,
            measured=4, warmup=2))
        mean = sum(measured) / len(measured)
        predicted = predicted_loaded_latency(n, 10.0, R, propagation_s=0.0125)
        assert 0.4 < mean / predicted < 2.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            pbft_phase_seconds(3, 10.0)
        with pytest.raises(ConfigurationError):
            pbft_phase_seconds(10, 0.0)
        with pytest.raises(ConfigurationError):
            queueing_delay_factor(-0.1)
        with pytest.raises(ConfigurationError):
            utilization(10, 1.0, 0.0)


def _one_request_traffic(protocol, n):
    """A fault-free single request at constant latency, run to rest;
    returns the network's counters and whether the submitter (the last
    member) is an endorser."""
    from repro.experiments import scenario
    from repro.net.latency import ConstantLatency

    host = scenario.topology(protocol, n, scenario.experiment_config(0, 40)).build()
    host.network.latency = ConstantLatency(0.01)
    scenario.submit(host, protocol, "oracle", 0, -1, None)
    scenario.run(host.sim, 10_000.0)
    assert host.events.count(EV_REQUEST_COMPLETED) == 1
    endorser = protocol == "gpbft" and max(host.nodes) in host.committee
    return host.network.stats, endorser


class TestModelIsTheOracle:
    """The section IV closed forms against the simulator's own counters."""

    @pytest.mark.parametrize("n", [4, 7, 13, 40, 58])
    def test_pbft_traffic_is_the_model_exactly(self, n):
        stats, _ = _one_request_traffic("pbft", n)
        assert (stats.messages_sent, stats.bytes_sent) == (
            pbft_message_count(n), pbft_traffic_bytes(n))

    @pytest.mark.parametrize("n", [4, 7, 13, 40, 58])
    def test_gpbft_traffic_is_the_model_plus_its_named_residual(self, n):
        from repro.experiments.scenario import TX_BYTES
        from repro.metrics.models import REPLY_BYTES, REQUEST_OVERHEAD_BYTES

        stats, endorser = _one_request_traffic("gpbft", n)
        # a device's request takes one forwarding hop to its endorser; an
        # endorser that submits hands its own reply over locally
        hops, local = (0, 1) if endorser else (1, 0)
        assert endorser is (n <= 40)
        assert (stats.messages_sent, stats.bytes_sent) == (
            gpbft_message_count(n, 40) + hops - local,
            gpbft_traffic_bytes(n, 40) + hops * (REQUEST_OVERHEAD_BYTES + TX_BYTES)
            - local * REPLY_BYTES)
