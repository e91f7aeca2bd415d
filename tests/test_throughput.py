"""Tests: throughput metrics (repro.metrics.throughput)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.eventlog import EV_REQUEST_COMPLETED, EV_REQUEST_SUBMITTED, EV_TX_COMMITTED, EventLog
from repro.metrics.throughput import ThroughputSample, throughput_from_events


class TestThroughputSample:
    def test_tps(self):
        sample = ThroughputSample(committed=50, window_s=10.0, offered=50)
        assert sample.tps == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ThroughputSample(committed=1, window_s=0.0, offered=1)
        with pytest.raises(ConfigurationError):
            ThroughputSample(committed=-1, window_s=1.0, offered=0)


class TestFromEvents:
    def _log(self):
        log = EventLog()
        for t in range(20):
            log.record(float(t), EV_REQUEST_SUBMITTED, request_id=str(t))
            log.record(t + 0.5, EV_REQUEST_COMPLETED, request_id=str(t), latency=0.5)
        return log

    def test_window_counts(self):
        sample = throughput_from_events(self._log(), start=5.0, end=15.0)
        assert sample.offered == 10
        assert sample.committed == 10
        assert sample.tps == pytest.approx(1.0)

    def test_window_excludes_outside(self):
        sample = throughput_from_events(self._log(), start=0.0, end=1.0)
        assert sample.offered == 1
        assert sample.committed == 1  # the 0.5 completion

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            throughput_from_events(self._log(), start=5.0, end=5.0)

    def test_custom_kinds(self):
        log = EventLog()
        log.record(1.0, EV_TX_COMMITTED, tx_id="a")
        sample = throughput_from_events(log, 0.0, 10.0, commit_kind=EV_TX_COMMITTED)
        assert sample.committed == 1
