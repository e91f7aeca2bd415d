"""Measurement utilities for the evaluation harness.

* :mod:`repro.metrics.latency` -- consensus-latency samples and the
  boxplot statistics Figure 3 plots (min / Q1 / median / Q3 / max);
* :mod:`repro.metrics.collector` -- experiment result containers and
  text rendering (tables, ASCII series).
"""

from repro.metrics.latency import BoxplotStats, LatencySamples
from repro.metrics.collector import SweepResult, SweepPoint, render_table, render_series
from repro.metrics.throughput import ThroughputSample, throughput_from_events

__all__ = [
    "BoxplotStats",
    "LatencySamples",
    "SweepResult",
    "SweepPoint",
    "render_table",
    "render_series",
    "ThroughputSample",
    "throughput_from_events",
]
