"""Measurement utilities for the evaluation harness.

* :mod:`repro.metrics.latency` -- the boxplot statistics of consensus
  latency that Figure 3 plots (min / Q1 / median / Q3 / max);
* :mod:`repro.metrics.collector` -- experiment result containers and
  text rendering (tables, ASCII series);
* :mod:`repro.metrics.models` -- the paper's closed-form latency and
  traffic models (section IV), sized by the wire layouts.
"""
