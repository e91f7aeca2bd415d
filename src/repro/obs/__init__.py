"""Unified observability layer: spans, instruments, exportable traces.

The paper's headline claims are latency claims, so the repro needs phase
-level attribution, not just end-to-end numbers.  This package provides
three pillars, all driven by *simulated* time (never wall clock):

- :mod:`repro.obs.spans` -- a :class:`~repro.obs.spans.Tracer` that
  records request-lifecycle and system-episode spans with parent-child
  nesting.
- :mod:`repro.obs.instruments` -- a typed registry of counters, gauges,
  and quantile sketches with a deterministic snapshot API.
- :mod:`repro.obs.export` / :mod:`repro.obs.report` -- Chrome
  trace-event JSON + JSONL span dumps and a per-phase latency report
  (``python -m repro.obs report``).

The :class:`~repro.obs.core.Observability` facade ties the pillars
together and is what protocol components accept as an optional ``obs``
parameter; passing ``None`` (the default) keeps every hot path on a
single ``is not None`` check, so goldens stay bit-identical and the
benchmark's ``sim_digest`` does not move.

City-scale (million-request) runs opt in through an
:class:`~repro.obs.obsconfig.ObsConfig`: streamed time-series windows
(:mod:`repro.obs.timeseries`), deterministic head sampling of request
spans (:mod:`repro.obs.sampling`), and a post-mortem flight recorder
(:mod:`repro.obs.flightrec`).  All three default off.
"""

from repro.obs.core import Observability
from repro.obs.obsconfig import ObsConfig

__all__ = [
    "ObsConfig",
    "Observability",
]
