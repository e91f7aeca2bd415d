"""One configuration object for the city-scale observability features.

:class:`ObsConfig` ties the three city-scale pieces together -- the
streaming time-series pipeline (:mod:`repro.obs.timeseries`),
deterministic head sampling (:mod:`repro.obs.sampling`), and the flight
recorder (:mod:`repro.obs.flightrec`) -- behind one frozen dataclass
that :class:`~repro.obs.core.Observability` accepts at construction.

The default config disables all three: a default-constructed
``Observability`` records every span, buffers them in memory, and never
writes a file.  Million-request
runs opt in to windows, sampling, and the recorder explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.spans import ObservabilityError


@dataclass(frozen=True, slots=True)
class ObsConfig:
    """Settings for windows, head sampling and the flight recorder.

    Attributes:
        window_s: width of one simulated-time aggregation window.
        timeseries: enable windowed frame aggregation even without a
            ``frames_path`` (frames then live only in the bounded tail
            buffer, e.g. for flight-recorder dumps).
        frames_path: JSONL file the window frames stream into, one
            frame per line, flushed incrementally as windows close.
        sample_rate: fraction of request ids traced end-to-end, keyed
            by a stable hash of the id (1.0, the default, traces
            everything).  The request-scoped spans follow the sample,
            and so do the sketches read off them (``request.latency_s``,
            ``pbft.prepare_wait_s``, ``pbft.commit_wait_s``); window
            frames and counters see every request.
        flight_recorder: enable post-mortem dumps of each group's
            recent events even without a ``dump_dir`` (dumps then
            stay in memory on
            :attr:`~repro.obs.flightrec.FlightRecorder.dumps`).
        dump_dir: directory post-mortem JSON bundles are written into.
        heartbeat_s: wall-clock seconds between live progress lines on
            stderr (``None`` disables; long runs opt in).
    """

    window_s: float = 60.0
    timeseries: bool = False
    frames_path: str | None = None
    sample_rate: float = 1.0
    flight_recorder: bool = False
    dump_dir: str | None = None
    heartbeat_s: float | None = None

    def __post_init__(self) -> None:
        """Validate the knobs; raises ObservabilityError on misuse."""
        for name in ("window_s", "heartbeat_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ObservabilityError(f"{name} must be finite, got {value}")
        if self.window_s <= 0:
            raise ObservabilityError(f"window_s must be > 0, got {self.window_s}")
        if not (0.0 <= self.sample_rate <= 1.0):
            raise ObservabilityError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}")
        if self.heartbeat_s is not None and self.heartbeat_s <= 0:
            raise ObservabilityError(
                f"heartbeat_s must be > 0 when given, got {self.heartbeat_s}")

