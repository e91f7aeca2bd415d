"""One configuration object for the city-scale observability features.

:class:`ObsConfig` ties the three city-scale pieces together -- the
streaming time-series pipeline (:mod:`repro.obs.timeseries`), the
deterministic head sampler (:mod:`repro.obs.sampling`), and the flight
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
        frames_tail: how many recent frames the in-memory tail keeps
            (bounds memory; also what a flight-recorder dump embeds).
        sample_rate: fraction of request ids traced end-to-end, keyed
            by a stable hash of the id (1.0, the default, traces
            everything).  Instruments and window frames always see every
            request; sampling only thins the span stream.
        flight_recorder: enable post-mortem dumps of each group's
            recent events even without a ``dump_dir`` (dumps then
            stay in memory on
            :attr:`~repro.obs.flightrec.FlightRecorder.dumps`).
        dump_dir: directory post-mortem JSON bundles are written into.
        storm_threshold: view-change events within one storm window
            that trigger an automatic dump (0 disables the trigger).
        storm_window_s: width of the view-change storm window.
        heartbeat_s: wall-clock seconds between live progress lines on
            stderr (``None`` disables; long runs opt in).
    """

    window_s: float = 60.0
    timeseries: bool = False
    frames_path: str | None = None
    frames_tail: int = 128
    sample_rate: float = 1.0
    flight_recorder: bool = False
    dump_dir: str | None = None
    storm_threshold: int = 50
    storm_window_s: float = 60.0
    heartbeat_s: float | None = None

    def __post_init__(self) -> None:
        """Validate the knobs; raises ObservabilityError on misuse."""
        for name in ("window_s", "storm_window_s", "heartbeat_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ObservabilityError(f"{name} must be finite, got {value}")
        if self.window_s <= 0:
            raise ObservabilityError(f"window_s must be > 0, got {self.window_s}")
        if not (0.0 <= self.sample_rate <= 1.0):
            raise ObservabilityError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}")
        if self.frames_tail < 1:
            raise ObservabilityError(
                f"frames_tail must be >= 1, got {self.frames_tail}")
        if self.storm_threshold < 0:
            raise ObservabilityError(
                f"storm_threshold must be >= 0, got {self.storm_threshold}")
        if self.storm_window_s <= 0:
            raise ObservabilityError(
                f"storm_window_s must be > 0, got {self.storm_window_s}")
        if self.heartbeat_s is not None and self.heartbeat_s <= 0:
            raise ObservabilityError(
                f"heartbeat_s must be > 0 when given, got {self.heartbeat_s}")

    @property
    def timeseries_active(self) -> bool:
        """Whether windowed aggregation should run."""
        return self.timeseries or self.frames_path is not None

    @property
    def flight_active(self) -> bool:
        """Whether the flight recorder should attach to event logs."""
        return self.flight_recorder or self.dump_dir is not None

    @property
    def sampling_active(self) -> bool:
        """Whether head sampling thins the span stream."""
        return self.sample_rate < 1.0
