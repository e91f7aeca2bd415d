"""Streaming windowed time-series for unbounded-length runs.

An unsampled tracer buffers one span per request, which caps it at tens
of thousands of requests.  This module is the city-scale path: protocol
signals are aggregated into fixed-width *simulated-time* windows, one
frame per (window, zone), and each frame is flushed to a JSONL file
the moment its window closes.  Memory is O(one open window) plus a
bounded tail of recent frames -- a million-request day costs the same
resident set as a thousand-request minute.

Per-frame content (see :func:`validate_frame` for the schema):

* counters -- requests submitted / committed, view changes, era
  switches, messages and bytes sent (read off each watched network's
  :class:`~repro.net.stats.TrafficStats` when the window closes, never
  counted per message);
* commit latency -- count/sum/min/max plus p50/p95/p99 from a
  bounded-memory log-bucket sketch (:class:`QuantileSketch`);
* gauges -- max mempool depth seen in the window, and (on the
  synthetic ``_sim`` zone) the max simulator queue depth.

Latency is measured from an in-flight map of submit times, not from
spans, so the percentiles cover *every* request even when span
sampling (:mod:`repro.obs.sampling`) keeps only 1/1000 of them.

Window boundaries are driven by the simulator's tick hook (installed
by :meth:`repro.obs.core.Observability.bind`): the hook fires once per
distinct timestamp *before* events at that time run, at which point
every window ending at or before it is complete and safe to flush.
Recording methods also self-advance on a late clock, so the pipeline
stays correct without the hook.  All output uses sorted keys and fixed
separators: two seeded runs produce bit-identical frames files.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from typing import TYPE_CHECKING, Any, Sequence, TextIO

from repro.obs.export import read_jsonl
from repro.obs.spans import ObservabilityError

if TYPE_CHECKING:
    from repro.net.stats import TrafficStats

#: Version of the frame layout; bump on incompatible changes.
FRAME_SCHEMA = 1

#: Smallest distinguishable sketch value (seconds); everything at or
#: below lands in bucket 0.
_SKETCH_MIN = 1e-4

#: Geometric bucket growth factor: ~10% relative quantile error.
_SKETCH_GROWTH = 1.1

#: Bucket count cap: covers [_SKETCH_MIN, ~4e6 s] at 10% resolution.
_SKETCH_BUCKETS = 256

#: Precomputed 1 / ln(growth) for the bucket-index computation.
_SKETCH_INV_LOG = 1.0 / math.log(_SKETCH_GROWTH)

#: In-flight submit-time entries retained before the oldest are shed
#: (requests that never complete must not leak the map).
_INFLIGHT_CAP = 200_000

#: Newest frames kept in memory (what a flight-recorder dump embeds).
FRAMES_TAIL = 128

#: Counter keys every frame carries, in schema order.
FRAME_COUNTERS = ("bytes_sent", "commits", "era_switches",
                  "messages_sent", "submitted", "view_changes")


class QuantileSketch:
    """Bounded-memory quantile estimate over log-spaced buckets.

    Observations land in geometric buckets (10% growth), stored
    sparsely; a quantile walks the cumulative counts and reports the
    hit bucket's upper edge, so the answer is deterministic and within
    ~10% relative error of the true order statistic.  Exact count,
    sum, min, and max are tracked alongside.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one observation (negative values clamp to bucket 0)."""
        if value <= _SKETCH_MIN:
            index = 0
        else:
            index = 1 + int(math.log(value / _SKETCH_MIN) * _SKETCH_INV_LOG)
            if index >= _SKETCH_BUCKETS:
                index = _SKETCH_BUCKETS - 1
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile (q in [0, 1]); raises when empty."""
        if self.count == 0:
            raise ObservabilityError("quantile of an empty sketch")
        rank = max(1, math.ceil(self.count * q))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return _bucket_edge(index)
        return _bucket_edge(max(self._buckets))

    def summary(self) -> dict:
        """JSON-ready count/sum/min/max plus p50/p95/p99."""
        if self.count == 0:
            return {}
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "min": round(self.min, 9),
            "max": round(self.max, 9),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


def _bucket_edge(index: int) -> float:
    """Upper edge of sketch bucket *index*, rounded for stable JSON."""
    if index <= 0:
        return _SKETCH_MIN
    return round(_SKETCH_MIN * _SKETCH_GROWTH ** index, 9)


class _ZoneWindow:
    """Accumulator for one (zone, window) pair; reset every window."""

    __slots__ = ("submitted", "commits", "view_changes", "era_switches",
                 "messages", "bytes", "depth_max", "pending_max", "sketch")

    def __init__(self) -> None:
        self.submitted = 0
        self.commits = 0
        self.view_changes = 0
        self.era_switches = 0
        self.messages = 0
        self.bytes = 0
        self.depth_max: int | None = None
        self.pending_max: int | None = None
        self.sketch: QuantileSketch | None = None


class Watch:
    """One bound network: its zone label, its live counters, and the
    totals as of the last window close.

    The facade keeps one list of these, which both its ``net.*``
    counters and the window frames read.
    """

    __slots__ = ("zone", "stats", "messages", "bytes")

    def __init__(self, zone: str, stats: "TrafficStats") -> None:
        self.zone = zone
        self.stats = stats
        self.messages = stats.messages_sent
        self.bytes = stats.bytes_sent


class Timeseries:
    """The streaming pipeline: accumulate per window, flush on close.

    One instance serves every zone of a run (zone-labeled clones of
    the :class:`~repro.obs.core.Observability` facade all feed it);
    frames flush to *path* as JSONL when given, and the newest
    :data:`FRAMES_TAIL` frames stay in a bounded in-memory ring for
    flight-recorder dumps.  *watched* is the facade's live list of
    bound networks: every window close reads their totals and puts the
    difference since the previous close into the closing window.  With
    the simulator tick hook driving :meth:`advance`, a close happens
    before the first event of the new window runs, so the difference is
    exactly what was sent inside the window.
    """

    def __init__(self, window_s: float, path: str | None = None,
                 watched: Sequence[Watch] = ()) -> None:
        self.window_s = float(window_s)
        self.frames_written = 0
        self.frames_tail: deque[dict] = deque(maxlen=FRAMES_TAIL)
        self._fh: TextIO | None = open(path, "w") if path is not None else None
        self._window = 0
        self._zones: dict[str, _ZoneWindow] = {}
        self._inflight: dict[str, float] = {}
        self._watched = watched

    # -- recording --------------------------------------------------------

    def _acc(self, zone: str, now: float) -> _ZoneWindow:
        """The current window's accumulator for *zone* (self-advancing)."""
        if now >= (self._window + 1) * self.window_s:
            self.advance(now)
        acc = self._zones.get(zone)
        if acc is None:
            acc = self._zones[zone] = _ZoneWindow()
        return acc

    def submitted(self, zone: str, rid: str, now: float) -> None:
        """A request entered the system; remember its submit time."""
        self._acc(zone, now).submitted += 1
        inflight = self._inflight
        if len(inflight) >= _INFLIGHT_CAP:
            # shed the oldest entry (insertion order): a request this
            # stale has outlived any realistic retry schedule
            inflight.pop(next(iter(inflight)))
        inflight[rid] = now

    def completed(self, zone: str, rid: str, now: float) -> None:
        """A request committed; records the full-fidelity latency."""
        acc = self._acc(zone, now)
        acc.commits += 1
        t0 = self._inflight.pop(rid, None)
        if t0 is not None:
            if acc.sketch is None:
                acc.sketch = QuantileSketch()
            acc.sketch.observe(now - t0)

    def view_change(self, zone: str, now: float) -> None:
        """A replica in *zone* voted for a view change."""
        self._acc(zone, now).view_changes += 1

    def era_switch(self, zone: str, now: float) -> None:
        """An era switch completed in *zone*."""
        self._acc(zone, now).era_switches += 1

    def _pull_traffic(self) -> None:
        """Credit the open window with the traffic since the last close."""
        for watch in self._watched:
            messages, nbytes = watch.stats.messages_sent, watch.stats.bytes_sent
            if messages != watch.messages or nbytes != watch.bytes:
                acc = self._zones.get(watch.zone)
                if acc is None:
                    acc = self._zones[watch.zone] = _ZoneWindow()
                acc.messages += messages - watch.messages
                acc.bytes += nbytes - watch.bytes
                watch.messages, watch.bytes = messages, nbytes

    def depth(self, zone: str, depth: int, now: float) -> None:
        """Mempool depth sample; the frame keeps the window max."""
        acc = self._acc(zone, now)
        if acc.depth_max is None or depth > acc.depth_max:
            acc.depth_max = depth

    def pending(self, pending: int, now: float) -> None:
        """Simulator queue depth sample, kept on the ``_sim`` zone."""
        acc = self._acc("_sim", now)
        if acc.pending_max is None or pending > acc.pending_max:
            acc.pending_max = pending

    # -- window lifecycle -------------------------------------------------

    def advance(self, to_time: float) -> int:
        """Flush every window that closed at or before *to_time*.

        Returns the number of frames flushed.  Empty windows between
        the last active one and *to_time* emit nothing (the window
        index in each frame keeps the timeline unambiguous), so a long
        quiet gap costs O(1), not O(windows skipped).
        """
        target = int(to_time // self.window_s)
        if target <= self._window:
            return 0
        self._pull_traffic()
        flushed = self._flush_window(partial=False) if self._zones else 0
        self._window = target
        return flushed

    def finish(self, now: float) -> int:
        """Flush closed windows plus the final partial one; close file."""
        flushed = self.advance(now)
        self._pull_traffic()
        if self._zones:
            flushed += self._flush_window(partial=True)
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return flushed

    def _flush_window(self, partial: bool) -> int:
        """Emit one frame per active zone, sorted by zone name."""
        import json

        window = self._window
        start = window * self.window_s
        end = start + self.window_s
        count = 0
        for zone in sorted(self._zones):
            acc = self._zones[zone]
            frame: dict[str, Any] = {
                "schema": FRAME_SCHEMA,
                "window": window,
                "start": start,
                "end": end,
                "zone": zone,
                "counters": {
                    "bytes_sent": acc.bytes,
                    "commits": acc.commits,
                    "era_switches": acc.era_switches,
                    "messages_sent": acc.messages,
                    "submitted": acc.submitted,
                    "view_changes": acc.view_changes,
                },
                "latency": acc.sketch.summary() if acc.sketch is not None else None,
                "gauges": {},
            }
            if acc.depth_max is not None:
                frame["gauges"]["mempool_depth_max"] = acc.depth_max
            if acc.pending_max is not None:
                frame["gauges"]["pending_events_max"] = acc.pending_max
            if partial:
                frame["partial"] = True
            self.frames_tail.append(frame)
            self.frames_written += 1
            count += 1
            if self._fh is not None:
                self._fh.write(json.dumps(
                    frame, sort_keys=True, separators=(",", ":")) + "\n")
        if self._fh is not None:
            # once per closed window: a run killed later leaves whole lines
            self._fh.flush()
        self._zones.clear()
        return count


def validate_frame(row: Any) -> None:
    """Check one parsed JSONL record is a well-formed window frame.

    Raises:
        ObservabilityError: naming the first malformed field.
    """
    if not isinstance(row, dict):
        raise ObservabilityError("frame is not an object")
    if row.get("schema") != FRAME_SCHEMA:
        raise ObservabilityError(
            f"frame schema {row.get('schema')!r} != {FRAME_SCHEMA}")
    window = row.get("window")
    if not isinstance(window, int) or window < 0:
        raise ObservabilityError(f"frame window {window!r} must be an int >= 0")
    start, end = row.get("start"), row.get("end")
    if not isinstance(start, (int, float)) or not isinstance(end, (int, float)):
        raise ObservabilityError("frame start/end must be numbers")
    if not start < end:
        raise ObservabilityError(f"frame start {start} must precede end {end}")
    if not isinstance(row.get("zone"), str):
        raise ObservabilityError("frame zone must be a string")
    counters = row.get("counters")
    if not isinstance(counters, dict):
        raise ObservabilityError("frame counters must be an object")
    for key in FRAME_COUNTERS:
        value = counters.get(key)
        if not isinstance(value, int) or value < 0:
            raise ObservabilityError(
                f"frame counter {key!r} must be an int >= 0, got {value!r}")
    latency = row.get("latency")
    if latency is not None:
        if not isinstance(latency, dict):
            raise ObservabilityError("frame latency must be null or an object")
        for key in ("count", "sum", "min", "max", "p50", "p95", "p99"):
            if not isinstance(latency.get(key), (int, float)):
                raise ObservabilityError(
                    f"frame latency field {key!r} must be a number")
    if not isinstance(row.get("gauges"), dict):
        raise ObservabilityError("frame gauges must be an object")


def load_frames(path: str) -> list[dict]:
    """Read and validate a frames JSONL file (small files / tests); the
    first malformed line raises, tagged ``{path}:{lineno}``."""
    return list(read_jsonl(path, validate_frame))


def _rss_mb() -> float:
    """Current peak resident set size of this process in MiB."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


class Heartbeat:
    """Opt-in live progress line for long runs (stderr, wall-clock paced).

    Reports simulated vs wall time, the event rate since the last
    beat, and the process peak RSS.  Wall-clock reads happen only when
    a window closes, never per event, and nothing here feeds back into
    simulated state -- the run stays bit-identical with or without it.
    """

    def __init__(self, interval_s: float, stream: TextIO | None = None) -> None:
        self._interval = interval_s
        self._stream = stream if stream is not None else sys.stderr
        self._wall_start: float | None = None
        self._wall_last = 0.0
        self._events_last = 0

    def maybe_beat(self, sim_now: float, events_processed: int) -> bool:
        """Emit a progress line when the wall interval has elapsed."""
        import time

        wall = time.perf_counter()
        if self._wall_start is None:
            self._wall_start = self._wall_last = wall
            self._events_last = events_processed
            return False
        if wall - self._wall_last < self._interval:
            return False
        dt = wall - self._wall_last
        rate = (events_processed - self._events_last) / dt if dt > 0 else 0.0
        print(
            f"[obs] sim={sim_now:.0f}s wall={wall - self._wall_start:.1f}s "
            f"events/s={rate:,.0f} rss={_rss_mb():.0f}MB",
            file=self._stream,
        )
        self._wall_last = wall
        self._events_last = events_processed
        return True
