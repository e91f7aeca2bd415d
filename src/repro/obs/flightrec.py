"""Post-mortem flight recorder: dump bundles of each group's recent events.

Replaying a failed day-long run to diagnose it costs another day-long
run.  The flight recorder keeps the diagnosis *in* the failing run: it
holds the event log of each node group (a zone, a cluster), and when
something goes wrong it writes a single JSON bundle containing

* a ring per attached group: the log's last
  :data:`~repro.common.eventlog.TRACE_WINDOW` events
  (:meth:`~repro.common.eventlog.EventLog.tail`), the same window an
  invariant violation carries,
* a snapshot of the instrument registry at dump time,
* the tail of the window frames from the streaming time-series, and
* whatever the trigger wants to attach (e.g. the serialized
  :class:`~repro.verify.invariants.InvariantViolation`).

Dumps fire on three triggers: an invariant violation (wired through
``MonitorHarness.on_violation``), a view-change storm
(:data:`STORM_THRESHOLD` view-change events inside one
:data:`STORM_WINDOW_S` for a single group, counted by
:meth:`FlightRecorder.view_change`, which :meth:`FlightRecorder.attach`
subscribes to the group's ``pbft.view_change`` events), or an explicit
:meth:`FlightRecorder.dump` call.  The recorder stores no events of its
own, and the in-memory dump list keeps only the most recent few bundles.
"""

from __future__ import annotations

import json
import os
from collections import deque
from functools import partial
from typing import Any, Callable

from repro.common.eventlog import (
    EV_PBFT_VIEW_CHANGE,
    TRACE_WINDOW,
    Event,
    EventLog,
    event_to_json,
    jsonable,
)

#: Version of the dump bundle layout; bump on incompatible changes.
DUMP_SCHEMA = 1

#: In-memory dump bundles retained (dumps on disk are never pruned).
_DUMPS_KEPT = 4

#: View changes inside one storm window that trigger an automatic dump.
STORM_THRESHOLD = 50

#: Width of the view-change storm window, in simulated seconds.
STORM_WINDOW_S = 60.0


class FlightRecorder:
    """Per-group event logs with triggered post-mortem dumps.

    Args:
        dump_dir: directory each bundle is written into, or ``None`` to
            keep dumps in memory only.
        instruments: returns the instrument snapshot a bundle embeds.
        frames: returns the window-frame tail a bundle embeds.

    Attributes:
        dumps: the most recent in-memory dump bundles, oldest first
            (bounded; on-disk bundles under ``dump_dir`` are permanent).
        dump_paths: files written so far, in order.
    """

    def __init__(self, dump_dir: str | None = None,
                 instruments: Callable[[], dict] | None = None,
                 frames: Callable[[], list[dict]] | None = None) -> None:
        self._dump_dir = dump_dir
        self._instruments = instruments
        self._frames = frames
        self._logs: dict[str, EventLog] = {}
        self._storm_start: dict[str, float] = {}
        self._storm_count: dict[str, int] = {}
        self._seq = 0
        self.dumps: deque[dict] = deque(maxlen=_DUMPS_KEPT)
        self.dump_paths: deque[str] = deque(maxlen=_DUMPS_KEPT)

    @property
    def groups(self) -> list[str]:
        """Attached group names, sorted."""
        return sorted(self._logs)

    def attach(self, events: EventLog, group: str) -> None:
        """Dump *events*' tail as *group*'s ring, and count its view
        changes toward *group*'s storm trigger."""
        self._logs[group] = events
        events.subscribe(EV_PBFT_VIEW_CHANGE, partial(self.view_change, group))

    def view_change(self, group: str, event: Event) -> None:
        """Count *group*'s view changes; dump once when a storm trips."""
        at = event.at
        start = self._storm_start.get(group)
        if start is None or at >= start + STORM_WINDOW_S:
            self._storm_start[group] = at
            self._storm_count[group] = 1
            return
        self._storm_count[group] += 1
        if self._storm_count[group] == STORM_THRESHOLD:
            self.dump("view-change-storm", at=at, extra={
                "group": group,
                "view_changes": STORM_THRESHOLD,
                "window_start": start,
                "window_s": STORM_WINDOW_S,
            })

    def on_violation(self, violation: Any) -> None:
        """Dump trigger for invariant violations (harness hook target)."""
        event = getattr(violation, "event", None)
        self.dump("invariant-violation",
                  at=event.at if event is not None else None,
                  extra={"violation": violation.to_json()})

    def dump(self, reason: str, at: float | None = None,
             extra: dict | None = None) -> dict:
        """Write one post-mortem bundle; returns it as a dict.

        The bundle always embeds every attached group's ring plus, when the
        facade provided them, the instrument snapshot and the window
        frame tail.  With a ``dump_dir`` configured the bundle is also
        written to ``flight-{seq:03d}-{reason}.json`` in that
        directory; the file name is deterministic so seeded runs
        produce identical artifact sets.
        """
        bundle: dict[str, Any] = {
            "schema": DUMP_SCHEMA,
            "seq": self._seq,
            "reason": reason,
            "at": at,
            "rings": {
                group: [event_to_json(e)
                        for e in self._logs[group].tail(TRACE_WINDOW)]
                for group in sorted(self._logs)
            },
            "instruments": self._instruments() if self._instruments else None,
            "frames": self._frames() if self._frames else None,
            "extra": jsonable(extra) if extra is not None else None,
        }
        self._seq += 1
        self.dumps.append(bundle)
        if self._dump_dir is not None:
            os.makedirs(self._dump_dir, exist_ok=True)
            path = os.path.join(
                self._dump_dir,
                f"flight-{bundle['seq']:03d}-{reason}.json")
            with open(path, "w") as fh:
                json.dump(bundle, fh, sort_keys=True, indent=1)
                fh.write("\n")
            self.dump_paths.append(path)
        return bundle


def validate_dump(doc: Any) -> None:
    """Check a parsed dump bundle is well-formed.

    Raises:
        repro.obs.spans.ObservabilityError: naming the malformed field.
    """
    from repro.obs.spans import ObservabilityError

    if not isinstance(doc, dict):
        raise ObservabilityError("dump is not an object")
    if doc.get("schema") != DUMP_SCHEMA:
        raise ObservabilityError(
            f"dump schema {doc.get('schema')!r} != {DUMP_SCHEMA}")
    if not isinstance(doc.get("reason"), str):
        raise ObservabilityError("dump reason must be a string")
    rings = doc.get("rings")
    if not isinstance(rings, dict):
        raise ObservabilityError("dump rings must be an object")
    for group, events in rings.items():
        if not isinstance(events, list):
            raise ObservabilityError(f"dump ring {group!r} must be a list")
        for entry in events:
            if not isinstance(entry, dict) or "at" not in entry or "kind" not in entry:
                raise ObservabilityError(
                    f"dump ring {group!r} holds a malformed event")
