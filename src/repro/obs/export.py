"""Trace export: Chrome trace-event JSON and JSONL span dumps.

The Chrome format loads directly in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``: one complete ``"ph": "X"`` event per span,
timestamps in microseconds, with ``pid`` fixed at 0 and ``tid`` set to
the owning node so the viewer shows one lane per node.  The JSONL dump
is one span per line for ad-hoc ``jq``-style analysis and is what
:mod:`repro.obs.report` consumes.

All serialization uses sorted keys and fixed separators, so the same
run always exports byte-identical files -- the determinism tests rely
on this.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.obs.spans import ObservabilityError, Span


def span_to_dict(span: Span) -> dict:
    """JSON-ready dict for one span (used by the JSONL dump)."""
    return {
        "sid": span.sid,
        "parent": span.parent,
        "name": span.name,
        "cat": span.cat,
        "node": span.node,
        "start": span.start,
        "end": span.end,
        "args": span.args,
    }


def span_from_dict(row: dict) -> Span:
    """Rebuild a :class:`Span` from :func:`span_to_dict` output."""
    return Span(
        sid=row["sid"],
        parent=row["parent"],
        name=row["name"],
        cat=row["cat"],
        node=row["node"],
        start=row["start"],
        end=row["end"],
        args=dict(row.get("args", {})),
    )


def chrome_trace(spans: list[Span]) -> dict:
    """Render *spans* as a Chrome trace-event JSON object.

    Each span becomes one complete ("X") event; ``args`` carries the
    span id, parent id, and payload, so :func:`load_spans` recovers
    every field.  Times are not exact: ``ts`` and ``dur`` are
    microsecond floats and the end comes back as ``ts + dur``, so a
    start or end may move in its last bits.  The JSONL dump is the
    exact round trip.
    """
    events = []
    for span in spans:
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.cat,
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": 0,
            "tid": span.node,
            "args": {"sid": span.sid, "parent": span.parent, **span.args},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: dict) -> None:
    """Check *doc* is structurally valid Chrome trace-event JSON.

    Raises:
        ObservabilityError: on any malformed event.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ObservabilityError("chrome trace: missing top-level traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ObservabilityError("chrome trace: traceEvents must be a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ObservabilityError(f"chrome trace: event {i} is not an object")
        for field in ("ph", "name", "ts", "pid", "tid"):
            if field not in ev:
                raise ObservabilityError(f"chrome trace: event {i} missing {field!r}")
        if ev["ph"] == "X" and "dur" not in ev:
            raise ObservabilityError(f"chrome trace: complete event {i} missing dur")
        if ev["ph"] == "X" and ev["dur"] < 0:
            raise ObservabilityError(f"chrome trace: event {i} has negative dur")


def write_chrome_trace(spans: list[Span], path: str | Path) -> None:
    """Write *spans* as Chrome trace-event JSON to *path*."""
    doc = chrome_trace(spans)
    validate_chrome_trace(doc)
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def write_spans_jsonl(spans: list[Span], path: str | Path) -> None:
    """Write *spans* as one JSON object per line to *path*."""
    lines = [
        json.dumps(span_to_dict(s), sort_keys=True, separators=(",", ":"))
        for s in spans
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_jsonl(path: str | Path, check: Callable[[Any], None]) -> Iterator[Any]:
    """Stream JSONL file *path*'s records, each passed to *check* first,
    in constant memory; blank lines are skipped.  The first line that
    is not JSON or that *check* rejects raises an ObservabilityError
    tagged ``{path}:{lineno}``."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                check(row)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"{path}:{lineno}: not JSON ({exc.msg})") from exc
            except ObservabilityError as exc:
                raise ObservabilityError(f"{path}:{lineno}: {exc}") from exc
            yield row


def sniff(path: str | Path) -> tuple[str, Any]:
    """``(format, doc)`` of observability file *path*, told apart by its
    first line: ``"span dump"`` or ``"frames file"`` for JSONL (*doc*
    is ``None``: stream it with :func:`read_jsonl`), else the whole file
    parsed into *doc* -- a ``"flight dump"``, or what must be a
    ``"chrome trace"``.  A file that is neither JSONL nor one JSON
    document, an empty one included, raises an ObservabilityError
    tagged ``{path}:{lineno}``.
    """
    with open(path) as fh:
        first = fh.readline()
    try:
        head = json.loads(first)
    except json.JSONDecodeError:
        head = None  # an indented document: parse it whole below
    if not isinstance(head, dict) or "traceEvents" in head or "rings" in head:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"{path}:{exc.lineno}: not JSON ({exc.msg})") from exc
        dump = isinstance(doc, dict) and "rings" in doc
        return ("flight dump" if dump else "chrome trace"), doc
    frames = "window" in head and "sid" not in head
    return ("frames file" if frames else "span dump"), None


def check_span_row(row: Any) -> None:
    """Raise an ObservabilityError unless *row* is a span row."""
    if not isinstance(row, dict) or "sid" not in row:
        raise ObservabilityError("not a span row")
    try:
        span_from_dict(row)
    except (KeyError, TypeError) as exc:
        raise ObservabilityError(f"malformed span record: {exc}") from exc


def load_spans(path: str | Path) -> list[Span]:
    """Load spans from either export format, told apart by
    :func:`sniff`; any other file raises an ObservabilityError."""
    kind, doc = sniff(path)
    if kind == "chrome trace":
        validate_chrome_trace(doc)
        spans = []
        for ev in doc["traceEvents"]:
            args = dict(ev.get("args", {}))
            sid = args.pop("sid", -1)
            parent = args.pop("parent", -1)
            spans.append(Span(
                sid=sid,
                parent=parent,
                name=ev["name"],
                cat=ev.get("cat", "span"),
                node=ev["tid"],
                start=ev["ts"] / 1e6,
                end=(ev["ts"] + ev.get("dur", 0)) / 1e6,
                args=args,
            ))
        return spans
    if kind != "span dump":
        raise ObservabilityError(f"{path}: a {kind} holds no spans")
    return [span_from_dict(row) for row in read_jsonl(path, check_span_row)]
