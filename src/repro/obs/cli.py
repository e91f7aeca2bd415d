"""Command line for the observability layer: ``python -m repro.obs``.

Subcommands:

- ``capture`` -- run one instrumented scenario and write the trace
  (Chrome trace-event JSON), span dump (JSONL), instrument snapshot,
  and/or streamed window frames to files.  Time-series windows, head
  sampling and the flight recorder switch on via flags.
- ``report`` -- read a trace/span file and print the per-phase latency
  tables plus the era-switch downtime timeline; given a frames JSONL
  file it prints the per-zone window timeline instead.
- ``validate`` -- check a trace file.  JSONL inputs (span dumps or
  window frames) stream line-by-line, so a million-frame file costs
  constant memory; the first malformed record exits 2 with its line
  number.  Chrome traces and flight-recorder dumps are one JSON object
  each and validate whole.

Typical session::

    python -m repro.obs capture --protocol gpbft -n 40 --submissions 8 \\
        --era-switch-at 12 --trace trace.json --spans spans.jsonl
    python -m repro.obs report spans.jsonl
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Any, Iterable, TextIO

from repro.common.errors import ConfigurationError
from repro.obs.capture import capture_run
from repro.obs.export import (
    load_spans,
    span_from_dict,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.flightrec import validate_dump
from repro.obs.obsconfig import ObsConfig
from repro.obs.report import render_report, render_timeline
from repro.obs.spans import ObservabilityError
from repro.obs.timeseries import validate_frame


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.obs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Capture, validate, and report observability traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capture", help="run one instrumented scenario")
    cap.add_argument("--protocol", choices=("pbft", "gpbft"), default="gpbft")
    cap.add_argument("-n", type=int, default=10, help="committee / deployment size")
    cap.add_argument("--submissions", type=int, default=5)
    cap.add_argument("--seed", type=int, default=0)
    cap.add_argument("--horizon", type=float, default=60.0,
                     help="simulated seconds to run")
    cap.add_argument("--era-switch-at", type=float, default=None,
                     help="force an era switch at this time (gpbft only)")
    cap.add_argument("--trace", default=None,
                     help="write Chrome trace-event JSON here")
    cap.add_argument("--spans", default=None, help="write JSONL span dump here")
    cap.add_argument("--metrics", default=None,
                     help="write the instrument snapshot (JSON) here")
    cap.add_argument("--report", action="store_true",
                     help="also print the phase-breakdown report")
    cap.add_argument("--window", type=float, default=60.0,
                     help="simulated seconds per time-series window")
    cap.add_argument("--frames", default=None,
                     help="stream window frames (JSONL) here")
    cap.add_argument("--timeseries", action="store_true",
                     help="aggregate window frames even without --frames")
    cap.add_argument("--sample-rate", type=float, default=1.0,
                     help="fraction of request ids traced (head sampling)")
    cap.add_argument("--flight-recorder", action="store_true",
                     help="enable post-mortem dumps of recent events")
    cap.add_argument("--dump-dir", default=None,
                     help="directory for flight-recorder dump bundles")
    cap.add_argument("--dump", action="store_true",
                     help="write an on-demand dump bundle at end of run")
    cap.add_argument("--heartbeat", type=float, default=None,
                     help="wall seconds between live progress lines")

    rep = sub.add_parser(
        "report", help="phase breakdown (spans) or window timeline (frames)")
    rep.add_argument("file", help="Chrome trace JSON, JSONL span dump, "
                                  "or JSONL window frames")

    val = sub.add_parser("validate", help="validate a trace/frames file")
    val.add_argument("file")
    return parser


def _obs_config(args: argparse.Namespace) -> ObsConfig | None:
    """An :class:`ObsConfig` from capture flags (None: every span kept
    in memory, no windows, no flight recorder)."""
    wants_flight = args.flight_recorder or args.dump_dir or args.dump
    if not (args.frames or args.timeseries or args.sample_rate < 1.0
            or wants_flight or args.heartbeat is not None):
        return None
    return ObsConfig(
        window_s=args.window,
        timeseries=args.timeseries,
        frames_path=args.frames,
        sample_rate=args.sample_rate,
        flight_recorder=bool(wants_flight),
        dump_dir=args.dump_dir,
        heartbeat_s=args.heartbeat,
    )


def _cmd_capture(args: argparse.Namespace) -> int:
    config = _obs_config(args)
    if args.dump and (config is None or not config.flight_active):
        raise ObservabilityError("--dump requires the flight recorder")
    capture = capture_run(
        protocol=args.protocol,
        n=args.n,
        submissions=args.submissions,
        seed=args.seed,
        horizon_s=args.horizon,
        era_switch_at=args.era_switch_at,
        obs_config=config,
    )
    obs = capture.obs
    spans = capture.spans
    if args.trace:
        write_chrome_trace(spans, args.trace)
        print(f"wrote {len(spans)} spans to {args.trace} (chrome trace)")
    if args.spans:
        write_spans_jsonl(spans, args.spans)
        print(f"wrote {len(spans)} spans to {args.spans} (jsonl)")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(capture.snapshot(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote instrument snapshot to {args.metrics}")
    if args.frames and obs.timeseries is not None:
        print(f"wrote {obs.timeseries.frames_written} window frames "
              f"to {args.frames} (jsonl)")
    if args.dump and obs.flight is not None:
        obs.flight.dump("on-demand", at=capture.host.sim.now)
    if obs.flight is not None and obs.flight.dump_paths:
        for path in obs.flight.dump_paths:
            print(f"wrote flight-recorder dump to {path}")
    if args.report or not (args.trace or args.spans or args.metrics
                           or args.frames):
        print(render_report(spans))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    head = _first_record(args.file)
    if isinstance(head, dict) and "window" in head and "sid" not in head:
        from repro.obs.timeseries import load_frames

        print(render_timeline(load_frames(args.file)))
        return 0
    print(render_report(load_spans(args.file)))
    return 0


def _first_record(path: str) -> Any:
    """The first line of *path* parsed as JSON, or None."""
    with open(path) as fh:
        first = fh.readline()
    try:
        return json.loads(first)
    except json.JSONDecodeError:
        return None


def _validate_record(row: Any) -> str:
    """Check one JSONL record; returns its kind ("span" or "frame")."""
    if not isinstance(row, dict):
        raise ObservabilityError("record is not an object")
    if "sid" in row:
        try:
            span_from_dict(row)
        except (KeyError, TypeError) as exc:
            raise ObservabilityError(f"malformed span record: {exc}") from exc
        return "span"
    if "window" in row:
        validate_frame(row)
        return "frame"
    raise ObservabilityError(
        "record is neither a span (no 'sid') nor a window frame (no 'window')")


def _validate_stream(path: str, lines: Iterable[str]) -> int:
    """Validate JSONL records one line at a time; returns the count.

    Raises:
        ObservabilityError: tagged ``{path}:{lineno}`` for the first
            malformed line -- the caller maps this to exit code 2.
    """
    count = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"{path}:{lineno}: not JSON ({exc.msg})") from exc
        try:
            _validate_record(row)
        except ObservabilityError as exc:
            raise ObservabilityError(f"{path}:{lineno}: {exc}") from exc
        count += 1
    return count


def _cmd_validate(args: argparse.Namespace) -> int:
    fh: TextIO
    with open(args.file) as fh:
        first = fh.readline()
        try:
            head = json.loads(first) if first.strip() else None
        except json.JSONDecodeError:
            head = None
        if isinstance(head, dict) and "traceEvents" not in head:
            # JSONL span dump or frames file: stream, never load whole
            count = _validate_stream(args.file, itertools.chain([first], fh))
            print(f"{args.file}: valid jsonl ({count} records)")
            return 0
    with open(args.file) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "schema" in doc and "rings" in doc:
        validate_dump(doc)
        events = sum(len(ring) for ring in doc["rings"].values())
        print(f"{args.file}: valid flight dump ({events} ring events)")
        return 0
    validate_chrome_trace(doc)
    print(f"{args.file}: valid chrome trace ({len(doc['traceEvents'])} events)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "capture":
            return _cmd_capture(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_validate(args)
    except (ConfigurationError, ObservabilityError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
