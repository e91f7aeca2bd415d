"""Command line for the observability layer: ``python -m repro.obs``.

Subcommands:

- ``capture`` -- run one instrumented scenario and write the trace
  (Chrome trace-event JSON), span dump (JSONL), instrument snapshot,
  and/or streamed window frames to files.  Time-series windows, head
  sampling and the flight recorder switch on via flags.
- ``report`` -- read a trace/span file and print the per-phase latency
  tables plus the era-switch downtime timeline; given a frames JSONL
  file it prints the per-zone window timeline instead.  A flight dump
  has neither, so it exits 2 naming the format.
- ``validate`` -- check any of the four formats.  JSONL inputs (span
  dumps or window frames) stream line-by-line, so a million-frame file
  costs constant memory; every record must be of the format the first
  line announced, and the first malformed record exits 2 with its
  line number.  Chrome traces and flight-recorder dumps are one JSON
  object each and validate whole.

Both subcommands tell the formats apart with
:func:`repro.obs.export.sniff`.

Typical session::

    python -m repro.obs capture --protocol gpbft -n 40 --submissions 8 \\
        --era-switch-at 12 --trace trace.json --spans spans.jsonl
    python -m repro.obs report spans.jsonl
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.common.errors import ConfigurationError
from repro.obs.capture import capture_run
from repro.obs.export import (
    check_span_row,
    load_spans,
    read_jsonl,
    sniff,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.flightrec import validate_dump
from repro.obs.obsconfig import ObsConfig
from repro.obs.report import render_report, render_timeline
from repro.obs.spans import ObservabilityError
from repro.obs.timeseries import load_frames, validate_frame


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
    add_obs_flags(cap)
    cap.add_argument("--dump", action="store_true",
                     help="write an on-demand dump bundle at end of run")

    rep = sub.add_parser(
        "report", help="phase breakdown (spans) or window timeline (frames)")
    rep.add_argument("file", help="Chrome trace JSON, JSONL span dump, "
                                  "or JSONL window frames")

    val = sub.add_parser("validate", help="validate a trace/frames file")
    val.add_argument("file")
    return parser


def positive_float(raw: str) -> float:
    """argparse type for a duration: a finite float > 0."""
    value = float(raw)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return value


def _fraction(raw: str) -> float:
    """argparse type for ``--sample-rate``: a float in [0, 1]."""
    value = float(raw)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("must be in [0, 1]")
    return value


def add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the observability flags ``repro.obs capture`` and
    ``repro.experiments agg`` share; :func:`obs_config` reads them."""
    parser.add_argument("--timeseries", action="store_true",
                        help="aggregate window frames even without --frames")
    parser.add_argument("--window", type=positive_float, default=60.0,
                        help="simulated seconds per time-series window")
    parser.add_argument("--frames", default=None,
                        help="stream window frames (JSONL) here")
    parser.add_argument("--sample-rate", type=_fraction, default=None,
                        help="fraction of request ids traced end-to-end "
                             "(head sampling; default 1)")
    parser.add_argument("--flight-recorder", action="store_true",
                        help="dump recent events post mortem on trouble")
    parser.add_argument("--dump-dir", default=None,
                        help="directory for flight-recorder dump bundles")
    parser.add_argument("--heartbeat", type=positive_float, default=None,
                        help="wall seconds between live progress lines")


def obs_config(args: argparse.Namespace, *,
               flight_recorder: bool = False) -> ObsConfig | None:
    """The :class:`ObsConfig` the :func:`add_obs_flags` flags ask for
    (*flight_recorder* acts as its flag), or ``None`` when no flag but
    ``--window`` is given."""
    flight = args.flight_recorder or flight_recorder
    if not (args.timeseries or args.frames or args.sample_rate is not None
            or flight or args.dump_dir or args.heartbeat is not None):
        return None
    return ObsConfig(
        window_s=args.window,
        timeseries=args.timeseries,
        frames_path=args.frames,
        sample_rate=1.0 if args.sample_rate is None else args.sample_rate,
        flight_recorder=flight,
        dump_dir=args.dump_dir,
        heartbeat_s=args.heartbeat,
    )


def _cmd_capture(args: argparse.Namespace) -> int:
    obs, host = capture_run(
        protocol=args.protocol,
        n=args.n,
        submissions=args.submissions,
        seed=args.seed,
        horizon_s=args.horizon,
        era_switch_at=args.era_switch_at,
        obs_config=obs_config(args, flight_recorder=args.dump),
    )
    spans = obs.tracer.spans
    if args.trace:
        write_chrome_trace(spans, args.trace)
        print(f"wrote {len(spans)} spans to {args.trace} (chrome trace)")
    if args.spans:
        write_spans_jsonl(spans, args.spans)
        print(f"wrote {len(spans)} spans to {args.spans} (jsonl)")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(obs.snapshot(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote instrument snapshot to {args.metrics}")
    if args.frames and obs.timeseries is not None:
        print(f"wrote {obs.timeseries.frames_written} window frames "
              f"to {args.frames} (jsonl)")
    if args.dump and obs.flight is not None:
        obs.flight.dump("on-demand", at=host.sim.now)
    if obs.flight is not None and obs.flight.dump_paths:
        for path in obs.flight.dump_paths:
            print(f"wrote flight-recorder dump to {path}")
    if args.report or not (args.trace or args.spans or args.metrics
                           or args.frames):
        print(render_report(spans))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    kind, _ = sniff(args.file)
    if kind == "frames file":
        print(render_timeline(load_frames(args.file)))
    else:
        print(render_report(load_spans(args.file)))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    kind, doc = sniff(args.file)
    if doc is None:
        check = check_span_row if kind == "span dump" else validate_frame
        count = sum(1 for _ in read_jsonl(args.file, check))
        print(f"{args.file}: valid jsonl ({count} records)")
    elif kind == "flight dump":
        validate_dump(doc)
        events = sum(len(ring) for ring in doc["rings"].values())
        print(f"{args.file}: valid {kind} ({events} ring events)")
    else:
        validate_chrome_trace(doc)
        print(f"{args.file}: valid {kind} ({len(doc['traceEvents'])} events)")
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
    except (ConfigurationError, ObservabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
