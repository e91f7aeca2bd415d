"""Phase-level latency attribution from captured spans.

Turns a span dump into the tables the paper's claims are about: where
does a request's time go (pre-prepare vs. prepare vs. commit vs.
reply), per committee size, and how long did era switches stall
commits.

Phase boundaries come from order statistics over the per-replica phase
spans.  A request is client-visible once ``f + 1`` replicas reach each
milestone, so with committee size *c* and ``k = f + 1``:

- ``t1`` = k-th smallest prepare-span *start* (pre-prepare delivered),
- ``t2`` = k-th smallest prepare-span *end* (prepare quorum formed),
- ``t3`` = k-th smallest commit-span *end* (executed),

giving ``pre-prepare = t1 - t0``, ``prepare = t2 - t1``,
``commit = t3 - t2`` and ``reply = t_end - t3`` with ``t0``/``t_end``
the request span's bounds.

The table's p50/p95/p99 come from a
:class:`~repro.obs.timeseries.QuantileSketch` per cell, the summary a
window frame's ``latency`` carries, so a capture's percentiles follow
one definition wherever they are printed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.quorum import max_faulty, weak_certificate_size
from repro.obs.spans import Span
from repro.obs.timeseries import QuantileSketch

#: The request phases, in protocol order.
PHASES = ("pre-prepare", "prepare", "commit", "reply")


@dataclass(frozen=True, slots=True)
class RequestPhases:
    """Per-phase time attribution for one completed request.

    Attributes:
        request_id: the request this breakdown belongs to.
        committee_size: committee size at submission time.
        phases: seconds per phase, keyed by :data:`PHASES` entries.
        total: end-to-end latency in seconds.
    """

    request_id: str
    committee_size: int
    phases: dict[str, float]
    total: float


def _kth(values: list[float], k: int) -> float | None:
    """k-th smallest of *values* (1-based), or None if too few.

    The phase milestones are the ``f + 1``-th, an order statistic the
    protocol defines, so each is one of the inputs exactly.
    """
    if len(values) < k:
        return None
    return sorted(values)[k - 1]


def attribute_phases(spans: list[Span]) -> list[RequestPhases]:
    """Compute per-request phase breakdowns from a span dump.

    Only requests with enough surviving phase spans for the ``f + 1``
    order statistic are attributed; requests cut off by the capture
    horizon (``unclosed`` flag) are skipped.
    """
    prepares: dict[str, list[Span]] = {}
    commits: dict[str, list[Span]] = {}
    requests: list[Span] = []
    for span in spans:
        rid = span.args.get("request_id")
        if rid is None:
            continue
        if span.cat == "request":
            requests.append(span)
        elif span.name == "prepare":
            prepares.setdefault(rid, []).append(span)
        elif span.name == "commit":
            commits.setdefault(rid, []).append(span)

    out: list[RequestPhases] = []
    for req in requests:
        if req.args.get("unclosed"):
            continue
        rid = req.args["request_id"]
        c = int(req.args.get("committee_size", 0))
        if c < 4:
            continue
        k = weak_certificate_size(max_faulty(c))
        prep = [s for s in prepares.get(rid, []) if not s.args.get("unclosed")]
        comm = [s for s in commits.get(rid, []) if not s.args.get("unclosed")]
        t0, t_end = req.start, req.end
        t1 = _kth([s.start for s in prep], k)
        t2 = _kth([s.end for s in prep], k)
        t3 = _kth([s.end for s in comm], k)
        if t1 is None or t2 is None or t3 is None:
            continue
        out.append(RequestPhases(
            request_id=rid,
            committee_size=c,
            phases={
                "pre-prepare": t1 - t0,
                "prepare": t2 - t1,
                "commit": t3 - t2,
                "reply": t_end - t3,
            },
            total=t_end - t0,
        ))
    return out


def era_timeline(spans: list[Span]) -> list[dict]:
    """Aggregate era-switch spans into one row per era number.

    Replicated deployments record one era span per node; the timeline
    reports the switch as seen by the slowest node (min start, max
    end), which is the commit-stall window the paper's ~0.25 s claim
    is about.
    """
    by_era: dict[int, list[Span]] = {}
    for span in spans:
        if span.cat == "era":
            by_era.setdefault(int(span.args.get("era", -1)), []).append(span)
    rows = []
    for era in sorted(by_era):
        group = by_era[era]
        start = min(s.start for s in group)
        end = max(s.end for s in group)
        rows.append({
            "era": era,
            "start": start,
            "end": end,
            "downtime_s": end - start,
            "nodes": len(group),
            "unclosed": any(s.args.get("unclosed") for s in group),
        })
    return rows


def phase_table(breakdowns: list[RequestPhases]) -> str:
    """Render p50/p95/p99 per phase, grouped by committee size."""
    if not breakdowns:
        return "(no attributable requests in capture)"
    by_size: dict[int, list[RequestPhases]] = {}
    for b in breakdowns:
        by_size.setdefault(b.committee_size, []).append(b)
    lines = []
    header = (
        f"{'committee':>9}  {'phase':<12} {'n':>5} "
        f"{'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for size in sorted(by_size):
        group = by_size[size]
        for phase in PHASES + ("total",):
            if phase == "total":
                values = [b.total for b in group]
            else:
                values = [b.phases[phase] for b in group]
            sketch = QuantileSketch()
            for value in values:
                sketch.observe(value)
            cells = " ".join(f"{sketch.quantile(q) * 1e3:>9.2f}"
                             for q in (0.50, 0.95, 0.99))
            lines.append(f"{size:>9}  {phase:<12} {len(values):>5} {cells}")
    return "\n".join(lines)


def era_table(rows: list[dict]) -> str:
    """Render the era-switch downtime timeline, one line per switch."""
    if not rows:
        return "era switches: none recorded"
    lines = ["era switches:"]
    for row in rows:
        suffix = "  (cut off by capture horizon)" if row["unclosed"] else ""
        lines.append(
            f"  era {row['era']}: downtime {row['downtime_s'] * 1e3:.1f} ms "
            f"({row['start']:.3f}s -> {row['end']:.3f}s, "
            f"{row['nodes']} node spans){suffix}"
        )
    return "\n".join(lines)


def render_report(spans: list[Span]) -> str:
    """The full ``python -m repro.obs report`` text output."""
    breakdowns = attribute_phases(spans)
    parts = [
        f"captured spans: {len(spans)}",
        "",
        "per-phase latency (client-visible f+1 milestones):",
        phase_table(breakdowns),
        "",
        era_table(era_timeline(spans)),
    ]
    return "\n".join(parts)


def render_timeline(frames: list[dict]) -> str:
    """Per-zone window timeline from streamed time-series frames.

    One table per zone, one row per (non-empty) window: request
    counters, view changes, era switches, message volume, and the
    commit-latency percentiles from the window's sketch.
    """
    if not frames:
        return "timeline: no frames"
    lines = [f"window frames: {len(frames)}"]
    zones = sorted({frame["zone"] for frame in frames})
    for zone in zones:
        rows = [frame for frame in frames if frame["zone"] == zone]
        lines.append("")
        lines.append(f"zone {zone}:")
        lines.append(
            f"  {'window':>7} {'start_s':>10} {'submit':>7} {'commit':>7} "
            f"{'vc':>4} {'era':>4} {'msgs':>8} {'kB':>9} "
            f"{'p50_ms':>8} {'p95_ms':>8} {'p99_ms':>8}"
        )
        for frame in rows:
            counters = frame["counters"]
            latency = frame.get("latency") or {}
            p50 = f"{latency['p50'] * 1e3:.1f}" if "p50" in latency else "-"
            p95 = f"{latency['p95'] * 1e3:.1f}" if "p95" in latency else "-"
            p99 = f"{latency['p99'] * 1e3:.1f}" if "p99" in latency else "-"
            partial = "  (partial)" if frame.get("partial") else ""
            lines.append(
                f"  {frame['window']:>7} {frame['start']:>10.1f} "
                f"{counters['submitted']:>7} {counters['commits']:>7} "
                f"{counters['view_changes']:>4} {counters['era_switches']:>4} "
                f"{counters['messages_sent']:>8} "
                f"{counters['bytes_sent'] / 1024.0:>9.1f} "
                f"{p50:>8} {p95:>8} {p99:>8}{partial}"
            )
    return "\n".join(lines)
