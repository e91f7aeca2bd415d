"""Simulated-time spans with parent-child nesting.

A span is an interval on the simulated clock: a request's life from
submission to quorum reply, one replica's prepare phase for one
sequence number, an era switch from proposal to completion.  Spans are
keyed by caller-chosen strings (``req/{rid}``, ``era/{owner}/{era}``)
so the component that opens a span and the component that closes it do
not need to share a handle.

The tracer never schedules simulator events and never touches the wall
clock, so attaching it cannot perturb a run: with tracing enabled the
event schedule -- and therefore every golden fingerprint -- is
bit-identical to an untraced run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import ReproError


class ObservabilityError(ReproError):
    """Misuse of the observability layer (bad instrument kind, ...)."""


@dataclass(slots=True)
class Span:
    """One interval on the simulated clock.

    Attributes:
        sid: tracer-unique integer id (assigned in open order).
        parent: ``sid`` of the enclosing span, or -1 for roots.
        name: human-readable label, e.g. ``"prepare"``.
        cat: coarse category for trace viewers, e.g. ``"phase"``.
        node: id of the node the span belongs to (-1 for system spans).
        start: simulated open time in seconds.
        end: simulated close time in seconds (== start until closed).
        args: free-form payload (request ids, era numbers, ...).
    """

    sid: int
    parent: int
    name: str
    cat: str
    node: int
    start: float
    end: float
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in simulated seconds."""
        return self.end - self.start


class Tracer:
    """Records spans keyed by string, with idempotent open/close.

    Open/close are deliberately forgiving: opening an already-open key
    is a no-op (the first open wins) and closing an unknown key returns
    ``None``.  Protocol code paths re-enter (view changes re-propose
    sequences, retries re-submit requests), and a tracer that raised on
    the second open would turn instrumentation into a correctness
    hazard.  Span ids increment in open order, so two runs with the
    same seed produce byte-identical exports.
    """

    def __init__(self) -> None:
        self._clock: Callable[[], float] = lambda: 0.0
        self._next_sid = 0
        self._open: dict[str, Span] = {}
        self._closed: list[Span] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Use *clock* (e.g. ``lambda: sim.now``) for default timestamps."""
        self._clock = clock

    def open(
        self,
        key: str,
        name: str,
        cat: str = "span",
        node: int = -1,
        parent_key: str | None = None,
        at: float | None = None,
        **args: Any,
    ) -> Span | None:
        """Open a span under *key*; no-op if *key* is already open.

        Args:
            key: tracer-wide identity, e.g. ``"req/c5-1"``.
            name: display label.
            cat: category shown in trace viewers.
            node: owning node id.
            parent_key: key of an *open* span to nest under.
            at: explicit timestamp; defaults to the bound clock.
            **args: payload recorded on the span.

        Returns:
            The new span, or ``None`` when *key* was already open.
        """
        if key in self._open:
            return None
        parent = self._open.get(parent_key) if parent_key is not None else None
        start = self._clock() if at is None else at
        span = Span(
            sid=self._next_sid,
            parent=parent.sid if parent is not None else -1,
            name=name,
            cat=cat,
            node=node,
            start=start,
            end=start,
            args=dict(args),
        )
        self._next_sid += 1
        self._open[key] = span
        return span

    def close(self, key: str, at: float | None = None, **args: Any) -> Span | None:
        """Close the span under *key*; ``None`` if no such span is open.

        Extra *args* are merged into the span's payload (close-time
        facts like latency or the committee that won an election).
        """
        span = self._open.pop(key, None)
        if span is None:
            return None
        span.end = self._clock() if at is None else at
        span.args.update(args)
        self._closed.append(span)
        return span

    def instant(
        self, name: str, cat: str = "instant", node: int = -1,
        at: float | None = None, **args: Any,
    ) -> Span:
        """Record a zero-duration span (audit fired, checkpoint stable)."""
        t = self._clock() if at is None else at
        span = Span(
            sid=self._next_sid, parent=-1, name=name, cat=cat,
            node=node, start=t, end=t, args=dict(args),
        )
        self._next_sid += 1
        self._closed.append(span)
        return span

    def finish(self, at: float | None = None) -> None:
        """Close every still-open span, flagging it ``unclosed=True``.

        Called at capture teardown so requests in flight at the horizon
        still appear in the export (their duration is capture-truncated,
        which the flag makes explicit).
        """
        for key in sorted(self._open):
            self.close(key, at=at, unclosed=True)

    @property
    def spans(self) -> list[Span]:
        """All closed spans, in close order."""
        return list(self._closed)
