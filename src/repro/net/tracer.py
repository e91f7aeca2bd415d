"""Message-flow tracing: capture and render protocol conversations.

A :class:`MessageTracer` taps the simulated network and records every
send as a (time, src, dst, kind, bytes) row.  Filters keep captures
focused ("only pbft.* between endorsers 0-3"), and the renderer prints a
text sequence diagram -- the fastest way to see *why* a consensus round
stalled when a test fails.

A row per message needs every copy of every broadcast, so the tracer
replaces ``send`` on the network instance; ``multicast`` then hands it
the copies one by one (the same simulation, copy by copy).  It wraps
whatever ``send`` it finds, so it stacks on a
:class:`~repro.verify.explorer.SendPerturber`; detach in reverse order.

Usage::

    tracer = MessageTracer(deployment.network, kinds=("pbft.",))
    deployment.run(until=30)
    print(tracer.render_sequence(limit=40))
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from repro.common.errors import NetworkError
from repro.net.message import Payload
from repro.net.network import SimulatedNetwork


@dataclass(frozen=True, slots=True)
class TraceRow:
    """One captured message send."""

    at: float
    src: int
    dst: int
    kind: str
    size_bytes: int


class MessageTracer:
    """Taps a network's send path and records matching messages.

    Args:
        network: the network to tap (tapped immediately).
        kinds: kind prefixes to keep (empty = everything).
        nodes: when given, keep only messages with src or dst in the set.
        capacity: ring-buffer size; the oldest rows fall off.
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        kinds: tuple[str, ...] = (),
        nodes: set[int] | None = None,
        capacity: int = 10_000,
    ) -> None:
        if capacity <= 0:
            raise NetworkError("tracer capacity must be positive")
        self.kinds = tuple(kinds)
        self.nodes = set(nodes) if nodes is not None else None
        self.capacity = capacity
        self.rows: deque[TraceRow] = deque(maxlen=capacity)
        self.dropped = 0
        self._network = network
        # NetworkConfig is frozen, so the overhead can be read once
        self._overhead_bytes = network.config.envelope_overhead_bytes
        self._original_send = network.send
        network.send = self._send  # type: ignore[method-assign]

    def _matches(self, src: int, dst: int, kind: str) -> bool:
        if self.kinds and not kind.startswith(self.kinds):
            return False
        if self.nodes is not None and src not in self.nodes and dst not in self.nodes:
            return False
        return True

    def _send(self, src: int, dst: int, payload: Payload) -> None:
        kind = payload.kind
        if self._matches(src, dst, kind):
            if len(self.rows) == self.capacity:
                self.dropped += 1  # the append below pushes the oldest out
            # the charged size, as TrafficStats.on_send counts it
            self.rows.append(TraceRow(
                at=self._network.sim.now, src=src, dst=dst, kind=kind,
                size_bytes=payload.size_bytes + self._overhead_bytes))
        self._original_send(src, dst, payload)

    def detach(self) -> None:
        """Stop recording: restore the ``send`` the tracer found."""
        self._network.send = self._original_send  # type: ignore[method-assign]

    # -- queries ---------------------------------------------------------

    def between(self, start: float, end: float) -> list[TraceRow]:
        """Rows with ``start <= at < end``."""
        return [r for r in self.rows if start <= r.at < end]

    def count_by_kind(self) -> dict[str, int]:
        """Message counts per kind."""
        out: dict[str, int] = {}
        for row in self.rows:
            out[row.kind] = out.get(row.kind, 0) + 1
        return out

    def bytes_by_kind(self) -> dict[str, int]:
        """Byte totals per kind."""
        out: dict[str, int] = {}
        for row in self.rows:
            out[row.kind] = out.get(row.kind, 0) + row.size_bytes
        return out

    # -- rendering -------------------------------------------------------

    def render_sequence(self, limit: int = 50, participants: list[int] | None = None) -> str:
        """Text sequence diagram of the first *limit* captured rows.

        Args:
            limit: rows rendered.
            participants: column order; inferred from traffic if omitted.
        """
        rows = list(islice(self.rows, limit))
        if not rows:
            return "(no messages captured)"
        if participants is None:
            participants = sorted({r.src for r in rows} | {r.dst for r in rows})
        col = {node: i for i, node in enumerate(participants)}
        width = 12
        header = "time        " + "".join(f"{f'n{p}':^{width}}" for p in participants)
        lines = [header, "-" * len(header)]
        for row in rows:
            if row.src not in col or row.dst not in col:
                continue
            a, b = col[row.src], col[row.dst]
            lo, hi = min(a, b), max(a, b)
            # draw the arrow between the two lifelines
            cells = [" " * width] * len(participants)
            span = (hi - lo) * width
            arrow = ("-" * (span - 2))
            if a < b:
                arrow = arrow[:-1] + ">" if arrow else ">"
            else:
                arrow = "<" + arrow[1:] if arrow else "<"
            label = row.kind.split(".")[-1][: span - 2] if span > 4 else ""
            if label:
                mid = (span - 2 - len(label)) // 2
                arrow = arrow[:mid] + label + arrow[mid + len(label):]
            line = " " * (lo * width + width // 2) + "|" + arrow + "|"
            lines.append(f"{row.at:10.3f}  " + line)
        if len(self.rows) > limit:
            lines.append(f"... {len(self.rows) - limit} more rows captured")
        return "\n".join(lines)

    def summary(self) -> str:
        """Per-kind message/byte totals as a small table."""
        counts = self.count_by_kind()
        sizes = self.bytes_by_kind()
        lines = [f"{'kind':<24} {'msgs':>7} {'KB':>9}"]
        for kind in sorted(counts, key=lambda k: -sizes[k]):
            lines.append(f"{kind:<24} {counts[kind]:>7} {sizes[kind] / 1024:>9.2f}")
        if self.dropped:
            lines.append(f"({self.dropped} rows dropped beyond capacity)")
        return "\n".join(lines)
