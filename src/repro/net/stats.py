"""Traffic accounting: per-node and per-kind byte/message counters.

Figures 5-6 and Table III of the paper report communication cost in KB
for a single transaction; :class:`TrafficStats` is the ground truth those
experiments read.  The network's ports count their own sends and
deliveries, and a send bumps the per-kind maps in place, so no message
costs a call here; the per-node maps and totals are folded when read.
Counters can be snapshotted and diffed so a harness can measure exactly
one consensus instance inside a longer run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from repro.net.network import _Port


@dataclass(frozen=True, slots=True)
class TrafficSnapshot:
    """Immutable copy of the counters at one instant."""

    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    bytes_sent: int
    bytes_delivered: int
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    messages_by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def kilobytes_sent(self) -> float:
        """Total sent traffic in KB (the unit of Figures 5-6)."""
        return self.bytes_sent / 1024.0

    def delta(self, earlier: "TrafficSnapshot") -> "TrafficSnapshot":
        """Counters accumulated since *earlier* (self - earlier)."""
        kinds = set(self.bytes_by_kind) | set(earlier.bytes_by_kind)
        return TrafficSnapshot(
            messages_sent=self.messages_sent - earlier.messages_sent,
            messages_delivered=self.messages_delivered - earlier.messages_delivered,
            messages_dropped=self.messages_dropped - earlier.messages_dropped,
            bytes_sent=self.bytes_sent - earlier.bytes_sent,
            bytes_delivered=self.bytes_delivered - earlier.bytes_delivered,
            bytes_by_kind={
                k: self.bytes_by_kind.get(k, 0) - earlier.bytes_by_kind.get(k, 0)
                for k in sorted(kinds)
            },
            messages_by_kind={
                k: self.messages_by_kind.get(k, 0) - earlier.messages_by_kind.get(k, 0)
                for k in sorted(kinds)
            },
        )


class TrafficStats:
    """Mutable traffic counters updated by the simulated network.

    A byte is counted in one place, with no call: a network send bumps
    the per-kind maps (the only record of bytes sent) and the sending
    port's ``sent``, a delivery the receiving port's
    ``delivered``/``delivered_bytes``.
    :meth:`on_send` and :meth:`on_deliver` charge a modelled transfer --
    a state transfer, a chain sync -- that no port carries.  The per-node
    maps and the totals fold ports and charges when read.

    Args:
        ports: the network's live node id -> port table; none standalone.

    Attributes:
        messages_dropped: messages lost to faults, partitions or drops.
        bytes_by_kind: bytes sent, by message kind.
        messages_by_kind: messages sent, by message kind.
    """

    def __init__(self, ports: Mapping[int, "_Port"] | None = None) -> None:
        self._ports: Mapping[int, "_Port"] = {} if ports is None else ports
        self.messages_dropped = 0
        self.bytes_by_kind: dict[str, int] = defaultdict(int)
        self.messages_by_kind: dict[str, int] = defaultdict(int)
        # transfers charged by ``on_send``/``on_deliver``, by node id
        self._charged_sent: dict[int, int] = defaultdict(int)
        self._charged_bytes: dict[int, int] = defaultdict(int)
        self._charged_messages: dict[int, int] = defaultdict(int)

    def on_send(self, src: int, kind: str, size_bytes: int) -> None:
        """Charge a modelled transfer of *size_bytes* from *src*."""
        self.bytes_by_kind[kind] += size_bytes
        self.messages_by_kind[kind] += 1
        self._charged_sent[src] += 1

    def on_deliver(self, dst: int, size_bytes: int) -> None:
        """Charge a modelled transfer to *dst*; ports count the rest."""
        self._charged_bytes[dst] += size_bytes
        self._charged_messages[dst] += 1

    def on_drop(self, copies: int = 1) -> None:
        """Record *copies* lost messages."""
        self.messages_dropped += copies

    @property
    def messages_sent(self) -> int:
        """Messages sent, over all kinds."""
        return sum(self.messages_by_kind.values())

    @property
    def bytes_sent(self) -> int:
        """Bytes sent, over all kinds."""
        return sum(self.bytes_by_kind.values())

    def _by_node(self, charged: dict[int, int], count: str,
                 attribute: str) -> defaultdict[int, int]:
        """*charged* plus each port's *attribute* where its *count* is
        set; a ``defaultdict``, so a silent id reads 0."""
        total = defaultdict(int, charged)
        for node_id, port in self._ports.items():
            if getattr(port, count):
                total[node_id] += getattr(port, attribute)
        return total

    @property
    def messages_sent_by_node(self) -> defaultdict[int, int]:
        """Messages sent, by sender id."""
        return self._by_node(self._charged_sent, "sent", "sent")

    @property
    def messages_received_by_node(self) -> defaultdict[int, int]:
        """Messages delivered, by receiver id."""
        return self._by_node(self._charged_messages, "delivered", "delivered")

    @property
    def bytes_received_by_node(self) -> defaultdict[int, int]:
        """Bytes delivered, by receiver id."""
        return self._by_node(self._charged_bytes, "delivered", "delivered_bytes")

    @property
    def messages_delivered(self) -> int:
        """Messages delivered, over all receivers."""
        return sum(self.messages_received_by_node.values())

    @property
    def bytes_delivered(self) -> int:
        """Bytes delivered, over all receivers."""
        return sum(self.bytes_received_by_node.values())

    @property
    def kilobytes_sent(self) -> float:
        """Total sent traffic in KB."""
        return self.bytes_sent / 1024.0

    def snapshot(self) -> TrafficSnapshot:
        """Immutable copy of the current counters."""
        return TrafficSnapshot(
            messages_sent=self.messages_sent,
            messages_delivered=self.messages_delivered,
            messages_dropped=self.messages_dropped,
            bytes_sent=self.bytes_sent,
            bytes_delivered=self.bytes_delivered,
            bytes_by_kind=dict(self.bytes_by_kind),
            messages_by_kind=dict(self.messages_by_kind),
        )
