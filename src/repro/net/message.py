"""Size-accounted message envelopes.

Every protocol message travels inside an :class:`Envelope` that knows its
serialized size, so the communication-cost experiments (Figures 5-6,
Table III) can charge bytes without actually serializing anything on the
hot path.  Payload classes implement the :class:`Payload` protocol by
exposing ``size_bytes`` and a ``kind`` string.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.common.errors import NetworkError

_envelope_ids = itertools.count()


@runtime_checkable
class Payload(Protocol):
    """Anything that can ride inside an envelope."""

    @property
    def kind(self) -> str:
        """Machine-readable message kind, e.g. ``"pbft.prepare"``."""
        ...

    @property
    def size_bytes(self) -> int:
        """Serialized payload size in bytes (excludes envelope framing)."""
        ...


class Envelope:
    """One message in flight.

    A plain ``__slots__`` class rather than a dataclass: envelopes are
    created once per (message, recipient) pair -- the single hottest
    allocation in the simulator -- so ``kind`` and ``size_bytes`` are
    stamped at construction instead of delegating to payload properties
    on every stats/queueing touch.  The network passes both precomputed:
    ``multicast`` reads them from the payload once for all k copies.

    Attributes:
        src: sender node id.
        dst: destination node id.
        payload: the protocol message.
        overhead_bytes: framing + signature bytes charged by the network.
        sent_at: simulated send time, stamped by the network.
        envelope_id: unique id for tracing/debugging.
        kind: the payload's message kind (stamped from the payload).
        size_bytes: total on-wire size: payload plus framing overhead.
    """

    __slots__ = (
        "src", "dst", "payload", "overhead_bytes", "sent_at",
        "envelope_id", "kind", "size_bytes",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        payload: Payload,
        overhead_bytes: int = 0,
        sent_at: float = 0.0,
        envelope_id: int | None = None,
        kind: str | None = None,
        size_bytes: int | None = None,
    ) -> None:
        if src < 0 or dst < 0:
            raise NetworkError(f"invalid endpoints src={src} dst={dst}")
        if overhead_bytes < 0:
            raise NetworkError("overhead_bytes must be >= 0")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.overhead_bytes = overhead_bytes
        self.sent_at = sent_at
        self.envelope_id = next(_envelope_ids) if envelope_id is None else envelope_id
        self.kind = payload.kind if kind is None else kind
        self.size_bytes = (
            payload.size_bytes + overhead_bytes if size_bytes is None else size_bytes
        )

    def __repr__(self) -> str:
        return (
            f"Envelope(src={self.src}, dst={self.dst}, kind={self.kind!r}, "
            f"size_bytes={self.size_bytes}, sent_at={self.sent_at}, "
            f"envelope_id={self.envelope_id})"
        )


@dataclass(frozen=True, slots=True)
class RawPayload:
    """A simple labelled payload for tests and generic traffic.

    Attributes:
        kind: message kind label.
        size_bytes: claimed serialized size.
        body: optional opaque content.
    """

    kind: str
    size_bytes: int
    body: Any = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise NetworkError("size_bytes must be >= 0")
