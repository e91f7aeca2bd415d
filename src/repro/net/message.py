"""Size-accounted message envelopes.

Every protocol message travels inside an :class:`Envelope` that knows its
serialized size, so the communication-cost experiments (Figures 5-6,
Table III) can charge bytes without actually serializing anything on the
hot path.  Payload classes implement the :class:`Payload` protocol by
exposing ``size_bytes`` and a ``kind`` string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.common.errors import NetworkError


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
    """One message in flight, built by the network and by nothing else.

    A plain ``__slots__`` class rather than a dataclass: one is created
    per (message, recipient) pair -- the single hottest allocation in
    the simulator -- so the constructor only stores.  Every field is
    required and none is checked: the network has already refused an
    unknown sender, read ``kind`` and ``size_bytes`` off the payload once
    for all k copies of a multicast, and drawn the id.

    Attributes:
        src: sender node id.
        dst: destination node id.
        payload: the protocol message.
        kind: the payload's message kind.
        size_bytes: total on-wire size: payload plus framing overhead.
        envelope_id: unique, rising with send order; breaks arrival-time
            ties in the destination's inbox.
    """

    __slots__ = ("src", "dst", "payload", "kind", "size_bytes", "envelope_id")

    def __init__(self, src: int, dst: int, payload: Payload, kind: str,
                 size_bytes: int, envelope_id: int) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.kind = kind
        self.size_bytes = size_bytes
        self.envelope_id = envelope_id

    def __repr__(self) -> str:
        return (
            f"Envelope(src={self.src}, dst={self.dst}, kind={self.kind!r}, "
            f"size_bytes={self.size_bytes}, envelope_id={self.envelope_id})"
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
