"""Size-accounted message envelopes.

Every protocol message travels inside an :class:`Envelope` that knows its
serialized size, so the communication-cost experiments (Figures 5-6,
Table III) can charge bytes without actually serializing anything on the
hot path.  It leads with its arrival time and id, so it is also the
entry a destination's inbox heap holds and orders.  Payload classes
implement the :class:`Payload` protocol by exposing ``size_bytes`` and a
``kind`` string.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
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


def _field(index: int, doc: str) -> property:
    return property(itemgetter(index), doc=doc)


class Envelope(tuple):
    """One message in flight, and the entry that files it in an inbox.

    An immutable tuple of the seven fields below, built by the network
    and by nothing else as ``Envelope((arrive, envelope_id, ...))``: one
    is created per (message, recipient) pair -- the single hottest
    allocation in the simulator -- so construction is the tuple's own,
    with no Python-level frame, and one object is all the cyclic
    collector tracks per copy.  The heap compares envelopes as tuples;
    ids are unique, so a comparison never reaches ``src`` or the
    payload.  No field is checked: the network has already refused an
    unknown sender, read ``kind`` and ``size_bytes`` off the payload once
    for all k copies of a multicast, fixed the arrival and drawn the id.
    """

    __slots__ = ()

    arrive = _field(0, "simulated time the copy reaches its destination.")
    envelope_id = _field(1, "unique, rising with send order: the inbox tie-break.")
    src = _field(2, "sender node id.")
    dst = _field(3, "destination node id.")
    payload = _field(4, "the protocol message.")
    kind = _field(5, "the payload's message kind.")
    size_bytes = _field(6, "total on-wire size: payload plus framing overhead.")

    def __repr__(self) -> str:
        return (
            f"Envelope(arrive={self.arrive}, src={self.src}, dst={self.dst}, "
            f"kind={self.kind!r}, size_bytes={self.size_bytes}, "
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
