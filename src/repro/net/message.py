"""Size-accounted message payloads.

Every protocol message knows its serialized size, so the
communication-cost experiments (Figures 5-6, Table III) can charge bytes
without actually serializing anything on the hot path.  Payload classes
implement the :class:`Payload` protocol by exposing ``size_bytes`` and a
``kind`` string; the network reads both once per send operation, files
the payload and its size in a plain tuple, its envelope (layout in
:mod:`repro.net.network`), and keeps the payload alone once it arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.common.errors import NetworkError


@runtime_checkable
class Payload(Protocol):
    """Anything the network can carry."""

    @property
    def kind(self) -> str:
        """Machine-readable message kind, e.g. ``"pbft.prepare"``."""
        ...

    @property
    def size_bytes(self) -> int:
        """Serialized payload size in bytes: what the network charges."""
        ...


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
