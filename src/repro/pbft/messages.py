"""PBFT wire messages with byte-accurate serialized sizes.

Size model (documented in DESIGN.md and verified against Table III):
integers 4 B, timestamps 8 B, digests 32 B, signatures 64 B.  A
prepare/commit is therefore 4+4+32+4+64 = 108 B; with n = 202 replicas a
single request moves ~81,000 of them, i.e. ~8.6 MB -- the paper reports
8,571 KB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Protocol, runtime_checkable

from repro.common.errors import ConsensusError
from repro.common.record import TupleRecord
from repro.common.wire_layout import wire_struct
from repro.crypto.hashing import digest_concat, HASH_BYTES

if TYPE_CHECKING:
    from typing_extensions import Self

#: Fixed-record sizes, read once from the layouts repro.codec packs
#: with (WIRE_MESSAGES), so a layout and the bytes charged for it
#: cannot disagree.
_REQUEST_BYTES = wire_struct("pbft.request").size
_PRE_PREPARE_BYTES = wire_struct("pbft.pre_prepare").size
_PREPARE_BYTES = wire_struct("pbft.prepare").size
_COMMIT_BYTES = wire_struct("pbft.commit").size
_CHECKPOINT_BYTES = wire_struct("pbft.checkpoint").size
_REPLY_BYTES = wire_struct("pbft.reply").size
_PREPARED_PROOF_BYTES = wire_struct("pbft.prepared_proof").size
_VIEW_CHANGE_BYTES = wire_struct("pbft.view_change").size
_NEW_VIEW_BYTES = wire_struct("pbft.new_view").size
_NEW_VIEW_VOTE_BYTES = wire_struct("pbft.new_view", "item").size


@runtime_checkable
class Operation(Protocol):
    """Anything PBFT can order: exposes identity, digest bytes, and size."""

    @property
    def op_id(self) -> str:
        """Unique id of the operation (e.g. a transaction id)."""
        ...

    @property
    def size_bytes(self) -> int:
        """Serialized size of the operation."""
        ...

    def signing_bytes(self) -> bytes:
        """Canonical bytes committed to by digests."""
        ...


@dataclass(frozen=True, slots=True)
class RawOperation:
    """Minimal operation for tests and micro-benchmarks."""

    op_id: str
    size_bytes: int = 64
    # memoized signing bytes; excluded from eq/hash/repr
    _signing: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def signing_bytes(self) -> bytes:
        """Canonical bytes committed to by request digests (memoized)."""
        cached = self._signing
        if cached is None:
            cached = b"raw-op:" + self.op_id.encode()
            object.__setattr__(self, "_signing", cached)
        return cached


@dataclass(frozen=True, slots=True)
class ClientRequest:
    """<REQUEST, o, t, c>: a client asks the service to execute *op*.

    The digest, wire size and request id are immutable functions of the
    frozen fields, so they are computed once: every replica re-derives
    the digest while validating pre-prepares, which made this the
    hottest hash call in large-committee runs.  The digest and size are
    memoized on first use; the request id, read about fifteen times per
    request, is a plain field set at construction.
    """

    client: int
    timestamp: float
    op: Operation
    _digest: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _size: int | None = field(default=None, init=False, repr=False, compare=False)
    #: Stable id pairing requests with replies and latency events.
    request_id: str = field(init=False, repr=False, compare=False)

    #: Message kind for dispatch and traffic accounting.
    kind: ClassVar[str] = "pbft.request"

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (verified by repro.codec, memoized)."""
        size = self._size
        if size is None:
            size = _REQUEST_BYTES + self.op.size_bytes
            object.__setattr__(self, "_size", size)
        return size

    def digest(self) -> bytes:
        """Request digest carried by pre-prepare/prepare/commit (memoized)."""
        digest = self._digest
        if digest is None:
            digest = digest_concat(
                str(self.client).encode(),
                repr(self.timestamp).encode(),
                self.op.signing_bytes(),
            )
            object.__setattr__(self, "_digest", digest)
        return digest

    def __post_init__(self) -> None:
        object.__setattr__(self, "request_id", f"{self.client}:{self.op.op_id}")


_new = tuple.__new__


class _Message(TupleRecord):
    """A hot message kind: an immutable tuple led by the class's ``kind``.

    One is built per phase and read by every peer (a multicast files one
    object in every copy).  A subclass declares its fields and writes
    ``__new__`` (see :class:`~repro.common.record.TupleRecord`); it sets
    ``kind`` and ``size_bytes`` (verified by repro.codec) at class level.
    The leading kind keeps a prepare from equalling a commit with the
    same fields.  ``epoch`` (the G-PBFT era) rides in the view word on
    the wire, so it adds no bytes.
    """

    __slots__ = ()
    _lead = 1
    kind = ""


class PrePrepare(_Message):
    """<PRE-PREPARE, v, n, d> signed by the primary, piggybacking the request."""

    __slots__ = ()
    kind = "pbft.pre_prepare"
    view: int
    seq: int
    digest: bytes
    request: ClientRequest
    sender: int
    epoch: int

    def __new__(cls, view: int, seq: int, digest: bytes, request: ClientRequest,
                sender: int, epoch: int = 0) -> Self:
        if len(digest) != HASH_BYTES:
            raise ConsensusError("pre-prepare digest must be 32 bytes")
        return _new(cls, (cls.kind, view, seq, digest, request, sender, epoch))

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (verified by repro.codec)."""
        return _PRE_PREPARE_BYTES + self.request.size_bytes


class _Vote(_Message):
    __slots__ = ()
    view: int
    seq: int
    digest: bytes
    sender: int
    epoch: int

    def __new__(cls, view: int, seq: int, digest: bytes, sender: int,
                epoch: int = 0) -> Self:
        return _new(cls, (cls.kind, view, seq, digest, sender, epoch))


class Prepare(_Vote):
    """<PREPARE, v, n, d, i> multicast by backup *i* after accepting a
    pre-prepare."""

    __slots__ = ()
    kind = "pbft.prepare"
    size_bytes = _PREPARE_BYTES


class Commit(_Vote):
    """<COMMIT, v, n, d, i> multicast once a replica is *prepared*."""

    __slots__ = ()
    kind = "pbft.commit"
    size_bytes = _COMMIT_BYTES


class Reply(_Message):
    """<REPLY, v, t, c, i, r> sent to the client after execution."""

    __slots__ = ()
    kind = "pbft.reply"
    size_bytes = _REPLY_BYTES
    view: int
    timestamp: float
    client: int
    sender: int
    request_id: str
    result_digest: bytes

    def __new__(cls, view: int, timestamp: float, client: int, sender: int,
                request_id: str, result_digest: bytes) -> Self:
        return _new(cls, (cls.kind, view, timestamp, client, sender, request_id,
                          result_digest))


class Checkpoint(_Message):
    """<CHECKPOINT, n, d, i>: replica *i* reached sequence *n* with state
    digest *d*."""

    __slots__ = ()
    kind = "pbft.checkpoint"
    size_bytes = _CHECKPOINT_BYTES
    seq: int
    state_digest: bytes
    sender: int
    epoch: int

    def __new__(cls, seq: int, state_digest: bytes, sender: int,
                epoch: int = 0) -> Self:
        return _new(cls, (cls.kind, seq, state_digest, sender, epoch))


@dataclass(frozen=True, slots=True)
class PreparedProof:
    """Summary of one prepared request carried inside a view-change.

    The real protocol ships the pre-prepare plus 2f prepares; we carry
    the request (so the new primary can re-propose it) and charge the
    certificate bytes.
    """

    view: int
    seq: int
    digest: bytes
    request: ClientRequest
    prepare_count: int

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (verified by repro.codec)."""
        # wire layout: view + seq + prepare_count words, digest, the
        # request bytes, then one prepare-sized certificate entry per vote
        cert = self.prepare_count * _PREPARE_BYTES
        return _PREPARED_PROOF_BYTES + self.request.size_bytes + cert


@dataclass(frozen=True, slots=True)
class ViewChange:
    """<VIEW-CHANGE, v+1, n, C, P, i> requesting a move to *new_view*."""

    new_view: int
    last_stable_seq: int
    prepared: tuple[PreparedProof, ...]
    sender: int
    epoch: int = 0

    #: Message kind for dispatch and traffic accounting.
    kind: ClassVar[str] = "pbft.view_change"

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (verified by repro.codec)."""
        # wire layout: new_view + last_stable_seq + sender + proof count,
        # signature, then the prepared proofs
        return _VIEW_CHANGE_BYTES + sum(p.size_bytes for p in self.prepared)


@dataclass(frozen=True, slots=True)
class NewView:
    """<NEW-VIEW, v+1, V, O> from the new primary: proof of 2f+1 view
    changes plus the pre-prepares to re-run."""

    new_view: int
    view_change_senders: tuple[int, ...]
    pre_prepares: tuple[PrePrepare, ...]
    sender: int
    epoch: int = 0

    #: Message kind for dispatch and traffic accounting.
    kind: ClassVar[str] = "pbft.new_view"

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (verified by repro.codec)."""
        # wire layout: new_view + sender + two count words, signature,
        # one (sender word + signature) per view-change vote, then the
        # re-issued pre-prepares
        proof = len(self.view_change_senders) * _NEW_VIEW_VOTE_BYTES
        return (
            _NEW_VIEW_BYTES
            + proof
            + sum(p.size_bytes for p in self.pre_prepares)
        )
