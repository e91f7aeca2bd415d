"""Fault models: pluggable byzantine/crash behaviour for replicas.

Fault-injection tests and the adversary-tolerance experiments attach one
of these to a replica.  The replica consults its fault model at each
decision point; :class:`HonestFaults` (the default) never interferes, so
the honest path pays one virtual call and no branching complexity.
"""

from __future__ import annotations

from repro.common.errors import ConsensusError
from repro.crypto.hashing import sha256


class FaultModel:
    """Base class: fully honest behaviour."""

    #: True while the node ignores all input (crash fault).
    crashed: bool = False

    #: True for a zone gateway that skips the top-level checkpoint
    #: ordering and ships inter-zone transactions straight to the
    #: destination zone (hierarchical safety bug for mutation tests).
    xzone_bypass: bool = False

    def drop_incoming(self, kind: str) -> bool:
        """Return True to silently ignore an incoming message."""
        return self.crashed

    def suppress_send(self, kind: str) -> bool:
        """Return True to withhold an outgoing message."""
        return self.crashed

    def mutate_digest(self, digest: bytes, dst: int) -> bytes:
        """Optionally corrupt a digest on a per-destination basis."""
        return digest

    def quorum_skew(self, phase: str) -> int:
        """Votes added to (or, negative, shaved off) a quorum threshold.

        Consulted once at replica construction for *phase* in
        ``("prepare", "commit")``.  Honest replicas return 0; the
        mutation self-tests of ``repro.verify`` return a negative skew
        to plant a deliberate quorum-counting bug that the invariant
        monitors must catch.
        """
        return 0


class HonestFaults(FaultModel):
    """Explicit alias for the no-fault behaviour."""


class CrashFaults(FaultModel):
    """Node that stops participating after :meth:`crash` is called."""

    def __init__(self, crashed: bool = False) -> None:
        self.crashed = crashed

    def crash(self) -> None:
        """Stop reacting to anything from now on."""
        self.crashed = True

    def recover(self) -> None:
        """Resume normal operation (amnesia-free recovery)."""
        self.crashed = False


class EquivocatingFaults(FaultModel):
    """Byzantine primary that sends conflicting digests to half its peers.

    Destinations with even node ids receive the true digest; odd ids get
    a corrupted one.  With f such faults and n >= 3f+1 the protocol must
    still never commit two different requests at one sequence -- the
    safety property the byzantine tests check.
    """

    def mutate_digest(self, digest: bytes, dst: int) -> bytes:
        """Corrupt digests bound for odd-numbered peers."""
        if dst % 2 == 1:
            return sha256(b"equivocation:" + digest)
        return digest


class MuteFaults(FaultModel):
    """Node that receives but never sends (tests liveness accounting)."""

    def suppress_send(self, kind: str) -> bool:
        """Withhold matching outgoing messages."""
        return True


class QuorumUndercountFaults(FaultModel):
    """Deliberate quorum-counting bug (a *mutation*, not an attack).

    A replica with this model treats ``2f+1 - 2`` votes as a full
    quorum: it declares *prepared* / *committed-local* two votes early,
    exactly the class of off-by-a-vote bug a refactor of the counting
    logic could introduce.
    ``repro.verify``'s mutation self-test installs it and asserts that
    the quorum-certificate monitor flags the premature execution and
    that the schedule explorer finds and shrinks a failing schedule.
    """

    def quorum_skew(self, phase: str) -> int:
        """Shave two votes off both quorum thresholds."""
        return -2


class SelectiveDropFaults(FaultModel):
    """Drops specific message kinds in both directions.

    Args:
        kinds: message kinds (e.g. ``{"pbft.commit"}``) to drop.
    """

    def __init__(self, kinds: set[str]) -> None:
        if not kinds:
            raise ConsensusError("SelectiveDropFaults needs at least one kind")
        self.kinds = set(kinds)

    def drop_incoming(self, kind: str) -> bool:
        """Ignore matching incoming messages."""
        return kind in self.kinds

    def suppress_send(self, kind: str) -> bool:
        """Withhold matching outgoing messages."""
        return kind in self.kinds


class XZoneBypassFaults(FaultModel):
    """Zone gateway that forwards inter-zone txs without global ordering.

    Attached to a *zone index* (not a node id) in hierarchical
    deployments: the zone's gateway sends committed outbound envelopes
    directly to the destination gateway instead of batching them into a
    checkpoint for the top-level committee.  The destination zone then
    commits transactions the top layer never ordered -- exactly the
    violation the ``cross-shard-prefix`` monitor exists to catch.
    """

    xzone_bypass = True
