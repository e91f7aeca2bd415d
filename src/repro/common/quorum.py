"""Shared Byzantine quorum arithmetic and primary rotation.

Every quorum threshold in the protocol stack comes from this module,
so an off-by-one (``2f`` instead of ``2f+1``, or ``n - f`` confusion)
has one place to live.  Two checks catch one: the
``quorum-certificate`` monitor (:mod:`repro.verify.invariants`) fails a
run in which a replica executes on fewer than ``2f + 1`` prepares or
commits (``tests/test_verify.py`` plants a ``2f`` threshold to hold it
to that), and ``tests/test_common_primitives.py::TestQuorum`` tables
these functions against n = 3f+1, 3f+2 and 3f+3 for every n up to 202.

The arithmetic follows Castro & Liskov (OSDI'99): with ``n = 3f + 1``
replicas, safety needs any two quorums to intersect in at least one
honest replica, hence quorums of ``2f + 1``.
"""

from __future__ import annotations

from repro.common.errors import QuorumError


def max_faulty(n: int) -> int:
    """Largest tolerable number of Byzantine replicas: ``f = (n-1) // 3``.

    Raises:
        QuorumError: if *n* cannot host a BFT quorum system (n < 4).
    """
    if n < 4:
        raise QuorumError(f"BFT needs n >= 4 replicas, got {n}")
    return (n - 1) // 3


def tolerated_faults(n: int) -> int:
    """``(n - 1) // 3`` without the BFT minimum-size requirement.

    Clients and experiment sweeps legitimately meet degenerate
    committees (``n < 4`` during bootstrap, capped endorser subsets);
    those tolerate zero faults rather than being a configuration error.
    Use :func:`max_faulty` wherever a real quorum system is required.

    Raises:
        QuorumError: if *n* is not positive.
    """
    if n < 1:
        raise QuorumError(f"committee size must be >= 1, got {n}")
    return (n - 1) // 3


def quorum_size(f: int) -> int:
    """The ``2f + 1`` vote threshold for prepare/commit/view-change quorums.

    Raises:
        QuorumError: if *f* is negative.
    """
    if f < 0:
        raise QuorumError(f"fault bound must be >= 0, got {f}")
    return 2 * f + 1


def weak_certificate_size(f: int) -> int:
    """The ``f + 1`` threshold proving at least one honest vote.

    Used by clients accepting matching replies and by replicas adopting
    a view-change they have only heard about.

    Raises:
        QuorumError: if *f* is negative.
    """
    if f < 0:
        raise QuorumError(f"fault bound must be >= 0, got {f}")
    return f + 1


def primary_for_view(view: int, committee_size: int) -> int:
    """Return the index of the primary replica for *view*.

    PBFT rotates the primary round-robin: ``p = v mod |R|`` (Castro &
    Liskov, OSDI'99 section 4).  The result is an *index into the ordered
    committee*, not a node id.

    Raises:
        ValueError: if the committee is empty or the view negative.
    """
    if committee_size <= 0:
        raise ValueError("committee must be non-empty")
    if view < 0:
        raise ValueError("view must be non-negative")
    return view % committee_size
