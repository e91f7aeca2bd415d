"""Per-replica message log and quorum certificates.

The log tracks, for every (view, sequence) consensus instance, the
pre-prepare and the distinct replicas that sent matching prepare and
commit messages, and answers the two classic predicates:

* ``prepared(v, n)``  -- pre-prepare present plus **2f** prepares from
  distinct replicas (the pre-prepare counts as the primary's prepare);
* ``committed_local(v, n)`` -- prepared plus **2f+1** matching commits.

The voters are an ``int`` bitmask over committee positions, read
through the committee's shared :func:`roster`: a vote ORs in its
sender's bit and a quorum is a ``bit_count()``.  At n = 202 a mask is a
52-byte int where a ``set`` of ids was an 8 KiB hash table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConsensusError
from repro.common.quorum import max_faulty, quorum_size
from repro.pbft.messages import ClientRequest, Commit, Prepare, PrePrepare


@dataclass(slots=True)
class InstanceState:
    """Everything known about one (view, seq) consensus instance.

    ``prepared_flag`` and ``committed_flag`` are maintained
    incrementally by :class:`MessageLog` as votes arrive -- both
    predicates are monotone (vote masks only gain bits), so the flags
    flip once and the hot-path checks become attribute reads instead of
    re-counting the votes per message.  ``prepares`` and ``commits`` are
    bitmasks over the committee roster (:meth:`MessageLog.voters`
    decodes one).  ``digest`` is the accepted pre-prepare's, or the
    first vote's while none has arrived; votes for another digest are
    not counted.
    """

    view: int
    seq: int
    digest: bytes | None = None
    request: ClientRequest | None = None
    pre_prepare: PrePrepare | None = None
    prepares: int = 0
    commits: int = 0
    prepare_sent: bool = False
    commit_sent: bool = False
    executed: bool = False
    prepared_flag: bool = False
    committed_flag: bool = False


#: Cap on retained equivocation evidence.  One conflicting digest is
#: already a proof of primary misbehaviour; keeping a few dozen aids
#: debugging, but a spamming byzantine primary must not be able to grow
#: replica memory without bound.
MAX_CONFLICT_EVIDENCE = 64

#: Rosters cached, the oldest evicted past it.  A host holds a few
#: committees at once; the bound stops a long process that builds
#: committee after committee, and an evicted roster lives on where held.
ROSTER_BOUND = 64
_rosters: dict[tuple[int, ...], dict[int, int]] = {}


def roster(committee: tuple[int, ...]) -> dict[int, int]:
    """The roster of *committee*: member id -> ``1 << position``.

    Built once and shared, read-only, by every replica and client of
    the committee; a repeated id yields a roster shorter than it.
    """
    found = _rosters.get(committee)
    if found is None:
        found = {member: 1 << position for position, member in enumerate(committee)}
        if len(_rosters) >= ROSTER_BOUND:
            del _rosters[next(iter(_rosters))]
        _rosters[committee] = found
    return found


class MessageLog:
    """Quorum bookkeeping for one replica.

    Args:
        roster: the committee's :func:`roster`; a vote from an id it
            does not hold is not counted.
        replica_id: owner's node id (its own prepares/commits count).
        prepare_quorum: votes required by :meth:`prepared`; defaults to
            the protocol-correct ``2f+1`` (pre-prepare included).  Only
            fault models override it (see
            :meth:`~repro.pbft.faults.FaultModel.quorum_skew`).
        commit_quorum: votes required by :meth:`committed_local`;
            defaults to ``2f+1``.
    """

    def __init__(self, roster: dict[int, int], replica_id: int,
                 prepare_quorum: int | None = None,
                 commit_quorum: int | None = None) -> None:
        n = len(roster)
        if n < 4:
            raise ConsensusError(f"PBFT needs n >= 4 replicas, got {n}")
        self.n = n
        self._roster = roster
        self.f = max_faulty(n)
        self.replica_id = replica_id
        default_quorum = quorum_size(self.f)
        self.prepare_quorum = max(
            1, default_quorum if prepare_quorum is None else prepare_quorum)
        self.commit_quorum = max(
            1, default_quorum if commit_quorum is None else commit_quorum)
        self._instances: dict[tuple[int, int], InstanceState] = {}
        # digests seen per (view, seq) to detect primary equivocation
        self._conflicts: list[tuple[int, int, bytes, bytes]] = []

    def instance(self, view: int, seq: int) -> InstanceState:
        """Get-or-create the instance record for (view, seq)."""
        key = (view, seq)
        state = self._instances.get(key)
        if state is None:
            state = InstanceState(view=view, seq=seq)
            self._instances[key] = state
        return state

    def voters(self, mask: int) -> set[int]:
        """The member ids whose bits *mask* holds."""
        return {member for member, bit in self._roster.items() if mask & bit}

    def instances(self) -> list[InstanceState]:
        """All tracked instances, in (view, seq) order."""
        return [self._instances[key] for key in sorted(self._instances)]

    @property
    def conflicts(self) -> list[tuple[int, int, bytes, bytes]]:
        """Observed equivocations: (view, seq, accepted, conflicting)."""
        return list(self._conflicts)

    def _record_conflict(self, view: int, seq: int,
                         accepted: bytes, conflicting: bytes) -> None:
        """Retain equivocation evidence up to :data:`MAX_CONFLICT_EVIDENCE`."""
        if len(self._conflicts) < MAX_CONFLICT_EVIDENCE:
            self._conflicts.append((view, seq, accepted, conflicting))

    # -- message admission ----------------------------------------------------

    def add_pre_prepare(self, msg: PrePrepare) -> InstanceState | None:
        """Accept a pre-prepare and return its instance; ``None`` on conflict or duplicate.

        A conflicting digest for an already-accepted (view, seq) is
        recorded as equivocation evidence and rejected.
        """
        key = (msg.view, msg.seq)
        state = self._instances.get(key)
        if state is None:
            state = self._instances[key] = InstanceState(msg.view, msg.seq)
        if state.pre_prepare is not None:
            if state.digest != msg.digest:
                self._record_conflict(msg.view, msg.seq, state.digest, msg.digest)
            return None
        if state.digest is not None and state.digest != msg.digest:
            # prepares arrived first with a different digest
            self._record_conflict(msg.view, msg.seq, state.digest, msg.digest)
            return None
        state.pre_prepare = msg
        state.digest = msg.digest
        state.request = msg.request
        # the primary's pre-prepare doubles as its prepare, and may be
        # what completes a quorum of votes that arrived ahead of it
        state.prepares = prepares = state.prepares | self._roster.get(msg.sender, 0)
        if prepares.bit_count() >= self.prepare_quorum:
            state.prepared_flag = True
            if state.commits.bit_count() >= self.commit_quorum:
                state.committed_flag = True
        return state

    def add_prepare(self, msg: Prepare) -> InstanceState:
        """Count a prepare and hand back the instance it belongs to.

        One body per vote: get-or-create, roster and digest checks,
        count, flags.  The instance comes back whether or not the vote
        counted, so the caller advances it without a second lookup; a
        vote from outside the roster (which fixes no digest either) or
        for another digest leaves ``prepares`` as it was.
        """
        key = (msg.view, msg.seq)
        state = self._instances.get(key)
        if state is None:
            state = self._instances[key] = InstanceState(msg.view, msg.seq)
        bit = self._roster.get(msg.sender)
        if bit is None:
            return state
        if state.digest is None:
            state.digest = msg.digest
        elif state.digest != msg.digest:
            return state
        state.prepares = prepares = state.prepares | bit
        if (not state.prepared_flag and state.pre_prepare is not None
                and prepares.bit_count() >= self.prepare_quorum):
            state.prepared_flag = True
            if state.commits.bit_count() >= self.commit_quorum:
                state.committed_flag = True
        return state

    def add_commit(self, msg: Commit) -> InstanceState:
        """Count a commit and hand back the instance it belongs to.

        Same contract as :meth:`add_prepare`, on ``commits``.
        """
        key = (msg.view, msg.seq)
        state = self._instances.get(key)
        if state is None:
            state = self._instances[key] = InstanceState(msg.view, msg.seq)
        bit = self._roster.get(msg.sender)
        if bit is None:
            return state
        if state.digest is None:
            state.digest = msg.digest
        elif state.digest != msg.digest:
            return state
        state.commits = commits = state.commits | bit
        if (state.prepared_flag and not state.committed_flag
                and commits.bit_count() >= self.commit_quorum):
            state.committed_flag = True
        return state

    # -- predicates -------------------------------------------------------------

    def prepared(self, view: int, seq: int) -> bool:
        """Castro-Liskov *prepared*: pre-prepare + 2f distinct prepares.

        Answered from the incrementally maintained flag; the flag is
        re-derived on every accepted vote, so this is an O(1) read.
        """
        state = self._instances.get((view, seq))
        return state is not None and state.prepared_flag

    def committed_local(self, view: int, seq: int) -> bool:
        """*committed-local*: prepared plus 2f+1 matching commits."""
        state = self._instances.get((view, seq))
        return state is not None and state.committed_flag

    # -- view change support -------------------------------------------------

    def prepared_instances(self, min_seq: int) -> list[InstanceState]:
        """Prepared-but-possibly-unexecuted instances above *min_seq*,
        ordered by sequence (the P set of a view-change message)."""
        out = [
            s
            for (v, n), s in self._instances.items()
            if n > min_seq and self.prepared(v, n)
        ]
        # keep only the highest view per seq (a request re-prepared in a
        # later view supersedes the earlier certificate)
        best: dict[int, InstanceState] = {}
        for s in out:
            cur = best.get(s.seq)
            if cur is None or s.view > cur.view:
                best[s.seq] = s
        return [best[k] for k in sorted(best)]

    def garbage_collect(self, stable_seq: int) -> int:
        """Drop instances at or below the stable checkpoint *stable_seq*."""
        victims = [key for key in self._instances if key[1] <= stable_seq]
        for key in victims:
            del self._instances[key]
        return len(victims)
