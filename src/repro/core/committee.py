"""Committee management under the genesis admittance policy.

Applies the paper's rules (section III-C):

* nodes on the **blacklist** never join;
* nodes on the **whitelist** join without geographic qualification;
* below **min_endorsers** the system stops committing transactions;
* at **max_endorsers** the election is suspended -- no additions until
  members leave (evictions still apply; safety beats growth).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CommitteeConfig
from repro.common.errors import MembershipError


@dataclass(frozen=True, slots=True)
class MembershipDelta:
    """The outcome of one election round.

    Attributes:
        added: ids admitted to the next era's committee.
        removed: ids evicted from it.
        rejected: id -> reason, for nodes that applied but were refused.
    """

    added: tuple[int, ...]
    removed: tuple[int, ...]
    rejected: dict[int, str]

    @property
    def empty(self) -> bool:
        """True iff the committee composition is unchanged."""
        return not self.added and not self.removed


class CommitteeManager:
    """Checks a committee against the admittance policy and plans deltas.

    The node's ``committee`` is the one copy of the membership; a node
    builds a new manager for each era's committee.

    Args:
        initial: era-0 committee (from the genesis block).
        policy: admittance policy (also from the genesis block).
    """

    def __init__(self, initial, policy: CommitteeConfig | None = None) -> None:
        self.policy = policy or CommitteeConfig()
        members = tuple(sorted(set(initial)))
        # the hard floor is PBFT's 4 replicas; a committee between 4 and
        # min_endorsers is representable but the system halts new
        # transactions until an era switch restores the minimum
        if len(members) < 4:
            raise MembershipError(
                f"committee of {len(members)} below the PBFT floor of 4"
            )
        if len(members) > self.policy.max_endorsers:
            raise MembershipError(
                f"initial committee of {len(members)} above maximum "
                f"{self.policy.max_endorsers}"
            )
        banned = set(members) & self.policy.blacklist
        if banned:
            raise MembershipError(f"blacklisted members in initial committee: {sorted(banned)}")
        self._members = members

    @property
    def size(self) -> int:
        """Current committee size."""
        return len(self._members)

    # -- election -----------------------------------------------------------

    def plan_delta(self, qualified, invalid) -> MembershipDelta:
        """Turn Algorithm-1 verdicts into an admittance-checked delta.

        Args:
            qualified: candidate ids that passed geographic qualification
                (whitelisted nodes are admitted even if absent here).
            invalid: member ids that failed re-authentication.

        Evictions are applied first; additions then fill remaining
        capacity in ascending id order (whitelisted candidates first).
        Evictions never push the committee below the PBFT floor of 4
        (the excess invalid members are kept, flagged, rather than
        breaking quorum arithmetic), but they *may* push it below
        ``min_endorsers`` -- in that state the system halts new
        transactions until an era switch restores the minimum
        (paper section III-C).
        """
        rejected: dict[int, str] = {}
        member_set = set(self._members)

        removable = [m for m in sorted(set(invalid)) if m in member_set]
        floor = 4
        max_removals = max(0, self.size - floor)
        if len(removable) > max_removals:
            for kept in removable[max_removals:]:
                rejected[kept] = "eviction deferred: committee at the PBFT floor"
            removable = removable[:max_removals]

        capacity = self.policy.max_endorsers - (self.size - len(removable))
        additions: list[int] = []
        whitelisted = [c for c in sorted(set(qualified)) if c in self.policy.whitelist]
        ordinary = [c for c in sorted(set(qualified)) if c not in self.policy.whitelist]
        for candidate in whitelisted + ordinary:
            if candidate in member_set:
                rejected[candidate] = "already a member"
                continue
            if candidate in self.policy.blacklist:
                rejected[candidate] = "blacklisted"
                continue
            if len(additions) >= capacity:
                rejected[candidate] = "committee at maximum size"
                continue
            additions.append(candidate)

        return MembershipDelta(
            added=tuple(additions), removed=tuple(removable), rejected=rejected
        )
