"""The incentive mechanism (paper section III-B5).

* Block producers are selected with probability proportional to their
  geographic timer ("a longer time in the geographic timer will have a
  higher chance of generating a new block").
* The producer of a block earns **70 %** of its transaction fees
  (``PRODUCER_SHARE``); the endorsers who endorsed it share the
  remaining **30 %** (``ENDORSER_SHARE``).
* Producing a block resets the producer's geographic timer.
* Endorsers flagged for misbehaviour (missed block / fork) are excluded
  from rewards until cleared.

Producer selection must be *identical at every endorser* without extra
communication, so it hashes the (era, height) coordinates with the
timer-weight vector into a deterministic lottery draw.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass

from repro.common.errors import ConsensusError

#: Share of a block's fees paid to its producer (section III-B5).
PRODUCER_SHARE = 0.70
#: Share of a block's fees split among the other endorsers.
ENDORSER_SHARE = 0.30


def select_producer(
    timers: dict[int, float],
    era: int,
    height: int,
    attempt: int = 0,
) -> int:
    """Deterministically pick the next block producer.

    Args:
        timers: endorser id -> geographic timer seconds (>= 0).
        era: current era (lottery domain separation).
        height: chain height the block will occupy.
        attempt: fallback round.  The lottery for a given (era, height)
            is deterministic, so a crashed winner would stall block
            production forever; endorsers that see no block appear
            within a production interval re-draw with attempt+1, which
            rotates the duty to a different (eventually every) member.

    Every honest endorser evaluating this with the same inputs picks the
    same producer.  When all timers are zero the draw is uniform.

    Raises:
        ConsensusError: on an empty or negative-weighted timer map.
    """
    if not timers:
        raise ConsensusError("cannot select a producer from an empty committee")
    nodes = sorted(timers)
    if any(timers[n] < 0 for n in nodes):
        raise ConsensusError("geographic timers must be non-negative")
    seed = hashlib.sha256(f"producer:{era}:{height}:{attempt}".encode()).digest()
    draw = int.from_bytes(seed[:8], "big") / float(1 << 64)
    total = sum(timers[n] for n in nodes)
    if total <= 0:
        return nodes[int(draw * len(nodes)) % len(nodes)]
    threshold = draw * total
    acc = 0.0
    for n in nodes:
        acc += timers[n]
        if acc >= threshold:
            return n
    return nodes[-1]


@dataclass(frozen=True, slots=True)
class RewardEvent:
    """Ledger line of one block's payout."""

    height: int
    producer: int
    producer_reward: float
    endorser_reward_each: float
    endorsers_paid: tuple[int, ...]


class IncentiveEngine:
    """Account balances and payout rules."""

    def __init__(self) -> None:
        self.balances: dict[int, float] = defaultdict(float)
        self.blocks_produced: dict[int, int] = defaultdict(int)
        self._excluded: set[int] = set()
        self.history: list[RewardEvent] = []
        # (endorsers, producer, the other endorsers sorted) of the last
        # block paid: a committee pays block after block the same way
        self._others_of: tuple = (None, None, ())

    # -- sanctions ----------------------------------------------------------

    def exclude(self, node: int) -> None:
        """Stop paying *node* (missed block / caused fork)."""
        self._excluded.add(node)

    def reinstate(self, node: int) -> None:
        """Clear a sanction."""
        self._excluded.discard(node)

    # -- payouts ------------------------------------------------------------

    def on_block(self, height: int, producer: int, endorsers, total_fee: float) -> RewardEvent:
        """Pay out one committed block's fees.

        The producer gets ``PRODUCER_SHARE``; the *other* endorsers split
        ``ENDORSER_SHARE`` equally.  Excluded nodes are skipped (their
        share is burned, not redistributed -- misbehaviour must not
        increase anyone's payout).

        Raises:
            ConsensusError: on a negative fee.
        """
        if total_fee < 0:
            raise ConsensusError("total fee must be >= 0")
        producer_cut = PRODUCER_SHARE * total_fee
        endorser_pool = ENDORSER_SHARE * total_fee
        last_endorsers, last_producer, others = self._others_of
        if producer != last_producer or endorsers != last_endorsers:
            others = tuple(e for e in sorted(set(endorsers)) if e != producer)
            self._others_of = (tuple(endorsers), producer, others)
        per_endorser = endorser_pool / len(others) if others else 0.0

        excluded = self._excluded
        balances = self.balances
        if producer not in excluded:
            balances[producer] += producer_cut
        self.blocks_produced[producer] += 1
        paid = [e for e in others if e not in excluded] if excluded else others
        for e in paid:
            balances[e] += per_endorser

        event = RewardEvent(
            height=height,
            producer=producer,
            producer_reward=producer_cut if producer not in self._excluded else 0.0,
            endorser_reward_each=per_endorser,
            endorsers_paid=tuple(paid),
        )
        self.history.append(event)
        return event

    def balance(self, node: int) -> float:
        """Current balance of *node*."""
        return self.balances.get(node, 0.0)
