"""Sybil attacker models.

A Sybil attacker controls one physical machine but registers many cheap
identities, each reporting a fabricated fixed location long enough to
pass the 72-hour election rule.  If more than 1/3 of a PBFT committee
ends up Sybil, the attacker controls consensus -- the scenario G-PBFT's
geographic checks are designed to prevent.

Strategies model what a real attacker could fabricate:

* ``CLONE_CELL`` -- claim exactly the cells of existing honest fixed
  devices (defeated by the exclusivity rule: two ids, one cell);
* ``EMPTY_CELL`` -- claim plausible but unoccupied positions (defeated
  by witness corroboration: nobody nearby ever observes the device);
* ``OWN_CELL`` -- report the attacker's single true position for every
  identity (defeated by exclusivity among the Sybils themselves).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import ConsensusError
from repro.common.rng import DeterministicRNG
from repro.geo.coords import LatLng, Region
from repro.geo.reports import GeoReport


class SybilStrategy(enum.Enum):
    """How fabricated location claims are chosen."""

    CLONE_CELL = "clone_cell"
    EMPTY_CELL = "empty_cell"
    OWN_CELL = "own_cell"


@dataclass(frozen=True, slots=True)
class SybilIdentity:
    """One fake identity and the position it consistently claims.

    Attributes:
        node_id: the network identity the attacker registered.
        claimed_position: the fabricated fixed location.
        true_position: where the attacker's hardware actually sits.
    """

    node_id: int
    claimed_position: LatLng
    true_position: LatLng


class SybilAttacker:
    """Plans and emits fabricated reports for a set of Sybil identities.

    Args:
        true_position: the attacker's single physical location.
        region: deployment area to fabricate positions inside.
        strategy: claim-selection strategy.
        rng: deterministic stream for fabricated placements.
    """

    def __init__(
        self,
        true_position: LatLng,
        region: Region,
        strategy: SybilStrategy = SybilStrategy.EMPTY_CELL,
        rng: DeterministicRNG | None = None,
    ) -> None:
        self.true_position = true_position
        self.region = region
        self.strategy = strategy
        self.rng = rng or DeterministicRNG(0, "sybil")
        self.identities: list[SybilIdentity] = []

    def spawn_identities(
        self,
        node_ids,
        honest_positions: dict[int, LatLng] | None = None,
    ) -> list[SybilIdentity]:
        """Create one identity per id in *node_ids*.

        Args:
            node_ids: fresh network ids the attacker registered.
            honest_positions: existing devices' true positions; required
                by ``CLONE_CELL`` (the cells to clone).

        Raises:
            ConsensusError: if CLONE_CELL is chosen without positions.
        """
        # node-id order: which honest cell each identity clones must not
        # depend on the caller's dict construction order
        honest = [pos for _, pos in sorted((honest_positions or {}).items())]
        if self.strategy is SybilStrategy.CLONE_CELL and not honest:
            raise ConsensusError("CLONE_CELL needs honest positions to clone")
        created = []
        for i, node_id in enumerate(node_ids):
            if self.strategy is SybilStrategy.CLONE_CELL:
                claimed = honest[i % len(honest)]
            elif self.strategy is SybilStrategy.OWN_CELL:
                claimed = self.true_position
            else:  # EMPTY_CELL
                claimed = self.region.sample(self.rng)
            identity = SybilIdentity(
                node_id=node_id,
                claimed_position=claimed,
                true_position=self.true_position,
            )
            created.append(identity)
        self.identities.extend(created)
        return created

    def fabricate_report(self, identity: SybilIdentity, now: float) -> GeoReport:
        """One periodic report claiming the identity's fabricated spot."""
        return GeoReport(node=identity.node_id, position=identity.claimed_position, timestamp=now)

    def committee_fraction(self, committee) -> float:
        """Fraction of *committee* the attacker controls."""
        if not committee:
            return 0.0
        owned = {i.node_id for i in self.identities}
        return len(owned & set(committee)) / len(committee)

    def controls_consensus(self, committee) -> bool:
        """True iff the attacker holds >= 1/3 of the committee -- the
        threshold beyond which PBFT safety/liveness is theirs."""
        return self.committee_fraction(committee) >= 1.0 / 3.0
