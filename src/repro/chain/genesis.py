"""The genesis block: initial endorsers and admittance policies.

Section III-C: "The information of the initiated endorsers is contained
in the genesis block.  It can be acquired by all nodes ...  Besides, the
genesis block contains extra admittance policies, such as blacklist,
whitelist, minimum number, and maximum number of endorsers."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import CommitteeConfig
from repro.common.errors import MembershipError
from repro.crypto.hashing import digest_concat
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.address import address_from_public_key
from repro.geo.coords import LatLng
from repro.geo.csc import CryptoSpatialCoordinate
from repro.chain.block import Block


@dataclass(frozen=True, slots=True)
class EndorserRecord:
    """Identity of one initial (core) endorser stored in genesis.

    Attributes:
        node: endorser node id.
        public_key: verification key other endorsers use during PBFT.
        csc: the fixed location the endorser is anchored to.
    """

    node: int
    public_key: PublicKey
    csc: CryptoSpatialCoordinate

    @classmethod
    def for_node(cls, node: int, position: LatLng) -> "EndorserRecord":
        """Derive the record of *node* standing at *position*."""
        keys = KeyPair.generate(node)
        anchor = address_from_public_key(keys.public)
        return cls(
            node=node,
            public_key=keys.public,
            csc=CryptoSpatialCoordinate.from_point(position, anchor),
        )


@dataclass(frozen=True, slots=True)
class GenesisBlock:
    """Era-0 chain configuration, readable by every node.

    One artifact per deployment: the sorted committee, the digest and
    block 0 are derived once, when the genesis is validated, so every
    node's ledger holds the same block 0 object (blocks are immutable).

    Attributes:
        endorsers: the core nodes appointed at system initiation.
        policy: admittance policy (min/max/blacklist/whitelist).
        chain_id: label binding blocks to this deployment.
        endorser_ids: sorted ids of the era-0 committee (derived).
    """

    endorsers: tuple[EndorserRecord, ...]
    policy: CommitteeConfig
    chain_id: str = "gpbft-sim"
    endorser_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _block: Block = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = [e.node for e in self.endorsers]
        if len(set(ids)) != len(ids):
            raise MembershipError("duplicate endorser ids in genesis")
        if len(ids) < self.policy.min_endorsers:
            raise MembershipError(
                f"genesis lists {len(ids)} endorsers but policy requires "
                f">= {self.policy.min_endorsers}"
            )
        if len(ids) > self.policy.max_endorsers:
            raise MembershipError(
                f"genesis lists {len(ids)} endorsers but policy caps at "
                f"{self.policy.max_endorsers}"
            )
        banned = set(ids) & self.policy.blacklist
        if banned:
            raise MembershipError(f"blacklisted nodes in genesis committee: {sorted(banned)}")
        parts = [self.chain_id.encode()]
        for e in sorted(self.endorsers, key=lambda r: r.node):
            parts += (str(e.node).encode(), e.public_key.value, e.csc.key().encode())
        parts.append(repr((self.policy.min_endorsers, self.policy.max_endorsers)).encode())
        parts.append(repr(sorted(self.policy.blacklist)).encode())
        parts.append(repr(sorted(self.policy.whitelist)).encode())
        ids.sort()
        object.__setattr__(self, "endorser_ids", tuple(ids))
        object.__setattr__(self, "_block", Block.assemble(
            height=0, parent=digest_concat(*parts), era=0, view=0, seq=0,
            proposer=ids[0], timestamp=0.0, transactions=()))

    def digest(self) -> bytes:
        """Digest the genesis config (block 0's parent anchor)."""
        return self._block.header.parent

    def block(self) -> Block:
        """Block 0 (no transactions, era 0), the same object every call."""
        return self._block


def build_genesis(
    endorser_positions: dict[int, LatLng],
    policy: CommitteeConfig | None = None,
) -> GenesisBlock:
    """Build a genesis block for core endorsers at the given positions.

    Args:
        endorser_positions: node id -> fixed physical location.
        policy: admittance policy; defaults to the paper's (min 4, max 40).
    """
    records = tuple(
        EndorserRecord.for_node(node, pos)
        for node, pos in sorted(endorser_positions.items())
    )
    return GenesisBlock(endorsers=records, policy=policy or CommitteeConfig())
