"""Chain-based Proof-of-Stake (Peercoin/NXT style) over the simulator.

Model
-----
Time is divided into slots; the leader of each slot is drawn
deterministically with probability proportional to stake (the same
committable lottery the G-PBFT incentive engine uses).  The leader
packs its mempool into a block and broadcasts it; a transaction is
committed when its block is ``CONFIRMATIONS`` slots deep.  No hashing
is expended -- that is PoS's entire computing-overhead story -- but the
broadcast traffic and multi-slot confirmation latency remain.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.common.config import NetworkConfig
from repro.common.errors import ConfigurationError
from repro.common.eventlog import EV_POS_BLOCK, EV_POS_COMMITTED, EventLog
from repro.common.rng import DeterministicRNG
from repro.net.message import RawPayload
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator

#: Block capacity (transactions).
MAX_TXS_PER_BLOCK = 500
#: Seconds between slots (block time).
SLOT_INTERVAL_S = 15.0
#: Depth at which a transaction is final.
CONFIRMATIONS = 2
#: Kind of the transaction-announcement gossip, a ``RawPayload``
#: carrying the tx id.
TX_KIND = "pos.tx"


@dataclass(frozen=True, slots=True)
class _PoSBlock:
    slot: int
    proposer: int
    tx_ids: tuple[str, ...]

    @property
    def kind(self) -> str:
        return EV_POS_BLOCK

    @property
    def size_bytes(self) -> int:
        return 80 + 200 * len(self.tx_ids)


def slot_leader(stakes: dict[int, float], slot: int) -> int:
    """Deterministic stake-weighted leader of *slot*.

    Raises:
        ConfigurationError: on empty or non-positive total stake.
    """
    if not stakes:
        raise ConfigurationError("no validators")
    nodes = sorted(stakes)
    total = sum(max(0.0, stakes[v]) for v in nodes)
    if total <= 0:
        raise ConfigurationError("total stake must be positive")
    seed = hashlib.sha256(f"pos-slot:{slot}".encode()).digest()
    draw = int.from_bytes(seed[:8], "big") / float(1 << 64) * total
    acc = 0.0
    for node in nodes:
        acc += max(0.0, stakes[node])
        if acc >= draw:
            return node
    return nodes[-1]


class PoSNetwork:
    """n validators proposing in slots over the simulated network.

    Args:
        n_validators: network size.
        stakes: validator -> stake; uniform when omitted.
        seed: deterministic run seed.
    """

    def __init__(
        self,
        n_validators: int,
        stakes: dict[int, float] | None = None,
        seed: int = 0,
    ) -> None:
        if n_validators < 1:
            raise ConfigurationError("need at least one validator")
        self.n = n_validators
        self.stakes = stakes or {v: 1.0 for v in range(n_validators)}
        if set(self.stakes) != set(range(n_validators)):
            raise ConfigurationError("stakes must cover exactly the validator set")
        self.sim = Simulator()
        self.network = SimulatedNetwork(
            self.sim, NetworkConfig(seed=seed, processing_rate=1e9))
        self.rng = DeterministicRNG(seed, "pos")
        self.events = EventLog()
        self.mempools: dict[int, set[str]] = {v: set() for v in range(n_validators)}
        self.chain: list[_PoSBlock] = []
        self._tx_submit_times: dict[str, float] = {}
        self._committed_at: dict[str, float] = {}
        self._block_of_tx: dict[str, int] = {}
        for validator in range(n_validators):
            self.network.register(validator, self._make_handler(validator))
        self._slot = 0
        self.sim.schedule(SLOT_INTERVAL_S, self._run_slot)

    def _make_handler(self, validator: int):
        def handle(payload) -> None:
            if payload.kind == TX_KIND:
                self.mempools[validator].add(payload.body)
            elif payload.kind == EV_POS_BLOCK:
                self.mempools[validator] -= set(payload.tx_ids)
        return handle

    def _run_slot(self) -> None:
        self._slot += 1
        leader = slot_leader(self.stakes, self._slot)
        txs = tuple(sorted(self.mempools[leader]))[:MAX_TXS_PER_BLOCK]
        block = _PoSBlock(slot=self._slot, proposer=leader, tx_ids=txs)
        self.mempools[leader] -= set(txs)
        self.chain.append(block)
        for tx_id in txs:
            self._block_of_tx[tx_id] = len(self.chain) - 1
        self.network.multicast(leader, range(self.n), block)
        self.events.record(self.sim.now, EV_POS_BLOCK, leader, self._slot, len(txs))
        self._update_commitments()
        self.sim.schedule(SLOT_INTERVAL_S, self._run_slot)

    def _update_commitments(self) -> None:
        tip = len(self.chain) - 1
        for tx_id, index in self._block_of_tx.items():
            if tx_id in self._committed_at:
                continue
            if tip - index + 1 >= CONFIRMATIONS:
                self._committed_at[tx_id] = self.sim.now
                self.events.record(
                    self.sim.now, EV_POS_COMMITTED, -1, tx_id,
                    self.sim.now - self._tx_submit_times[tx_id])

    # -- workload & measurement -------------------------------------------

    def submit_tx(self, tx_id: str) -> None:
        """Announce a transaction from validator 0 to every mempool."""
        self._tx_submit_times[tx_id] = self.sim.now
        self.mempools[0].add(tx_id)
        self.network.multicast(0, range(self.n), RawPayload(TX_KIND, 200, tx_id))

    def run(self, until: float) -> None:
        """Advance the simulation."""
        self.sim.run(until=until)

    def commit_latencies(self) -> dict[str, float]:
        """tx id -> seconds from submission to k-deep confirmation."""
        return {
            tx: at - self._tx_submit_times[tx]
            for tx, at in self._committed_at.items()
        }
