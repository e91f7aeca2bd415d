"""NEO-style delegated BFT: stake-voted delegates run PBFT.

Model
-----
Validators vote with their stake for delegates; the top-c by received
stake form the consensus committee, which runs the *same* PBFT engine
as the rest of this repository (one more demonstration that G-PBFT's
novelty is the *geographic* selection, not the committee mechanics).
NEO produces a block roughly every 15 seconds; dBFT's latency floor is
that block interval, which is why the paper's Table IV rates it "Low"
speed despite the small committee.
"""

from __future__ import annotations

from repro.common.config import GPBFTConfig, NetworkConfig, TopologySpec
from repro.common.errors import ConfigurationError
from repro.common.eventlog import EV_DBFT_COMMITTED
from repro.pbft.messages import RawOperation

#: Block capacity (transactions).
MAX_TXS_PER_BLOCK = 500
#: Committee size (NEO runs 7).
N_DELEGATES = 7
#: Minimum spacing between blocks (15 s in NEO).
BLOCK_INTERVAL_S = 15.0


def elect_delegates(stakes: dict[int, float], votes: dict[int, int], c: int) -> tuple[int, ...]:
    """Stake-weighted delegate election.

    Args:
        stakes: voter -> stake.
        votes: voter -> candidate it votes for.
        c: committee size.

    Returns:
        The ``c`` candidates with the most received stake (ties broken
        by ascending id, so the election is deterministic).

    Raises:
        ConfigurationError: if fewer than ``c`` candidates received votes.
    """
    received: dict[int, float] = {}
    for voter, candidate in votes.items():
        received[candidate] = received.get(candidate, 0.0) + stakes.get(voter, 0.0)
    ranked = sorted(received, key=lambda cand: (-received[cand], cand))
    if len(ranked) < c:
        raise ConfigurationError(f"only {len(ranked)} candidates received votes, need {c}")
    return tuple(sorted(ranked[:c]))


class DBFTNetwork:
    """A dBFT deployment: delegates run PBFT, blocks are paced.

    Args:
        n_validators: total stakeholders (only delegates run consensus).
        seed: deterministic run seed.
    """

    def __init__(self, n_validators: int, seed: int = 0) -> None:
        if n_validators < N_DELEGATES:
            raise ConfigurationError("fewer validators than delegates")
        # every validator votes for (id mod delegates), a deterministic
        # stand-in for NEO's on-chain voting market
        stakes = {v: 1.0 + (v % 5) for v in range(n_validators)}
        votes = {v: v % N_DELEGATES for v in range(n_validators)}
        self.delegates = elect_delegates(stakes, votes, N_DELEGATES)
        cluster_config = GPBFTConfig(network=NetworkConfig(seed=seed))
        self.cluster = TopologySpec.cluster(
            n_replicas=len(self.delegates), n_clients=1, config=cluster_config
        ).build()
        self.sim = self.cluster.sim
        self.events = self.cluster.events
        self._pending: list[str] = []
        self._submit_times: dict[str, float] = {}
        self._committed_at: dict[str, float] = {}
        self._block_counter = 0
        self.sim.schedule(BLOCK_INTERVAL_S, self._produce_block)

    def _produce_block(self) -> None:
        """Pack pending txs into one block-operation and order it."""
        if self._pending:
            batch = self._pending[:MAX_TXS_PER_BLOCK]
            del self._pending[: len(batch)]
            self._block_counter += 1
            op_id = f"dbft-block-{self._block_counter}"
            size = 80 + 200 * len(batch)
            rid = self.cluster.submit(RawOperation(op_id=op_id, size_bytes=size))
            self._watch_block(rid, tuple(batch))
        self.sim.schedule(BLOCK_INTERVAL_S, self._produce_block)

    def _watch_block(self, rid: str, batch: tuple[str, ...]) -> None:
        client = self.cluster.any_client

        def check() -> None:
            if rid in client.completed:
                for tx_id in batch:
                    self._committed_at[tx_id] = self.sim.now
                    self.events.record(
                        self.sim.now, EV_DBFT_COMMITTED, -1, tx_id,
                        self.sim.now - self._submit_times[tx_id])
            else:
                self.sim.schedule(0.5, check)

        self.sim.schedule(0.5, check)

    # -- workload & measurement -------------------------------------------

    def submit_tx(self, tx_id: str) -> None:
        """Queue a transaction for the next block."""
        self._submit_times[tx_id] = self.sim.now
        self._pending.append(tx_id)

    def run(self, until: float) -> None:
        """Advance the simulation."""
        self.sim.run(until=until)

    def commit_latencies(self) -> dict[str, float]:
        """tx id -> seconds from submission to committed block."""
        return {
            tx: at - self._submit_times[tx]
            for tx, at in self._committed_at.items()
        }

    @property
    def network(self):
        """The underlying simulated network (traffic statistics)."""
        return self.cluster.network
