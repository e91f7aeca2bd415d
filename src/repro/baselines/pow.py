"""Nakamoto-style Proof-of-Work over the simulated network.

Model
-----
Every miner hashes at a fixed rate; the time until *some* miner
finds a block is exponential with mean ``BLOCK_INTERVAL_S``, and the
winner is drawn proportionally to hash rate (the standard memoryless
decomposition of PoW).  The winner packs its mempool into a block and
broadcasts it; peers adopt the longest chain (ties: first received),
which makes near-simultaneous finds produce short-lived forks and
orphans exactly as in real PoW.  A transaction is *committed* when the
block containing it is ``CONFIRMATIONS`` deep on a node's best chain.

Measured quantities: commit latency, bytes moved (block gossip), hash
work expended (rate x elapsed time), and orphan rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import NetworkConfig
from repro.common.errors import ConfigurationError
from repro.common.eventlog import EV_POW_COMMITTED, EV_POW_MINED, EventLog
from repro.common.rng import DeterministicRNG
from repro.crypto.hashing import digest_concat, sha256
from repro.net.message import RawPayload
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator

#: Hashes/second each miner expends (sets the computing-overhead metric).
HASH_RATE_PER_MINER = 1e6
#: Expected time between blocks network-wide (600 s in Bitcoin; IoT
#: chains use tens of seconds).
BLOCK_INTERVAL_S = 30.0
#: Chain depth at which a transaction is final (6 in Bitcoin folklore).
CONFIRMATIONS = 3
#: Block capacity (transactions).
MAX_TXS_PER_BLOCK = 500
#: Kinds of the two gossips, each a ``RawPayload``: a mined block, and a
#: transaction announcement carrying the tx id.
BLOCK_KIND = "pow.block"
TX_KIND = "pow.tx"


@dataclass(frozen=True, slots=True)
class PoWBlock:
    """A mined block: identity, linkage, and the tx ids it contains."""

    digest: bytes
    parent: bytes
    height: int
    miner: int
    tx_ids: tuple[str, ...]
    mined_at: float

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes (modelled, not encoded)."""
        # header + one 32-byte id per transaction payload reference;
        # actual tx bodies travel once with the block
        return 80 + 200 * len(self.tx_ids)


GENESIS = PoWBlock(digest=sha256(b"pow-genesis"), parent=b"\x00" * 32,
                   height=0, miner=-1, tx_ids=(), mined_at=0.0)


class _MinerState:
    """One miner's view: block tree, best tip, mempool."""

    def __init__(self) -> None:
        self.blocks: dict[bytes, PoWBlock] = {GENESIS.digest: GENESIS}
        self.best: PoWBlock = GENESIS
        self.mempool: set[str] = set()
        self.seen_txs: set[str] = set()

    def add_block(self, block: PoWBlock) -> bool:
        """Insert *block*; returns True when it becomes the new tip."""
        if block.digest in self.blocks or block.parent not in self.blocks:
            return False  # duplicate or orphan-parent (no sync modelled)
        self.blocks[block.digest] = block
        if block.height > self.best.height:
            self.best = block
            return True
        return False

    def chain(self) -> list[PoWBlock]:
        """Best chain, genesis first."""
        out = []
        cursor = self.best
        while cursor.height > 0:
            out.append(cursor)
            cursor = self.blocks[cursor.parent]
        out.append(GENESIS)
        return list(reversed(out))


class PoWNetwork:
    """n miners mining and gossiping over the simulated network.

    Args:
        n_miners: network size.
        seed: deterministic run seed.
    """

    def __init__(self, n_miners: int, seed: int = 0) -> None:
        if n_miners < 1:
            raise ConfigurationError("need at least one miner")
        self.sim = Simulator()
        self.network = SimulatedNetwork(
            self.sim, NetworkConfig(seed=seed, processing_rate=1e9))
        self.rng = DeterministicRNG(seed, "pow")
        self.events = EventLog()
        self.n = n_miners
        self.miners = {i: _MinerState() for i in range(n_miners)}
        for miner in range(n_miners):
            self.network.register(miner, self._make_handler(miner))
        self._mine_timer = None
        self._tx_submit_times: dict[str, float] = {}
        self._committed_at: dict[str, float] = {}
        self.orphans = 0
        self._schedule_next_block()

    # -- mining -------------------------------------------------------------

    def _schedule_next_block(self) -> None:
        delay = self.rng.exponential(BLOCK_INTERVAL_S)
        self._mine_timer = self.sim.schedule(delay, self._mine_block)

    def _mine_block(self) -> None:
        winner = self.rng.integers(0, self.n)
        state = self.miners[winner]
        txs = tuple(sorted(state.mempool))[:MAX_TXS_PER_BLOCK]
        parent = state.best
        block = PoWBlock(
            digest=digest_concat(parent.digest, str(winner).encode(),
                                 repr(self.sim.now).encode()),
            parent=parent.digest,
            height=parent.height + 1,
            miner=winner,
            tx_ids=txs,
            mined_at=self.sim.now,
        )
        self.events.record(self.sim.now, EV_POW_MINED, winner, block.height, len(txs))
        self._accept_block(winner, block)
        self.network.multicast(
            winner, range(self.n), RawPayload(BLOCK_KIND, block.size_bytes, block))
        self._schedule_next_block()

    def _make_handler(self, miner: int):
        def handle(payload) -> None:
            if payload.kind == BLOCK_KIND:
                self._accept_block(miner, payload.body)
            elif payload.kind == TX_KIND:
                state = self.miners[miner]
                if payload.body not in state.seen_txs:
                    state.seen_txs.add(payload.body)
                    state.mempool.add(payload.body)
        return handle

    def _accept_block(self, miner: int, block: PoWBlock) -> None:
        state = self.miners[miner]
        old_best = state.best
        became_tip = state.add_block(block)
        if not became_tip:
            if block.digest not in state.blocks:
                return
            if block.height <= old_best.height and block.digest != old_best.digest:
                self.orphans += 1
            return
        state.mempool -= set(block.tx_ids)
        # confirmation check on the observer with the canonical view
        if miner == 0:
            self._update_commitments(state)

    def _update_commitments(self, state: _MinerState) -> None:
        chain = state.chain()
        for block in chain:
            if state.best.height - block.height + 1 < CONFIRMATIONS:
                continue
            for tx_id in block.tx_ids:
                if tx_id in self._tx_submit_times and tx_id not in self._committed_at:
                    self._committed_at[tx_id] = self.sim.now
                    self.events.record(
                        self.sim.now, EV_POW_COMMITTED, 0, tx_id,
                        self.sim.now - self._tx_submit_times[tx_id])

    # -- workload ------------------------------------------------------------

    def submit_tx(self, tx_id: str) -> None:
        """Announce a transaction from miner 0's mempool to everyone."""
        self._tx_submit_times[tx_id] = self.sim.now
        state = self.miners[0]
        state.seen_txs.add(tx_id)
        state.mempool.add(tx_id)
        # same operation size as the PBFT experiments
        self.network.multicast(0, range(self.n), RawPayload(TX_KIND, 200, tx_id))

    def run(self, until: float) -> None:
        """Advance the simulation."""
        self.sim.run(until=until)

    # -- measurements ----------------------------------------------------------

    def commit_latencies(self) -> dict[str, float]:
        """tx id -> seconds from submission to k-deep confirmation."""
        return {
            tx: at - self._tx_submit_times[tx]
            for tx, at in self._committed_at.items()
        }

    def hash_work(self) -> float:
        """Total hashes expended so far (the computing-overhead metric)."""
        return self.n * HASH_RATE_PER_MINER * self.sim.now
