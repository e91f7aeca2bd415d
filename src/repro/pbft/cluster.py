"""Harness: a complete PBFT deployment over one simulator.

Wires N replicas (each with its own ledger-backed executor) and any
number of clients onto a :class:`~repro.net.network.SimulatedNetwork`.
This is the configuration measured as "PBFT" throughout the paper's
evaluation: *all* participating nodes are replicas.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.config import GPBFTConfig, TopologySpec
from repro.common.errors import ConsensusError
from repro.common.eventlog import EV_PBFT_STATE_TRANSFER, EventLog
from repro.crypto.hashing import sha256
from repro.net.network import NodeInterface, SimulatedNetwork
from repro.net.simulator import Simulator
from repro.pbft.client import PBFTClient
from repro.pbft.faults import FaultModel
from repro.pbft.messages import Operation
from repro.pbft.replica import PBFTReplica

if TYPE_CHECKING:
    from repro.obs.core import Observability


#: Executed op ids kept per replica before the oldest are
#: trimmed (``tests/test_bounded_memory.py`` holds a log to twice its
#: bound).  The rolling state digest is unaffected; only
#: ``committed_ops`` queries lose sight of the trimmed prefix, far beyond
#: what any test or sweep inspects.  Million-request aggregated runs
#: rely on the trim to keep executor memory flat.
_EXECUTED_OPS_BOUND = 50_000


class ExecutedLog:
    """Minimal deterministic executor: a bounded op log + rolling digest.

    Every flat-PBFT replica executes into one, and so does every seat of
    the hierarchy's top committee (:mod:`repro.core.hierarchy`).
    """

    def __init__(self) -> None:
        #: executed op ids in seq order: execution is gap-free in seq order
        #: and a state transfer installs a peer's whole log
        self.ops: list[str] = []
        #: per-instance trim bound; day-long aggregated points lower it
        #: so executor memory plateaus well before the default would
        self.bound = _EXECUTED_OPS_BOUND
        self._digest = sha256(b"exec-log")

    def execute(self, op, seq: int) -> bytes:
        """Log *op*, executed at *seq*, and fold it into the digest;
        returns it."""
        self.ops.append(op.op_id)
        if len(self.ops) > 2 * self.bound:
            # amortized trim: drop the oldest half in one slice so the
            # per-execute cost stays O(1)
            del self.ops[: len(self.ops) - self.bound]
        self._digest = sha256(self._digest + op.signing_bytes())
        return self._digest

    def digest(self) -> bytes:
        """The rolling state digest over every executed op."""
        return self._digest

    def install_snapshot(self, other: "ExecutedLog") -> None:
        """Adopt a peer's state wholesale (checkpoint state transfer)."""
        self.ops = list(other.ops)
        self._digest = other._digest

    def op_ids(self) -> list[str]:
        """Executed op ids in sequence order."""
        return list(self.ops)


def prefixes_agree(sequences) -> bool:
    """True iff the *sequences* (executed ops, chain digests) agree up
    to the length of the shortest; no sequence at all agrees."""
    sequences = list(sequences)
    shortest = min(map(len, sequences), default=0)
    return len({tuple(s[:shortest]) for s in sequences}) <= 1


def charge_state_transfer(stats, src: int, dst: int, n_ops: int) -> None:
    """Charge one ``pbft.state_transfer`` message from *src* to *dst*:
    a snapshot of *n_ops* operations, modelled (not encoded) as a digest,
    a signature and one default 200-byte transaction frame per operation."""
    snapshot_bytes = 32 + 64 + 200 * n_ops
    stats.on_send(src, EV_PBFT_STATE_TRANSFER, snapshot_bytes)
    stats.on_deliver(dst, snapshot_bytes)


def state_transfer(node: int, replicas: dict[int, PBFTReplica], logs, stats):
    """Checkpoint catch-up for *node*: its ``state_transfer_fn``, which
    installs the executed log (in *logs*) of the first live peer in
    *replicas* past the target and charges the snapshot (a real
    transfer would stream it)."""

    def transfer(target_seq: int) -> int | None:
        for peer_id, peer in replicas.items():
            if peer_id == node or peer.faults.crashed:
                continue
            if peer.last_executed >= target_seq:
                logs[node].install_snapshot(logs[peer_id])
                charge_state_transfer(stats, peer_id, node, len(logs[peer_id].ops))
                return peer.last_executed
        return None

    return transfer


class PBFTCluster:
    """N replicas + M clients on a fresh simulator and network.

    Build one with ``TopologySpec.cluster(...).build()``.

    Args:
        spec: a pbft :class:`~repro.common.config.TopologySpec`: the
            committee size (>= 4), the number of client endpoints (ids
            follow the replicas) and the configuration bundle (network
            + pbft sections used).
        faults: optional map replica id -> :class:`FaultModel`.
        sim: pass an existing simulator to co-host other components.
        obs: optional observability facade, bound to this network and
            subscribed to the event log.

    Attributes:
        replicas: id -> :class:`PBFTReplica`.
        clients: id -> :class:`PBFTClient`.
        events: shared :class:`EventLog` with submission/commit events.
    """

    def __init__(
        self,
        spec: TopologySpec,
        *,
        faults: dict[int, FaultModel] | None = None,
        sim: Simulator | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        self.spec = spec
        n_replicas, n_clients, config = spec.cluster_shape()
        if n_replicas < 4:
            raise ConsensusError("PBFT needs at least 4 replicas")
        self.config = config or GPBFTConfig()
        self.sim = sim or Simulator()
        self.network = SimulatedNetwork(self.sim, self.config.network)
        self.events = EventLog(capacity=spec.event_capacity)
        if obs is not None:
            obs.bind(self.sim, self.network)
        self.committee = tuple(range(n_replicas))
        self.monitors = None
        if self.config.verify.monitors:
            from repro.verify.invariants import MonitorHarness

            self.monitors = MonitorHarness(self)
        if obs is not None:
            obs.attach_host(self)
        faults = faults or {}

        self.executors: dict[int, ExecutedLog] = {}
        self.replicas: dict[int, PBFTReplica] = {}
        for node in self.committee:
            executed = ExecutedLog()
            self.executors[node] = executed
            replica = PBFTReplica(
                node_id=node,
                committee=self.committee,
                sim=self.sim,
                transport=NodeInterface(self.network, node),
                config=self.config.pbft,
                executor=executed.execute,
                state_digest_fn=executed.digest,
                event_log=self.events,
                faults=faults.get(node),
                state_transfer_fn=state_transfer(
                    node, self.replicas, self.executors, self.network.stats),
                obs=obs,
            )
            self.replicas[node] = replica
            self.network.register(node, replica.receive)

        self.clients: dict[int, PBFTClient] = {}
        for i in range(n_clients):
            node = n_replicas + i
            client = PBFTClient(
                node_id=node,
                committee=self.committee,
                sim=self.sim,
                transport=NodeInterface(self.network, node),
                config=self.config.pbft,
                event_log=self.events,
            )
            self.clients[node] = client
            self.network.register(node, client.receive)

    # -- convenience -----------------------------------------------------------

    @property
    def any_client(self) -> PBFTClient:
        """The lowest-id client (most tests use exactly one)."""
        if not self.clients:
            raise ConsensusError("cluster has no clients")
        return self.clients[min(self.clients)]

    def submit(self, op: Operation, client_id: int | None = None) -> str:
        """Submit *op* through a client; returns the request id."""
        client = self.clients[client_id] if client_id is not None else self.any_client
        return client.submit(op)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Advance the simulation (delegates to the simulator)."""
        return self.sim.run(until=until, max_events=max_events)

    def committed_ops(self, node: int) -> list[str]:
        """Op ids executed by *node*, in execution order."""
        return self.executors[node].op_ids()

    def all_agree(self) -> bool:
        """True iff every non-crashed replica executed the same op sequence."""
        return prefixes_agree(self.committed_ops(node)
                              for node, replica in self.replicas.items()
                              if not replica.faults.crashed)
