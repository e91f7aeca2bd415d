"""Hierarchical G-PBFT: independent zone committees plus a top layer.

Reproduces the layered consensus the two Guo/Li/Nejad follow-ups
(arXiv:2305.16962, arXiv:2305.17681) sketch on top of this repo's
G-PBFT machinery:

* the map is partitioned into zones (:mod:`repro.geo.zones`), each
  hosting a full, independent :class:`~repro.core.deployment.\
GPBFTDeployment` -- own endorser committee, election table, era
  switches, ledger -- over its own radio network;
* each zone runs a **gateway** that watches the zone's event log,
  batches locally committed *inter-zone* transactions into
  :class:`~repro.core.messages.ZoneCheckpointOperation` bundles, and
  submits them to a **top-level committee** over a backbone network;
* the top-level committee is a plain PBFT instance whose replicas
  ("seats") are operated by the zones (seat ``s`` belongs to zone
  ``s % n_zones``); the committed sequence of checkpoints *is* the
  global inter-zone order.  When a checkpoint executes, the seat
  responsible for each envelope's destination zone hands it to that
  zone's gateway, which re-submits the transaction locally.

An inter-zone transaction therefore commits twice -- once in its home
zone (proving it to the gateway) and once in its destination zone
(after global ordering) -- and the ``cross-shard-prefix`` monitor
(:class:`repro.verify.invariants.CrossShardPrefixConsistencyMonitor`)
checks that destination commits only ever happen in checkpoint order.

Construct through :meth:`repro.common.config.TopologySpec.zoned`; a
:class:`HierarchicalDeployment` mirrors the single-zone host surface
(``sim``/``network``/``events``/``nodes``/``submit_from``/``run``/...)
so the schedule explorer and the experiments drive it unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.config import GPBFTConfig, TopologySpec
from repro.common.errors import ConsensusError
from repro.common.eventlog import (
    EV_HIER_CHECKPOINT_COMMITTED,
    EV_HIER_CHECKPOINT_SUBMITTED,
    EV_TX_COMMITTED,
    EV_XZONE_COMMITTED,
    EV_XZONE_DELIVERED,
    EV_XZONE_ORDERED,
    EV_XZONE_SUBMITTED,
    Event,
    EventLog,
)
from repro.common.rng import DeterministicRNG
from repro.core.deployment import GPBFTDeployment
from repro.core.messages import InterZoneTx, ZoneCheckpointOperation
from repro.net.network import NodeInterface, SimulatedNetwork
from repro.net.simulator import Simulator
from repro.pbft.client import PBFTClient
from repro.pbft.cluster import ExecutedLog, prefixes_agree, state_transfer
from repro.pbft.faults import FaultModel
from repro.pbft.replica import PBFTReplica

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.core import Observability

#: Simulated seconds between a gateway's checkpoint batches.
CHECKPOINT_INTERVAL_S = 2.0


def top_seats(n_zones: int) -> int:
    """Seats of the top-level committee: one per zone, never below 4."""
    return max(4, n_zones)


class _CompositeMonitors:
    """Fans ``check_final`` out to every attached harness."""

    def __init__(self, harnesses) -> None:
        self.harnesses = [h for h in harnesses if h is not None]

    def check_final(self) -> None:
        for harness in self.harnesses:
            harness.check_final()


class ZoneGateway:
    """Bridges one zone to the top-level checkpoint committee.

    The gateway (a logical role of the zone's committee, modelled as one
    endpoint on the backbone) does three jobs:

    * watch the zone's event log for committed *outbound* inter-zone
      transactions and queue their envelopes;
    * on a fixed cadence, bundle the queue into a
      :class:`ZoneCheckpointOperation` and submit it to the top layer
      through a PBFT client;
    * take delivery of globally ordered *inbound* envelopes and
      re-submit their transactions into the zone's own consensus.

    A gateway carrying :class:`~repro.pbft.faults.XZoneBypassFaults`
    skips the second job and ships envelopes straight to the
    destination gateway -- the planted bug the cross-shard monitor must
    catch.
    """

    def __init__(self, hier: "HierarchicalDeployment", index: int, name: str,
                 deployment: GPBFTDeployment, client: PBFTClient,
                 backbone_id: int, faults: FaultModel | None = None) -> None:
        self.hier = hier
        self.index = index
        self.name = name
        self.deployment = deployment
        self.client = client
        self.backbone_id = backbone_id
        self.faults = faults or FaultModel()
        #: tx_id -> envelope submitted here but not yet locally committed
        self._outbound: dict[str, InterZoneTx] = {}
        #: envelopes committed locally, awaiting the next checkpoint
        self._pending: list[InterZoneTx] = []
        #: tx_id -> inbound envelope delivered but not yet committed
        self._watch: dict[str, InterZoneTx] = {}
        #: inbound tx ids already committed, in commit order (a dict
        #: for O(1) dedup); one entry per inbound cross-zone commit,
        #: kept for the run as its replay protection
        self.committed: dict[str, None] = {}
        self._ckpt_seq = 0
        deployment.events.subscribe(EV_TX_COMMITTED, self._on_zone_event)

    # -- backbone side -----------------------------------------------------

    def receive(self, payload) -> None:
        """Backbone dispatch: PBFT replies plus direct envelope traffic."""
        if isinstance(payload, InterZoneTx):
            # only a bypassing (faulty) source gateway sends these
            # directly; an honest top layer delivers via checkpoints
            self._on_xzone_tx(payload)
            return
        self.client.receive(payload)

    def _checkpoint_tick(self) -> None:
        """Periodic batch point: submit pending envelopes, re-arm."""
        if self._pending:
            op = self.hier._assemble_checkpoint(self)
            self.client.submit(op)
        self.hier.sim.schedule(CHECKPOINT_INTERVAL_S, self._checkpoint_tick)

    def next_checkpoint_seq(self) -> int:
        """Monotonic per-gateway checkpoint counter."""
        seq = self._ckpt_seq
        self._ckpt_seq += 1
        return seq

    def take_pending(self) -> list[InterZoneTx]:
        """Drain the pending outbound queue (in local commit order)."""
        batch, self._pending = self._pending, []
        return batch

    # -- zone side ---------------------------------------------------------

    def track_outbound(self, env: InterZoneTx) -> None:
        """Register a locally submitted inter-zone tx for batching."""
        self._outbound[env.tx.tx_id] = env

    def _on_zone_event(self, event: Event) -> None:
        """Zone event-log subscriber: react to a local tx commit."""
        tx_id = event.data.get("tx_id")
        if tx_id in self._outbound:
            # first endorser to commit proves the tx to the gateway;
            # pop() makes the remaining committee echoes no-ops
            env = self._outbound.pop(tx_id)
            if self.faults.xzone_bypass:
                self._bypass(env)
            else:
                self._pending.append(env)
        elif tx_id in self._watch:
            env = self._watch.pop(tx_id)
            self.committed[tx_id] = None
            self.hier._note_xzone_commit(self, env, event)

    def _bypass(self, env: InterZoneTx) -> None:
        """Faulty path: skip global ordering, ship straight to the dst."""
        dst = self.hier.gateways[env.dst_zone]
        self.hier.backbone.send(self.backbone_id, dst.backbone_id, env)

    def _on_xzone_tx(self, env: InterZoneTx,
                     ordered: tuple[int, int] | None = None) -> None:
        """Take delivery of one inbound envelope (wire kind
        ``gpbft.xzone_tx``) and re-submit it into the zone.

        Args:
            env: the envelope addressed to this zone.
            ordered: the top layer's global index ``(top_seq, pos)``;
                ``None`` on the direct (bypass-fault) path, in which
                case no ``xzone.ordered`` event precedes the commit and
                the cross-shard monitor fires.
        """
        now = self.hier.sim.now
        tx_id = env.tx.tx_id
        if ordered is not None:
            self.hier.events.record(
                now, EV_XZONE_ORDERED, node=self.backbone_id, tx_id=tx_id,
                zone=self.index, src_zone=env.src_zone,
                top_seq=ordered[0], pos=ordered[1])
        if tx_id in self._watch or tx_id in self.committed:
            return  # duplicate delivery (client retry or re-execution)
        self._watch[tx_id] = env
        self.hier.events.record(now, EV_XZONE_DELIVERED,
                                node=self.backbone_id, tx_id=tx_id,
                                zone=self.index, src_zone=env.src_zone)
        target = self.deployment.committee[0]
        self.deployment.nodes[target].submit_transaction(env.tx)


class HierarchicalDeployment:
    """Multi-zone G-PBFT behind the common host surface.

    Args:
        spec: a multi-zone gpbft :class:`TopologySpec` (from
            ``TopologySpec.zoned(...)``).
        sim: pass an existing simulator to co-host other components.
        obs: optional observability sink, shared by every layer.
        faults: fault models. Keys holding a model with
            ``xzone_bypass=True`` are interpreted as *zone indices*
            (gateway faults); every other key is a *global node id*
            routed to its zone's deployment.

    Attributes:
        zones: the per-zone :class:`GPBFTDeployment` objects, in order.
        gateways: one :class:`ZoneGateway` per zone.
        replicas: top-layer seat id -> :class:`PBFTReplica`.
        nodes: merged global-node-id -> node view across all zones.
        events: the hierarchy's own event log (xzone + top-layer PBFT).
    """

    def __init__(self, spec: TopologySpec, sim: Simulator | None = None,
                 obs: "Observability | None" = None,
                 faults: dict[int, FaultModel] | None = None) -> None:
        if spec.protocol != "gpbft" or spec.n_zones < 2:
            raise ConsensusError(
                "HierarchicalDeployment needs a multi-zone gpbft TopologySpec")
        self.spec = spec
        self.config = spec.config or GPBFTConfig()
        self.sim = sim or Simulator()
        self.mode = spec.mode
        self.events = EventLog(capacity=spec.event_capacity)
        self.zone_map = spec.zone_map()

        all_faults = dict(faults or {})
        gateway_faults = {key: model for key, model in all_faults.items()
                          if model.xzone_bypass}
        node_faults = {key: model for key, model in all_faults.items()
                       if not model.xzone_bypass}

        self.monitors = None
        self._harness = None
        if self.config.verify.monitors:
            from repro.verify.invariants import MonitorHarness
            self._harness = MonitorHarness(self)

        # -- zone deployments (own networks, event logs, monitors) --------
        self.zones: list[GPBFTDeployment] = []
        for index, zone in enumerate(spec.zones):
            zone_faults = {
                node_id: model for node_id, model in node_faults.items()
                if zone.id_base <= node_id < zone.id_base + zone.n_nodes
            }
            self.zones.append(GPBFTDeployment(
                spec.zone_topology(index), sim=self.sim, obs=obs,
                faults=zone_faults))
        self.nodes = {}
        for dep in self.zones:
            self.nodes.update(dep.nodes)

        if self._harness is not None:
            self.monitors = _CompositeMonitors(
                [self._harness] + [dep.monitors for dep in self.zones])

        # -- top layer: backbone network + seats + gateways ----------------
        n_zones = len(self.zones)
        n_seats = top_seats(n_zones)
        self.backbone = SimulatedNetwork(
            self.sim, self.config.network,
            rng=DeterministicRNG(spec.seed, "hier/backbone"))
        #: explorer-facing alias: perturbations target the backbone
        self.network = self.backbone
        if obs is not None:
            obs.bind(self.sim, self.backbone)
            # no flight-recorder ring for this log: obs facts only
            obs.listen(self.events, [zone.name for zone in spec.zones])

        self.seats = tuple(range(n_seats))
        self.checkpoint_logs: dict[int, ExecutedLog] = {}
        self.replicas: dict[int, PBFTReplica] = {}
        for seat in self.seats:
            ledger = ExecutedLog()
            self.checkpoint_logs[seat] = ledger
            replica = PBFTReplica(
                node_id=seat,
                committee=self.seats,
                sim=self.sim,
                transport=NodeInterface(self.backbone, seat),
                config=self.config.pbft,
                executor=self._seat_executor(seat, ledger),
                state_digest_fn=ledger.digest,
                event_log=self.events,
                state_transfer_fn=state_transfer(
                    seat, self.replicas, self.checkpoint_logs, self.backbone.stats),
                obs=obs,
            )
            self.replicas[seat] = replica
            self.backbone.register(seat, replica.receive)

        self.gateways: list[ZoneGateway] = []
        for index, dep in enumerate(self.zones):
            backbone_id = n_seats + index
            client = PBFTClient(
                node_id=backbone_id,
                committee=self.seats,
                sim=self.sim,
                transport=NodeInterface(self.backbone, backbone_id),
                config=self.config.pbft,
                event_log=self.events,
            )
            gateway = ZoneGateway(
                self, index, spec.zones[index].name, dep, client,
                backbone_id, faults=gateway_faults.get(index))
            self.backbone.register(backbone_id, gateway.receive)
            self.gateways.append(gateway)
            self.sim.schedule(CHECKPOINT_INTERVAL_S, gateway._checkpoint_tick)

        self._xzone_nonce = 0
        self._submit_counter = 0

    # -- plumbing ----------------------------------------------------------

    def _seat_executor(self, seat: int, ledger: ExecutedLog):
        def execute(op, seq: int) -> bytes:
            digest = ledger.execute(op, seq)
            if isinstance(op, ZoneCheckpointOperation):
                self._on_zone_checkpoint(seat, op, seq)
            return digest
        return execute

    def _delivery_seat(self, zone_index: int) -> int:
        """The lowest seat operated by *zone_index* (its delivery agent)."""
        for seat in self.seats:
            if seat % len(self.zones) == zone_index:
                return seat
        raise ConsensusError(f"no seat serves zone {zone_index}")

    # -- checkpoint flow ---------------------------------------------------

    def _assemble_checkpoint(self, gateway: ZoneGateway) -> ZoneCheckpointOperation:
        """Bundle a gateway's pending envelopes with its chain head."""
        dep = gateway.deployment
        head_node = dep.nodes[dep.committee[0]]
        height = head_node.ledger.height
        op = ZoneCheckpointOperation(
            zone=gateway.index,
            seq=gateway.next_checkpoint_seq(),
            era=head_node.era,
            height=height,
            head=head_node.ledger.block_at(height).digest(),
            txs=tuple(gateway.take_pending()),
        )
        self.events.record(self.sim.now, EV_HIER_CHECKPOINT_SUBMITTED,
                           node=gateway.backbone_id, zone=gateway.index,
                           seq=op.seq, txs=len(op.txs))
        return op

    def _on_zone_checkpoint(self, seat: int, op: ZoneCheckpointOperation,
                            top_seq: int) -> None:
        """Apply an ordered zone checkpoint at one top-layer seat
        (handler for the ``gpbft.zone_checkpoint`` wire kind).

        Every seat folds the checkpoint into its log (that is the
        consensus state); side effects are deduplicated by role: the
        lowest seat records the commit, and each envelope is handed to
        its destination gateway by that zone's own delivery seat.
        """
        if seat == self.seats[0]:
            self.events.record(self.sim.now, EV_HIER_CHECKPOINT_COMMITTED,
                               node=seat, zone=op.zone, seq=op.seq,
                               txs=len(op.txs), top_seq=top_seq)
        for pos, env in enumerate(op.txs):
            if self._delivery_seat(env.dst_zone) == seat:
                self.gateways[env.dst_zone]._on_xzone_tx(
                    env, ordered=(top_seq, pos))

    def _note_xzone_commit(self, gateway: ZoneGateway, env: InterZoneTx,
                           event: Event) -> None:
        """Record a destination-zone commit on the hierarchy log."""
        self.events.record(event.at, EV_XZONE_COMMITTED, node=event.node,
                           tx_id=env.tx.tx_id, zone=gateway.index,
                           src_zone=env.src_zone)

    # -- workload ----------------------------------------------------------

    def zone_of_node(self, node_id: int) -> int:
        """Zone index owning global *node_id*."""
        return self.spec.zone_of_node(node_id)

    def submit_xzone(self, node_id: int, dst_zone: int | None = None) -> str:
        """Submit an inter-zone transaction from *node_id*.

        The transaction first commits in the sender's home zone; its
        gateway then routes it through the top layer to *dst_zone*
        (default: the next zone round-robin).  Returns the tx id.
        """
        src = self.zone_of_node(node_id)
        if dst_zone is None:
            dst_zone = (src + 1) % len(self.zones)
        if dst_zone == src:
            raise ConsensusError("inter-zone tx must target another zone")
        if not 0 <= dst_zone < len(self.zones):
            raise ConsensusError(f"no zone {dst_zone}")
        node = self.nodes[node_id]
        self._xzone_nonce += 1
        tx = node.next_transaction(key=f"xz{self._xzone_nonce}",
                                   value=f"{src}>{dst_zone}")
        env = InterZoneTx(src_zone=src, dst_zone=dst_zone, tx=tx)
        self.gateways[src].track_outbound(env)
        self.events.record(self.sim.now, EV_XZONE_SUBMITTED, node=node_id,
                           tx_id=tx.tx_id, src_zone=src, dst_zone=dst_zone)
        node.submit_transaction(tx)
        return tx.tx_id

    def submit_from(self, node_id: int) -> str:
        """Submit one transaction from *node_id*.

        Alternates workload shape: every second call crosses zones, the
        others stay zone-local -- so generic explorer schedules exercise
        both paths.
        """
        self._submit_counter += 1
        if self._submit_counter % 2 == 0:
            return self.submit_xzone(node_id)
        return self.zones[self.zone_of_node(node_id)].submit_from(node_id)

    # -- running and inspection --------------------------------------------

    def run_for(self, duration: float) -> int:
        """Advance the simulation by *duration* seconds."""
        return self.sim.run_for(duration)

    def completed_latencies(self) -> dict[str, float]:
        """request id -> commit latency, merged across all zones."""
        out: dict[str, float] = {}
        for dep in self.zones:
            out.update(dep.completed_latencies())
        return out

    def committed_xzone(self, zone_index: int) -> list[str]:
        """Inter-zone tx ids committed in *zone_index*, in commit order."""
        return list(self.gateways[zone_index].committed)

    def ledgers_consistent(self) -> bool:
        """Every zone's chains agree AND the seats' checkpoint logs do."""
        if not all(dep.ledgers_consistent() for dep in self.zones):
            return False
        return prefixes_agree(self.checkpoint_logs[seat].op_ids()
                              for seat in self.seats
                              if not self.replicas[seat].faults.crashed)

    def force_era_switch(self) -> None:
        """Trigger an immediate era switch in zone 0 (explorer hook)."""
        self.zones[0].force_era_switch()
