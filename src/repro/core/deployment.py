"""Harness: a complete G-PBFT network over one simulator.

Builds the deployment the paper evaluates: a small physical region, a
population of IoT nodes (fixed and mobile), a genesis committee of core
endorsers, and the full G-PBFT stack on every node.  Mirrors
:class:`repro.pbft.cluster.PBFTCluster` so experiments can swap the two
protocols behind one interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.config import GPBFTConfig, TopologySpec
from repro.common.errors import ConsensusError
from repro.common.eventlog import EventLog
from repro.common.rng import DeterministicRNG
from repro.chain.genesis import build_genesis
from repro.core.node import GPBFTNode
from repro.geo.coords import LatLng, Region
from repro.geo.index import IndexedDirectory
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.pbft.cluster import prefixes_agree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.core import Observability

#: Default deployment area: a ~1 km-square city district (Hong Kong).
DEFAULT_REGION = Region.around(LatLng(22.3193, 114.1694), half_side_m=500.0)


class GPBFTDeployment:
    """N IoT nodes running G-PBFT in one simulated region.

    Build one with ``TopologySpec.single(...).build()``.

    Args:
        spec: a single-zone gpbft
            :class:`~repro.common.config.TopologySpec`.  Its zone gives
            the node count, the genesis committee size (default
            ``min(n_nodes, max_endorsers)``, which is how the paper's
            sweeps populate the committee: "when the number of nodes is
            smaller than the maximal value ... all eligible nodes can
            join", section V-B), the region nodes are placed uniformly
            inside, and the fraction of *non-endorser* devices that are
            fixed (endorsers are always fixed installations); the spec
            itself gives the configuration bundle, the ordering mode
            (see :class:`~repro.core.node.GPBFTNode`), the experiment
            seed (placement, report jitter, network), whether every
            node's periodic geo-report loop is armed, the block-mode
            producer cadence, and the Sybil defence (the geographic
            report-admission filter on every endorser, with the device
            observation range of its witness oracle).
        sim: pass an existing simulator to co-host other components.
        faults: node id -> fault model (crash/byzantine injection).
        obs: optional observability facade, bound to this network and
            subscribed to the event log.
    """

    def __init__(
        self,
        spec: TopologySpec,
        *,
        sim: Simulator | None = None,
        faults: dict | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        self.spec = spec
        zone = spec.deployment_zone()
        profiles = zone.profiles
        n_nodes = zone.n_nodes
        n_endorsers = zone.n_endorsers
        region = zone.region if zone.region is not None else DEFAULT_REGION
        seed = spec.zone_seed(0)
        self.id_base = id_base = zone.id_base
        self.config = spec.config or GPBFTConfig()
        policy = self.config.committee
        if n_endorsers is None:
            n_endorsers = min(n_nodes, policy.max_endorsers)
        if n_endorsers < policy.min_endorsers:
            raise ConsensusError(
                f"need at least {policy.min_endorsers} endorsers, got {n_endorsers}"
            )
        if n_endorsers > n_nodes:
            raise ConsensusError("cannot have more endorsers than nodes")

        self.sim = sim or Simulator()
        self.rng = DeterministicRNG(seed, "deployment")
        self.network = SimulatedNetwork(
            self.sim, self.config.network, rng=DeterministicRNG(seed, "network")
        )
        self.events = EventLog(capacity=spec.event_capacity)
        if obs is not None:
            obs.bind(self.sim, self.network)
        self.region = region
        self.mode = spec.mode
        self.monitors = None
        if self.config.verify.monitors:
            from repro.verify.invariants import MonitorHarness

            self.monitors = MonitorHarness(self)
        if obs is not None:
            obs.attach_host(self)

        # -- placement -------------------------------------------------------
        placement = self.rng.fork("placement")
        self.positions: dict[int, LatLng] = {
            node: region.sample(placement)
            for node in range(id_base, id_base + n_nodes)
        }
        endorser_ids = tuple(range(id_base, id_base + n_endorsers))
        self.genesis = build_genesis(
            {node: self.positions[node] for node in endorser_ids}, policy=policy)

        # -- nodes ------------------------------------------------------------
        # indexed directory: nodes route and witness via spatial queries
        self.directory: IndexedDirectory = IndexedDirectory(self.positions)
        self.nodes: dict[int, GPBFTNode] = {}
        # heterogeneous hardware profiles (empty map = uniform fleet;
        # the wiring below is then a structural no-op, keeping the
        # unprofiled path bit-identical)
        self.profiles = profiles
        self.profile_map: dict[int, object] = (
            profiles.assign(range(id_base, id_base + n_nodes))
            if profiles is not None else {})
        self.availability: list = []
        # Sybil defence: each node's report-admission filter asks this oracle
        self.sybil_protection = spec.sybil_protection
        self.witness_range_m = spec.witness_range_m
        self._oracle = None
        if self.sybil_protection:
            from repro.sybil.detection import GroundTruthWitnessOracle

            self._oracle = GroundTruthWitnessOracle(self.directory, self.witness_range_m)
        self._obs = obs
        self._start_reports = spec.start_reports
        for node_id in range(id_base, id_base + n_nodes):
            self._add_node(node_id, self.positions[node_id], f"node/{node_id}",
                           faults=(faults or {}).get(node_id),
                           profile=self.profile_map.get(node_id))
        if self.profile_map:
            self._apply_profiles()
        self._next_node_id = id_base + n_nodes

    # ------------------------------------------------------------------

    def _add_node(self, node_id: int, position: LatLng, rng_label: str, *,
                  faults=None, profile=None) -> GPBFTNode:
        """Build and wire one node -- genesis population and Sybil
        identity alike; it registers its own port -- that reports
        *position* and draws from the deployment RNG's *rng_label* fork."""
        node = GPBFTNode(
            node_id=node_id,
            position=position,
            sim=self.sim,
            network=self.network,
            genesis=self.genesis,
            config=self.config,
            directory=self.directory,
            event_log=self.events,
            rng=self.rng.fork(rng_label),
            mode=self.mode,
            block_interval_s=self.spec.block_interval_s,
            faults=faults,
            obs=self._obs,
            profile=profile,
        )
        node._chain_sync_hook = self._chain_sync
        self.nodes[node_id] = node
        if self._oracle is not None:
            from repro.geo.verification import LocationAuditor
            from repro.sybil.detection import ReportAdmission

            node.admission = ReportAdmission(
                LocationAuditor(
                    witness_range_m=self.witness_range_m,
                    # a cell claim holds for a full reporting round: one 1 m^2
                    # cell hosts one fixed device, so a second identity
                    # claiming it inside the round is a duplicate
                    round_seconds=self.config.election.report_interval_s,
                ),
                self._oracle,
            )
        if self._start_reports:
            node.start_reporting()
        return node

    def _apply_profiles(self) -> None:
        """Wire per-node hardware profiles into the network and clock.

        CPU class becomes a per-node processing-interval override on
        the network; battery duty cycles become availability drivers
        toggling the node offline/online on their window boundaries.
        Phases are drawn from stateless RNG forks, so an unprofiled
        node's streams are untouched.
        """
        # imported lazily: repro.workloads imports this module at
        # package-init time, so a module-scope import would cycle
        from repro.workloads.profiles import AvailabilityDriver

        base_rate = self.config.network.processing_rate
        for node_id in sorted(self.profile_map):
            profile = self.profile_map[node_id]
            if profile.cpu_scale != 1.0:
                self.network.set_processing_interval(
                    node_id, profile.processing_interval_s(base_rate))
            if profile.duty_fraction < 1.0:
                phase = self.rng.fork(f"duty/{node_id}").uniform(
                    0.0, profile.duty_period_s)
                cycle = profile.duty_cycle(phase_s=phase)
                driver = AvailabilityDriver(self.network, node_id, cycle)
                driver.start()
                self.availability.append(driver)

    @property
    def committee(self) -> tuple[int, ...]:
        """The committee according to the lowest-id current member."""
        for node_id in sorted(self.nodes):
            if self.nodes[node_id].is_member:
                return self.nodes[node_id].committee
        raise ConsensusError("no active committee member found")

    @property
    def endorsers(self) -> list[GPBFTNode]:
        """Nodes currently holding the endorser role, in id order."""
        return [self.nodes[i] for i in sorted(self.nodes) if self.nodes[i].is_member]

    @property
    def devices(self) -> list[GPBFTNode]:
        """Nodes currently acting purely as clients, in id order."""
        return [self.nodes[i] for i in sorted(self.nodes) if not self.nodes[i].is_member]

    def _chain_sync(self, node: GPBFTNode, from_node: int) -> None:
        """State transfer for newly elected endorsers.

        Copies the missing blocks from *from_node*'s ledger and charges
        their bytes as one ``chain.sync`` transfer on the traffic stats
        (a real implementation would stream them; latency of the stream
        is dominated by the switch period and omitted).
        """
        source = self.nodes[from_node].ledger
        total = 0
        for height in range(node.ledger.height + 1, source.height + 1):
            block = source.block_at(height)
            node.ledger.append(block)
            total += block.size_bytes
        if total > 0:
            self.network.stats.on_send(from_node, "chain.sync", total)
            self.network.stats.on_deliver(node.node_id, total)

    # ------------------------------------------------------------------
    # attacker injection
    # ------------------------------------------------------------------

    def add_sybils(
        self,
        count: int,
        strategy=None,
        seed: int = 99,
    ):
        """Register *count* Sybil identities controlled by one attacker.

        Each identity is a full protocol node whose *reported* position
        is the fabricated claim, while the ground-truth directory records
        the attacker's single true position, the region's centre -- so
        witness oracles see the physics, not the lie.

        Returns:
            The :class:`~repro.sybil.attacker.SybilAttacker` holding the
            created identities.
        """
        from repro.sybil.attacker import SybilAttacker, SybilStrategy

        strategy = strategy or SybilStrategy.EMPTY_CELL
        attacker = SybilAttacker(
            true_position=self.region.center,
            region=self.region,
            strategy=strategy,
            rng=DeterministicRNG(seed, "sybil"),
        )
        ids = list(range(self._next_node_id, self._next_node_id + count))
        self._next_node_id += count
        for identity in attacker.spawn_identities(ids, dict(self.positions)):
            self._add_node(identity.node_id, identity.claimed_position,
                           f"sybil/{identity.node_id}")
            # physics: the attacker's hardware sits at its true position
            self.directory[identity.node_id] = identity.true_position
        return attacker

    # ------------------------------------------------------------------
    # experiment helpers
    # ------------------------------------------------------------------

    def submit_from(self, node_id: int) -> str:
        """Submit one auto-generated transaction from *node_id*."""
        return self.nodes[node_id].submit_transaction()

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Advance the simulation."""
        return self.sim.run(until=until, max_events=max_events)

    def run_for(self, duration: float) -> int:
        """Advance the simulation by *duration* seconds."""
        return self.sim.run_for(duration)

    def completed_latencies(self) -> dict[str, float]:
        """request id -> commit latency, across every node's client."""
        out: dict[str, float] = {}
        for _, node in sorted(self.nodes.items()):
            out.update(node.client.completed)
        return out

    def ledgers_consistent(self) -> bool:
        """True iff every active endorser holds a prefix-consistent chain."""
        return prefixes_agree(
            [node.ledger.block_at(h).digest() for h in range(node.ledger.height + 1)]
            for node in self.endorsers)

    def force_era_switch(self) -> None:
        """Commit a composition-preserving era switch right now.

        Used by the Fig. 3b reproduction to place a switch period inside
        the measurement window (the circled latency outliers).
        """
        from repro.core.messages import EraSwitchOperation

        members = self.committee
        lead = self.nodes[members[0]]
        op = EraSwitchOperation(
            new_era=lead.era + 1, committee=members, added=(), removed=()
        )
        lead.client.submit(op)
