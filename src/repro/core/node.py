"""The unified G-PBFT node: IoT device and potential endorser.

Every participant runs the same code (as in a real deployment):

* **device role** (always on): upload periodic geo reports to the
  committee, submit transactions through an embedded PBFT client routed
  to the nearest endorser, track committee announcements;
* **endorser role** (while a committee member): maintain the ledger,
  election table, and mempool; run the PBFT replica of the current era;
  execute Algorithm-1 audits every ``T`` seconds; propose and execute
  era switches; produce blocks in block-production mode.

Era switch mechanics (paper sections III-E, IV-A2): when an
:class:`~repro.core.messages.EraSwitchOperation` commits, each member
halts its replica, refuses new transactions for ``switch_duration_s``
(buffering them), then relaunches a fresh PBFT replica with the new
committee and re-injects buffered and carried-over requests.  A
designated continuing member announces the new committee to every node
and chain-syncs newly added endorsers.
"""

from __future__ import annotations

from collections import deque
from types import MethodType
from typing import TYPE_CHECKING, Callable

from repro.common.config import GPBFTConfig
from repro.common.errors import ChainError, ConsensusError, GeoError
from repro.common.eventlog import (
    EV_BLOCK_COMMITTED,
    EV_BLOCK_PROPOSED,
    EV_BLOCK_REJECTED,
    EV_ERA_SWITCH_COMPLETED,
    EV_ERA_SWITCH_PROPOSED,
    EV_ERA_SWITCH_STARTED,
    EV_GEO_REPORT_REJECTED,
    EV_GPBFT_ACTIVATED,
    EV_GPBFT_AUDIT,
    EV_GPBFT_DEACTIVATED,
    EV_GPBFT_HALTED_BELOW_MINIMUM,
    EV_TX_COMMITTED,
    EV_TX_SUBMITTED,
    EventLog,
)
from repro.common.quorum import tolerated_faults, weak_certificate_size
from repro.common.rng import DeterministicRNG
from repro.chain.block import Block
from repro.chain.genesis import GenesisBlock
from repro.chain.ledger import Ledger
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction
from repro.core.committee import CommitteeManager
from repro.core.election import ElectionTable
from repro.core.era import EraHistory
from repro.core.authentication import authenticate_geographic
from repro.core.incentive import IncentiveEngine, select_producer
from repro.core.messages import (
    BlockProposalOperation,
    CommitteeInfo,
    EraSwitchOperation,
    GeoReportMsg,
    TxOperation,
    TxSubmission,
)
from repro.geo.coords import LatLng, haversine_m
from repro.geo.reports import GeoReport
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.pbft.client import PBFTClient
from repro.pbft.faults import FaultModel, HonestFaults
from repro.pbft.messages import ClientRequest, Reply
from repro.pbft.replica import PBFTReplica

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.core import Observability
    from repro.workloads.profiles import DeviceProfile

#: Transactions a block-mode producer packs into one block at most.
MAX_BLOCK_TXS = 100


class GPBFTNode:
    """One participant in a G-PBFT network.

    Args:
        node_id: unique id; the node registers it with *network* and
            routes its port (see ``_route``).
        position: current physical location.
        sim: shared simulator.
        network: shared simulated network.  The replica sends through a
            plain handle onto it; the node is the transport of its own
            client (``send``, ``multicast``), which may address the node.
        genesis: the chain's genesis block.
        config: full protocol configuration.
        directory: shared node-id -> position map used for
            nearest-endorser routing (models the CSC registry).
        event_log: shared experiment event log.
        rng: per-node random stream (report phase jitter).
        mode: ``"per_tx"`` (each transaction is one consensus instance,
            the paper's measured configuration) or ``"block"``
            (timer-weighted producers batch the mempool into blocks).
        block_interval_s: producer cadence in block mode.
        faults: fault model applied to this node's replica.
        profile: optional hardware profile
            (:class:`repro.workloads.profiles.DeviceProfile`); its
            memory caps bound this node's mempool and pre-activation
            consensus buffer.  ``None`` keeps the uniform defaults.
    """

    def __init__(
        self,
        node_id: int,
        position: LatLng,
        sim: Simulator,
        network: SimulatedNetwork,
        genesis: GenesisBlock,
        config: GPBFTConfig | None = None,
        directory: dict[int, LatLng] | None = None,
        event_log: EventLog | None = None,
        rng: DeterministicRNG | None = None,
        mode: str = "per_tx",
        block_interval_s: float = 5.0,
        faults: FaultModel | None = None,
        obs: "Observability | None" = None,
        profile: "DeviceProfile | None" = None,
    ) -> None:
        if mode not in ("per_tx", "block"):
            raise ConsensusError(f"unknown ordering mode {mode!r}")
        self.node_id = node_id
        self.position = position
        self.sim = sim
        self.network = network
        self.genesis = genesis
        self.config = config or GPBFTConfig()
        self.directory = directory if directory is not None else {node_id: position}
        self.events = event_log
        self.rng = rng or DeterministicRNG(0, f"node/{node_id}")
        self.mode = mode
        self.block_interval_s = block_interval_s
        self.faults = faults or HonestFaults()
        self.obs = obs
        self.profile = profile
        # hardware memory caps (heterogeneous fleets); None = uniform
        mempool_capacity = None if profile is None else profile.mempool_capacity
        log_bound = None if profile is None else profile.log_bound
        self._preactivation_cap = 512 if log_bound is None else log_bound

        # -- chain + protocol state ----------------------------------------
        self.ledger = Ledger(genesis)
        self.mempool = (Mempool() if mempool_capacity is None
                        else Mempool(capacity=mempool_capacity))
        self.election_table = ElectionTable(self.config.election)
        self.committee = genesis.endorser_ids
        self.committee_manager = CommitteeManager(self.committee, genesis.policy)
        self.era = 0
        self.era_history = EraHistory(self.committee)
        self.incentive = IncentiveEngine()
        self.replica: PBFTReplica | None = None
        self.switching = False
        self.halted_below_minimum = False
        self._switch_buffer: list[ClientRequest] = []
        # consensus traffic that raced ahead of our activation (a newly
        # elected endorser can see era-N pre-prepares before the
        # CommitteeInfo that makes it a member); replayed on activation
        self._preactivation_buffer: deque = deque(maxlen=self._preactivation_cap)
        self._suspects: set[int] = set()
        self._tx_nonce = 0
        self._audit_timer = None
        self._block_timer = None
        self._report_timer = None
        # block-mode producer fallback state (height, attempts at it)
        self._produce_height = -1
        self._produce_attempt = 0
        # committee announcements: (era, committee) -> senders; adopted
        # only after f+1 matching copies so one liar cannot re-route us
        self._committee_votes: dict[tuple[int, tuple[int, ...]], set[int]] = {}
        # optional Sybil defence: report-admission filter installed by the
        # deployment (see repro.sybil.detection.ReportAdmission)
        self.admission = None

        self._interface = network.register(node_id, self.receive)
        # device-side client for submitting operations
        self.client = PBFTClient(
            node_id=node_id,
            committee=self.committee,
            sim=sim,
            transport=self,
            config=self.config.pbft,
            event_log=event_log,
            route_fn=self._first_hop,
        )

        if self.is_member:
            self._activate_endorser()

    # ------------------------------------------------------------------
    # identity & helpers
    # ------------------------------------------------------------------

    @property
    def is_member(self) -> bool:
        """True iff this node sits in the current committee."""
        return self.node_id in self.committee

    def _record(self, kind: str, **data) -> None:
        if self.events is not None:
            self.events.record(self.sim.now, kind, node=self.node_id, **data)

    def send(self, dst: int, payload) -> None:
        """Transport: a copy addressed to this node bypasses the network."""
        if dst == self.node_id:
            # zero-cost local hand-off, still asynchronous for determinism
            self.sim.schedule(0.0, self._dispatch, payload)
        else:
            self.network.send(self.node_id, dst, payload)

    def multicast(self, dsts, payload) -> None:
        """Transport: *payload* to every id in *dsts*, this node included
        when listed.

        The local hand-off keeps its place in the simulator's sequence
        order -- destinations before this node, the node, those after --
        so equal-time events fire as per-copy sends would have fired them.
        """
        me = self.node_id
        if me not in dsts:
            self.network.multicast(me, dsts, payload)
            return
        at = dsts.index(me)
        self.network.multicast(me, dsts[:at], payload)
        self.sim.schedule(0.0, self._dispatch, payload)
        self.network.multicast(me, dsts[at + 1:], payload)

    def _first_hop(self) -> int:
        """Route a new request to the geographically nearest endorser."""
        if self.is_member:
            return self.node_id
        best, best_d = self.committee[0], float("inf")
        for member in self.committee:
            pos = self.directory.get(member)
            if pos is None:
                continue
            d = haversine_m(self.position, pos)
            if d < best_d:
                best, best_d = member, d
        return best

    def move_to(self, position: LatLng) -> None:
        """Physically relocate the device (mobile nodes only in practice)."""
        self.position = position
        self.directory[self.node_id] = position

    # ------------------------------------------------------------------
    # inbound dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, payload) -> None:
        """Handle one inbound payload: from the network while the node
        routes its own port (see ``_route``), or handed to itself by a
        send or multicast that lists this node."""
        handler = self._HANDLERS.get(payload.kind)
        if handler is not None:
            handler(self, payload)
        elif self.replica is not None:
            # halted below the minimum: the replica's kinds still flow
            self.replica.receive(payload)
        elif not self.switching:
            # not (yet) an active endorser: keep a bounded window of
            # consensus traffic in case a CommitteeInfo is in flight
            self._preactivation_buffer.append(payload)

    #: The node's handler on its port.  The same function as the local
    #: hand-off, whose scheduled callback keeps the qualname
    #: ``GPBFTNode._dispatch`` that schedule fingerprints hash.
    receive = _dispatch

    def _route(self) -> None:
        """Swap the port's handler at an edge of the routing state: an
        active endorser neither switching nor halted delivers straight to
        its replica, which hands the node's kinds back (``host``), so a
        vote costs what it does on a cluster; otherwise the node's
        ``receive`` keeps the pre-activation window, switch and halt."""
        direct = self.replica is not None and not (self.switching or self.halted_below_minimum)
        self.network.set_handler(self.node_id, self.replica.receive if direct else self.receive)

    def _on_reply(self, reply) -> None:
        self.client.receive(reply)

    # ------------------------------------------------------------------
    # device role: geo reports + transactions
    # ------------------------------------------------------------------

    def start_reporting(self) -> None:
        """Begin the periodic location-report loop at a random phase."""
        delay = self.rng.uniform(0.0, self.config.election.report_interval_s)
        self._report_timer = self.sim.schedule(delay, self._report_loop)

    def _report_loop(self) -> None:
        self.send_geo_report()
        self._report_timer = self.sim.schedule(
            self.config.election.report_interval_s, self._report_loop
        )

    def send_geo_report(self) -> GeoReport:
        """Upload one ``<lng, lat, ts>`` report to every endorser."""
        report = GeoReport(node=self.node_id, position=self.position, timestamp=self.sim.now)
        self.multicast(self.committee, GeoReportMsg(report))
        return report

    def _on_geo_report(self, msg: GeoReportMsg) -> None:
        if not self.is_member:
            return  # only endorsers maintain election tables
        if self.admission is not None and not self.admission.admit(msg.report):
            self._record(EV_GEO_REPORT_REJECTED, subject=msg.report.node)
            return
        try:
            self.election_table.observe(msg.report)
        except GeoError:
            pass  # stale or out-of-order report; the chain keeps canonical order
        else:
            if self.obs is not None:
                self.obs.geo_report()

    def next_transaction(self, key: str = "data", value: str = "", fee: float = 1.0) -> Transaction:
        """Build this device's next normal transaction (geo-tagged)."""
        from repro.chain.transaction import NormalTransaction

        geo = GeoReport(node=self.node_id, position=self.position, timestamp=self.sim.now)
        tx = NormalTransaction(
            sender=self.node_id,
            nonce=self._tx_nonce,
            fee=fee,
            geo=geo,
            key=key,
            value=value,
        )
        self._tx_nonce += 1
        return tx

    def submit_transaction(self, tx: Transaction | None = None) -> str:
        """Submit a transaction for consensus; returns the request id.

        In per-transaction mode the transaction becomes one PBFT request;
        in block mode it is handed to the nearest endorser's mempool.
        """
        if tx is None:
            tx = self.next_transaction(key=f"k{self.node_id}", value=str(self._tx_nonce))
        if self.mode == "per_tx":
            return self.client.submit(TxOperation(tx))
        self._record(EV_TX_SUBMITTED, tx_id=tx.tx_id)
        self.send(self._first_hop(), TxSubmission(tx))
        return tx.tx_id

    # ------------------------------------------------------------------
    # endorser role: activation / deactivation
    # ------------------------------------------------------------------

    def _activate_endorser(self) -> None:
        """(Re)launch the PBFT replica for the current era."""
        self.replica = PBFTReplica(
            node_id=self.node_id,
            committee=self.committee,
            sim=self.sim,
            transport=self._interface,
            config=self.config.pbft,
            executor=self._execute_operation,
            state_digest_fn=lambda: self.ledger.state.root,
            event_log=self.events,
            faults=self.faults,
            epoch=self.era,
            obs=self.obs,
            host={kind: MethodType(handler, self) for kind, handler
                  in self._HANDLERS.items() if kind != ClientRequest.kind},
        )
        if self._audit_timer is None:
            self._audit_timer = self.sim.schedule(self.config.era.period_s, self._audit_loop)
        if self.mode == "block" and self._block_timer is None:
            self._block_timer = self.sim.schedule(self.block_interval_s, self._block_loop)
        # replay consensus traffic that arrived before activation; the
        # replica's epoch filter discards anything from older eras
        backlog = self._preactivation_buffer
        while backlog:
            self.replica.receive(backlog.popleft())
        self._route()

    def _deactivate_endorser(self) -> None:
        if self.replica is not None:
            self.replica.shutdown()
            self.replica = None
            self._route()
        for timer_name in ("_audit_timer", "_block_timer"):
            timer = getattr(self, timer_name)
            if timer is not None:
                timer.cancel()
                setattr(self, timer_name, None)

    def _on_pbft_request(self, request: ClientRequest) -> None:
        if self.switching:
            # paper III-E: the system refuses to process transactions
            # during the switch period; we buffer and replay afterwards
            self._switch_buffer.append(request)
            return
        if self.halted_below_minimum and not isinstance(
            request.op, EraSwitchOperation
        ):
            # paper III-C: below min_endorsers the system stops accepting
            # and committing new transactions -- but era-switch operations
            # must still flow or the system could never recover
            self._switch_buffer.append(request)
            return
        if self.replica is not None:
            self.replica.receive(request)

    def _update_minimum_halt(self) -> None:
        """Recompute the below-minimum halt after a committee change."""
        was_halted = self.halted_below_minimum
        self.halted_below_minimum = (
            len(self.committee) < self.committee_manager.policy.min_endorsers
        )
        if was_halted and not self.halted_below_minimum and self.replica is not None:
            backlog, self._switch_buffer = self._switch_buffer, []
            for request in backlog:
                self.replica.receive(request)
        if self.halted_below_minimum != was_halted:
            self._route()
        if self.halted_below_minimum and not was_halted:
            self._record(EV_GPBFT_HALTED_BELOW_MINIMUM, committee=len(self.committee))

    # ------------------------------------------------------------------
    # execution of ordered operations
    # ------------------------------------------------------------------

    def _execute_operation(self, op, seq: int) -> bytes:
        if isinstance(op, TxOperation):
            self._execute_tx(op.tx, seq)
        elif isinstance(op, EraSwitchOperation):
            self._execute_era_switch(op)
        elif isinstance(op, BlockProposalOperation):
            self._execute_block_proposal(op)
        # unknown (e.g. null) operations advance state without effect
        return self.ledger.state.root

    def _execute_tx(self, tx: Transaction, seq: int) -> None:
        if self.ledger.contains_tx(tx.tx_id):
            return
        # every replica must assemble a byte-identical block, so only
        # agreed data goes in: replicas may commit one request in
        # different local views (prepared in view v, re-proposed in
        # v + 1), so neither the view nor its primary may, nor the
        # local execution time
        proposer = self.committee[0]
        block = Block.assemble(
            height=self.ledger.height + 1,
            parent=self.ledger.head.digest(),
            era=self.era,
            view=0,
            seq=seq,
            proposer=proposer,
            timestamp=tx.geo.timestamp,
            transactions=[tx],
        )
        self.ledger.append(block)
        self.incentive.on_block(block.header.height, proposer, self.committee, tx.fee)
        self._observe_tx_geo(tx)
        self._record(EV_TX_COMMITTED, tx_id=tx.tx_id, height=block.header.height,
                     digest=block.digest())

    def _execute_block_proposal(self, op: BlockProposalOperation) -> None:
        block = op.block
        if block.header.height != self.ledger.height + 1:
            return  # stale proposal (parallel producer lost the race)
        try:
            self.ledger.append(block)
        except ChainError:
            self._suspects.add(op.producer)
            self.incentive.exclude(op.producer)
            self._record(EV_BLOCK_REJECTED, producer=op.producer, height=block.header.height)
            return
        self.incentive.on_block(
            block.header.height, op.producer, self.committee, block.total_fees
        )
        try:
            self.election_table.reset_timer(op.producer, self.sim.now)
        except GeoError:
            pass  # producer never reported here yet; nothing to reset
        self.mempool.remove_committed(block.transactions)
        for tx in block.transactions:
            self._observe_tx_geo(tx)
            self._record(EV_TX_COMMITTED, tx_id=tx.tx_id, height=block.header.height,
                         digest=block.digest())
        self._record(EV_BLOCK_COMMITTED, producer=op.producer, height=block.header.height,
                     txs=len(block.transactions))

    def _observe_tx_geo(self, tx: Transaction) -> None:
        """Transactions carry geo info at the end of the body; feed it to
        the election table (paper III-B3: uploads add table entries)."""
        if not self.is_member:
            return
        try:
            self.election_table.observe(tx.geo)
        except GeoError:
            pass  # older than the latest periodic report; chain order wins

    # ------------------------------------------------------------------
    # block production (block mode)
    # ------------------------------------------------------------------

    def _block_loop(self) -> None:
        self._block_timer = None
        if self.replica is None or self.switching:
            return
        self._maybe_produce_block()
        self._block_timer = self.sim.schedule(self.block_interval_s, self._block_loop)

    def _maybe_produce_block(self) -> None:
        if len(self.mempool) == 0:
            return
        height = self.ledger.height + 1
        # fallback rotation: every interval spent stuck at the same height
        # re-draws the lottery so a crashed winner cannot stall the chain
        if height == self._produce_height:
            self._produce_attempt += 1
        else:
            self._produce_height = height
            self._produce_attempt = 0
        timers = self.election_table.timers(self.committee, self.sim.now)
        producer = select_producer(
            timers, self.era, height, attempt=self._produce_attempt)
        if producer != self.node_id:
            return
        txs = self.mempool.peek_batch(max_txs=MAX_BLOCK_TXS)
        block = Block.assemble(
            height=height,
            parent=self.ledger.head.digest(),
            era=self.era,
            view=self.replica.view if self.replica else 0,
            seq=0,
            proposer=self.node_id,
            timestamp=self.sim.now,
            transactions=txs,
        )
        self._record(EV_BLOCK_PROPOSED, height=height, txs=len(txs))
        self.client.submit(BlockProposalOperation(block=block, producer=self.node_id))

    def _on_tx_submission(self, msg: TxSubmission) -> None:
        if not self.is_member:
            return
        if self.ledger.contains_tx(msg.tx.tx_id):
            return
        added = self.mempool.add(msg.tx)
        if added and self.obs is not None:
            self.obs.mempool_depth(len(self.mempool))
        if added and not msg.forwarded:
            # gossip once to the rest of the committee so any producer
            # can pack it
            self.network.multicast(
                self.node_id, self.committee, TxSubmission(msg.tx, forwarded=True))

    # ------------------------------------------------------------------
    # Algorithm-1 audits and era switches
    # ------------------------------------------------------------------

    def _audit_loop(self) -> None:
        self._audit_timer = None
        if self.replica is None:
            return
        if not self.switching:
            self._run_audit()
        self._audit_timer = self.sim.schedule(self.config.era.period_s, self._audit_loop)

    def _run_audit(self) -> None:
        now = self.sim.now
        policy = self.committee_manager.policy
        # paper III-B3: an endorser that misses a block is removed.  A
        # completed view change is exactly that evidence: the primaries of
        # every view before the current one failed to drive consensus.
        if self.replica is not None and self.replica.view > 0:
            for view in range(self.replica.view):
                suspect = self.replica.primary_of(view)
                if suspect != self.node_id:
                    self._suspects.add(suspect)
                    self.incentive.exclude(suspect)
        # keep the election table memory-bounded on long runs
        self.election_table.prune(now)
        candidates = self.election_table.eligible_candidates(
            now, exclude=set(self.committee) | policy.blacklist
        )
        result = authenticate_geographic(
            self.election_table, self.committee, candidates, now, self.config.election
        )
        qualified = set(result.qualified_candidates)
        # whitelisted nodes join without geographic qualification, as soon
        # as they have appeared on the network at all
        for node in policy.whitelist:
            if node not in self.committee and node in self.directory:
                qualified.add(node)
        invalid = set(result.invalid_endorsers) | (self._suspects & set(self.committee))
        delta = self.committee_manager.plan_delta(sorted(qualified), sorted(invalid))
        self._record(
            EV_GPBFT_AUDIT,
            era=self.era,
            invalid=len(invalid),
            qualified=len(qualified),
            planned_add=len(delta.added),
            planned_remove=len(delta.removed),
            candidates=len(candidates),
        )
        if delta.empty:
            return
        # the lowest-id valid continuing member proposes the switch;
        # every endorser computes the same delta so any honest proposer
        # yields the same operation
        survivors = [m for m in self.committee if m not in delta.removed]
        if not survivors or survivors[0] != self.node_id:
            return
        new_committee = tuple(
            sorted((set(self.committee) - set(delta.removed)) | set(delta.added))
        )
        op = EraSwitchOperation(
            new_era=self.era + 1,
            committee=new_committee,
            added=delta.added,
            removed=delta.removed,
        )
        self._record(EV_ERA_SWITCH_PROPOSED, new_era=op.new_era,
                     added=list(op.added), removed=list(op.removed))
        self.client.submit(op)

    def _execute_era_switch(self, op: EraSwitchOperation) -> None:
        if op.new_era != self.era + 1 or self.switching:
            return  # duplicate or stale switch: idempotent no-op
        self.switching = True
        self.era_history.begin_switch(self.sim.now)
        carried = self.replica.pending_requests() if self.replica else []
        if self.replica is not None:
            self.replica.shutdown()
            self.replica = None
            self._route()
        self._record(EV_ERA_SWITCH_STARTED, new_era=op.new_era)
        self.sim.schedule(
            self.config.era.switch_duration_s, self._complete_era_switch, op, carried
        )

    def _complete_era_switch(self, op: EraSwitchOperation, carried: list) -> None:
        old_committee = self.committee
        self.era = op.new_era
        self.committee = tuple(sorted(op.committee))
        self.committee_manager = CommitteeManager(self.committee, self.genesis.policy)
        self._update_minimum_halt()
        self.era_history.complete_switch(self.sim.now, self.committee)
        self.switching = False
        self._suspects -= set(op.removed)
        for node in op.added:
            # a fresh election clears old sanctions (new-era clean slate)
            self.incentive.reinstate(node)
        self.client.update_committee(self.committee)
        self._record(EV_ERA_SWITCH_COMPLETED, era=self.era, committee_size=len(self.committee))

        survivors = [m for m in old_committee if m in self.committee]
        if self.is_member:
            self._activate_endorser()
            backlog, self._switch_buffer = self._switch_buffer, []
            # carried requests: every old member holds a copy, so only the
            # designated survivor re-forwards; the rest watch for liveness
            forwarder = survivors[0] if survivors else self.committee[0]
            for request in carried:
                if self.node_id == forwarder:
                    self.replica.receive(request)
                else:
                    self.replica.watch_request(request)
            for request in backlog:
                self.replica.receive(request)
        else:
            self._deactivate_endorser()
            self._switch_buffer.clear()

        # every continuing member announces the new committee, so that
        # receivers can demand f+1 matching copies before re-routing or
        # activating (one byzantine announcer must not be able to lie)
        if self.node_id in survivors:
            info = CommitteeInfo(era=self.era, committee=self.committee, sender=self.node_id)
            self.network.multicast(self.node_id, sorted(self.directory), info)

    def _on_committee_info(self, info: CommitteeInfo) -> None:
        if info.era <= self.era and info.committee == self.committee:
            return
        if info.era < self.era:
            return  # stale announcement
        # adopt only after f+1 matching announcements (f from the
        # committee we currently believe in): a single byzantine
        # announcer cannot re-route our requests or fake our election
        key = (info.era, tuple(sorted(info.committee)))
        votes = self._committee_votes.setdefault(key, set())
        votes.add(info.sender)
        needed = weak_certificate_size(tolerated_faults(len(self.committee)))
        if len(votes) < needed:
            return
        self._committee_votes = {
            k: v for k, v in self._committee_votes.items() if k[0] > info.era
        }
        was_member = self.is_member
        self.era = info.era
        self.committee = tuple(sorted(info.committee))
        self.committee_manager = CommitteeManager(self.committee, self.genesis.policy)
        self._update_minimum_halt()
        self.client.update_committee(self.committee)
        if self.is_member and not was_member:
            # newly elected: sync the chain before joining consensus
            self._record(EV_GPBFT_ACTIVATED, era=self.era)
            self._sync_chain(info.sender)
            self._activate_endorser()
        elif not self.is_member and was_member:
            self._record(EV_GPBFT_DEACTIVATED, era=self.era)
            self._deactivate_endorser()

    def _sync_chain(self, from_node: int) -> None:
        """Charge traffic for fetching the blocks this node is missing.

        The actual block data is copied by the deployment's sync hook
        (honest nodes hold identical ledgers); here we account the bytes
        that a real state transfer would move.
        """
        if self._chain_sync_hook is not None:
            self._chain_sync_hook(self, from_node)

    # populated by the deployment; kept overridable for tests
    _chain_sync_hook: Callable | None = None

    #: kind -> handler of the kinds the node consumes itself, one lookup
    #: per message it receives; every other kind is the replica's (see
    #: ``_dispatch``).  Class-level: see ``PBFTReplica._HANDLERS``; an
    #: active replica holds these bound, requests aside (``host``).
    _HANDLERS = {
        Reply.kind: _on_reply,
        ClientRequest.kind: _on_pbft_request,
        "geo.report": _on_geo_report,
        "gpbft.committee_info": _on_committee_info,
        "tx.submit": _on_tx_submission,
    }
