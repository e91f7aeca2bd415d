"""The six workloads, built from the layers' public API.

Each workload is a class: constructing it is the set-up (build the
topology, draw the arrival schedule from the seed, schedule it), ``run``
is the one timed call, and ``outcome`` reads results through public
attributes afterwards.  All load is open loop on the simulated clock:
arrival times are drawn before the run and fire whether or not earlier
requests finished, and latency is timed from the scheduled submit.

Injected conditions: link delay 10 ms +- 5 ms uniform (``NetworkConfig``
defaults), no loss, no bandwidth model, and a per-node processing rate
of 10 msg/s (the paper's calibration) or 50 msg/s (a city gateway) as
each class states.  Every run goes to a fixed simulated horizon chosen
so the system drains, so no stop condition is evaluated per event.

Sizes are what fits several rounds into one measured run on two shared
cores (about 2-3 host seconds a round); the shapes -- committee widths,
rates, timeouts, fault schedule -- are the ones later issues reason
about, and are documented with their reasons in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.codec.registry import WIRE_MESSAGES
from repro.common.config import (
    CommitteeConfig,
    GPBFTConfig,
    TopologySpec,
    VerifyConfig,
)
from repro.common.eventlog import EV_PBFT_VIEW_CHANGE
from repro.common.rng import DeterministicRNG
from repro.core.messages import EraSwitchOperation, TxOperation
from repro.crypto.keys import SIGNATURE_BYTES, KeyPair
from repro.net.simulator import Simulator
from repro.obs import ObsConfig, Observability
from repro.pbft.faults import CrashFaults
from repro.pbft.messages import RawOperation
from repro.workloads.streams import AggregatedArrivals, DiurnalWave

from perfbench.spec import LADDER_RATES
from perfbench.stats import percentile, tail_pct

#: Serialized size of one transaction payload, as across the experiments.
TX_BYTES = 200

#: Latency limit on the ladder's tail percentile, simulated seconds.
LADDER_LIMIT_SIM_S = 2.0

#: Ladder steps at or below this rate must commit everything offered.
LADDER_SCORED_MAX_RPS = 6


@dataclass
class Outcome:
    """What one round did.

    Attributes:
        attempted: operations whose failure counts against the workload.
        failed: those of them that did not complete correctly.
        violations: replicas with diverging logs or ledgers, plus double
            commits, at the end of the run.
        msgs: the unit of ``msgs_per_s`` -- envelopes delivered, or
            codec round trips for ``wire_replay``.
        commits: requests committed at their client.
        sim: per-layer counters and simulated metrics, by metric name.
        digest: sha256 guard over the simulated result.
        problems: human-readable reasons the output check failed.
    """

    attempted: int
    failed: int
    violations: int
    msgs: int
    commits: int
    sim: dict[str, float]
    digest: str
    problems: list[str] = field(default_factory=list)


def _config(seed: int, rate: float, committee: int, monitors: bool = False,
            **pbft: Any) -> GPBFTConfig:
    """Experiment configuration: era audits parked, PBFT knobs as given."""
    base = GPBFTConfig()
    return base.replace(
        network=replace(base.network, seed=seed, processing_rate=rate),
        committee=CommitteeConfig(min_endorsers=4, max_endorsers=committee),
        era=replace(base.era, period_s=1e12),
        pbft=replace(base.pbft, **pbft),
        verify=VerifyConfig(monitors=monitors),
    )


def _op(tag: str, k: int) -> RawOperation:
    return RawOperation(op_id=f"{tag}-{k}", size_bytes=TX_BYTES)


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _latency_metrics(latencies: list[float]) -> dict[str, float]:
    """Median and the highest tail percentile the sample supports."""
    ordered = sorted(latencies)
    out = {"commit_latency_p50_sim_s": percentile(ordered, 50.0)}
    pct = tail_pct(len(ordered))
    if pct is not None:
        out["commit_latency_tail_sim_s"] = percentile(ordered, pct)
        out["commit_latency_tail_pct"] = pct
    return out


def _network_metrics(events: int, stats: list[Any], commits: int) -> dict[str, float]:
    """The ``net.*`` counters of one round, over all its networks."""
    sent = sum(s.messages_sent for s in stats)
    return {
        "net.events": events,
        "net.events_per_msg": events / sent,
        "net.msgs_sent": sent,
        "net.bytes_sent": sum(s.bytes_sent for s in stats),
        "net.msgs_per_commit": sent / commits if commits else 0.0,
        "pbft.commits": commits,
    }


class _ClusterRound:
    """Bookkeeping shared by the workloads that drive ``PBFTCluster``s."""

    def __init__(self) -> None:
        self.clusters: list[Any] = []
        self.offered = 0

    def clients(self) -> list[Any]:
        """Every client of every cluster, in id order per cluster."""
        return [c.clients[k] for c in self.clusters for k in sorted(c.clients)]

    def latencies(self) -> list[float]:
        """Commit latencies, scheduled submit to client completion."""
        return [lat for client in self.clients()
                for lat in client.completed.values()]

    def violations(self, problems: list[str]) -> int:
        """Clusters whose replicas disagree, plus ops executed twice."""
        count = 0
        for index, cluster in enumerate(self.clusters):
            if not cluster.all_agree():
                count += 1
                problems.append(f"cluster {index}: executed logs diverge")
            for node in sorted(cluster.replicas):
                ops = cluster.committed_ops(node)
                if len(set(ops)) != len(ops):
                    count += 1
                    problems.append(
                        f"cluster {index}: replica {node} executed an op twice")
        return count

    def view_changes(self) -> int:
        return sum(c.events.count(EV_PBFT_VIEW_CHANGE) for c in self.clusters)

    def client_retries(self) -> float:
        """Retry broadcasts: a client sends one message per submit and
        one per replica on every retry, and nothing else."""
        retries = 0.0
        for cluster in self.clusters:
            sent = cluster.network.stats.messages_sent_by_node
            first = sum(len(c.completed) + c.outstanding
                        for c in cluster.clients.values())
            total = sum(sent[k] for k in sorted(cluster.clients))
            retries += (total - first) / len(cluster.replicas)
        return retries

    def commits(self) -> int:
        return sum(c.completed_count for c in self.clients())

    def outcome(self, events: int, extra: dict[str, float],
                scored: "_ClusterRound | None" = None,
                latency: bool = True, kb: bool = False) -> Outcome:
        """Assemble the round's outcome from the clusters' public state.

        Traffic is counted over every cluster; *scored* (default: all of
        them) names the ones whose failures and safety violations decide
        the verdict, which lets the overload ladder keep its deliberately
        overloaded step out of it.
        """
        scored = scored or self
        problems: list[str] = []
        commits = self.commits()
        latencies = self.latencies()
        stats = [c.network.stats for c in self.clusters]
        attempted = scored.offered
        failed = attempted - scored.commits()
        if failed:
            problems.append(f"{failed} of {attempted} requests did not commit")
        sim = _network_metrics(events, stats, commits)
        sim["workloads.offered"] = self.offered
        sim["failed_frac"] = failed / attempted
        sim["safety_violations"] = violations = scored.violations(problems)
        sim["pbft.view_changes"] = self.view_changes()
        sim["pbft.client_retries"] = self.client_retries()
        if latency and latencies:
            sim.update(_latency_metrics(latencies))
        if kb and commits:
            sim["kb_per_commit"] = sim["net.bytes_sent"] / 1024.0 / commits
        sim.update(extra)
        return Outcome(
            attempted=attempted, failed=failed, violations=violations,
            msgs=sum(s.messages_delivered for s in stats), commits=commits,
            sim=sim, problems=problems,
            digest=_digest(events, sim["net.msgs_sent"], sim["net.bytes_sent"],
                           commits, sorted(latencies)))


class Workload:
    """One named workload; see the module docstring for the life cycle."""

    name = ""
    #: (per-layer ratio metric, variant) run once more in the traced run.
    extra_variant: tuple[str, str] | None = None

    def __init__(self, seed: int, variant: str = "plain") -> None:
        raise NotImplementedError

    def run(self) -> None:
        """The timed call."""
        raise NotImplementedError

    def outcome(self) -> Outcome:
        """Results and output checks, read after :meth:`run`."""
        raise NotImplementedError


class PbftWide(Workload):
    """Flat PBFT at the paper's full scale (Table III / Fig. 6 worst case)."""

    name = "pbft_wide_n202"
    REPLICAS = 202
    TXS = 2
    GAP_SIM_S = 40.0

    def __init__(self, seed: int, variant: str = "plain") -> None:
        rng = DeterministicRNG(seed, "perfbench/wide")
        self.round = _ClusterRound()
        cluster = TopologySpec.cluster(
            self.REPLICAS, n_clients=1,
            config=_config(seed, 10.0, self.REPLICAS)).build()
        self.round.clusters.append(cluster)
        self.round.offered = self.TXS
        self.sim = cluster.sim
        client = cluster.any_client
        for k in range(self.TXS):
            at = 1.0 + self.GAP_SIM_S * k + rng.uniform(0.0, 1.0)
            self.sim.schedule_at(at, client.submit, _op("wide", k))
        # a commit takes ~40 sim-s here and the 202 replies another ~20
        # to pass the client's receive queue: 120 s drains the last one
        self.horizon = self.GAP_SIM_S * self.TXS + 120.0

    def run(self) -> None:
        self.sim.run(until=self.horizon)

    def outcome(self) -> Outcome:
        return self.round.outcome(self.sim.events_processed, {}, kb=True)


class GpbftCity(Workload):
    """The aggregated city day (``e2e.agg_day_1M``) at CI size."""

    name = "gpbft_city_12z"
    extra_variant = ("obs.on_overhead_ratio", "obs")
    ZONES = 12
    REPLICAS = 4
    POOL = 4
    PER_ZONE = 340
    RATE_RPS = 1.01
    EVENT_CAPACITY = 20_000
    LOG_BOUND = 2_000

    def __init__(self, seed: int, variant: str = "plain") -> None:
        self.round = _ClusterRound()
        self.sim = Simulator()
        self.obs = None
        if variant == "obs":
            self.obs = Observability(ObsConfig(
                timeseries=True, sample_rate=0.01, flight_recorder=True))
            self.obs.bind(self.sim)
        # the wave's period is the time the zone needs for its requests at
        # the mean rate, so every zone sees one full day/night cycle
        duration = self.PER_ZONE / self.RATE_RPS
        spec = TopologySpec.zoned(
            self.ZONES, nodes_per_zone=self.POOL,
            endorsers_per_zone=self.REPLICAS, seed=seed, start_reports=False,
            workload="aggregate", event_capacity=self.EVENT_CAPACITY)
        self.streams = []
        for index, zone in enumerate(spec.zones):
            zseed = spec.zone_seed(index)
            config = _config(zseed, 50.0, self.REPLICAS,
                             retry_backoff_factor=2.0,
                             retry_backoff_max_s=300.0)
            cluster = TopologySpec.cluster(
                self.REPLICAS, n_clients=self.POOL, config=config,
                event_capacity=spec.event_capacity).build(
                    sim=self.sim,
                    obs=self.obs.for_zone(zone.name) if self.obs else None)
            # the bounds the day-long point sets so memory stays flat
            for client in cluster.clients.values():
                client.completed_bound = self.LOG_BOUND
            for executor in cluster.executors.values():
                executor.bound = self.LOG_BOUND
            self.round.clusters.append(cluster)
            submits = [self._submitter(cluster.clients[k], zone.name, slot)
                       for slot, k in enumerate(sorted(cluster.clients))]
            stream = AggregatedArrivals(
                self.sim, submits, DeterministicRNG(zseed, "perfbench/city"),
                DiurnalWave(base_rps=self.RATE_RPS,
                            amplitude_rps=0.5 * self.RATE_RPS,
                            period_s=duration,
                            phase_s=duration * index / self.ZONES))
            # a fixed count per zone, not a fixed horizon: the work a
            # round does must not vary with the seed's Poisson count
            stream.start(limit=self.PER_ZONE)
            self.streams.append(stream)
        self.round.offered = self.PER_ZONE * self.ZONES
        self.horizon = 2.0 * duration + 120.0

    @staticmethod
    def _submitter(client: Any, zone: str, slot: int) -> Callable[[], None]:
        count = [0]

        def submit() -> None:
            k = count[0]
            count[0] = k + 1
            client.submit(_op(f"city-{zone}-{slot}", k))
        return submit

    def run(self) -> None:
        self.sim.run(until=self.horizon)
        if self.obs is not None:
            self.obs.finish()

    def outcome(self) -> Outcome:
        out = self.round.outcome(self.sim.events_processed, {}, kb=True)
        submitted = sum(s.submitted for s in self.streams)
        if submitted != self.round.offered:
            out.problems.append(
                f"streams submitted {submitted} of {self.round.offered}")
        return out


class GpbftPaper(Workload):
    """The paper's headline system: 202 nodes, 40 endorsers, geography on."""

    name = "gpbft_paper_n202"
    NODES = 202
    ENDORSERS = 40
    TXS = 50
    MEAN_GAP_SIM_S = 16.0

    def __init__(self, seed: int, variant: str = "plain") -> None:
        rng = DeterministicRNG(seed, "perfbench/paper")
        self.dep = dep = TopologySpec.single(
            self.NODES, self.ENDORSERS,
            config=_config(seed, 10.0, self.ENDORSERS), seed=seed,
            start_reports=True, mode="per_tx").build()
        devices = [node.node_id for node in dep.devices]
        self.submitters = []
        at = 1.0
        for k in range(self.TXS):
            at += rng.exponential(self.MEAN_GAP_SIM_S)
            node = dep.nodes[devices[rng.integers(0, len(devices))]]
            self.submitters.append(node)
            if k == self.TXS // 2:
                dep.sim.schedule_at(at - 0.05, dep.force_era_switch)
            dep.sim.schedule_at(at, self._submit, node, k)
        self.horizon = at + 200.0

    @staticmethod
    def _submit(node: Any, k: int) -> None:
        tx = node.next_transaction(key=f"paper-{k}", value=str(k))
        node.client.submit(TxOperation(tx))

    def run(self) -> None:
        self.dep.sim.run(until=self.horizon)

    def outcome(self) -> Outcome:
        dep = self.dep
        problems: list[str] = []
        # a device may have submitted more than once: visit each client once
        clients = {node.node_id: node.client for node in self.submitters}
        latencies = [lat for k in sorted(clients)
                     for lat in clients[k].completed.values()]
        commits = len(latencies)
        failed = self.TXS - commits
        if failed:
            problems.append(f"{failed} of {self.TXS} transactions did not commit")
        endorsers = dep.endorsers
        heights = [node.ledger.height for node in endorsers]
        violations = 0
        if not dep.ledgers_consistent():
            violations += 1
            problems.append("endorser ledgers are not prefix-consistent")
        if max(heights) > self.TXS:
            violations += 1
            problems.append("a ledger holds more blocks than transactions")
        lead = dep.nodes[dep.committee[0]]
        if lead.era != 1:
            problems.append(f"era is {lead.era}, expected one switch")
        stats = dep.network.stats
        sim = _network_metrics(dep.sim.events_processed, [stats], commits)
        sim.update(_latency_metrics(latencies) if latencies else {})
        sim.update({
            "workloads.offered": self.TXS,
            "failed_frac": failed / self.TXS,
            "safety_violations": violations,
            "kb_per_commit": stats.bytes_sent / 1024.0 / max(commits, 1),
            "era_switch_downtime_sim_s": lead.era_history.total_switch_time(),
            "pbft.view_changes": dep.events.count(EV_PBFT_VIEW_CHANGE),
            "core.era_switches": lead.era,
            "chain.blocks_applied": sum(heights),
            "chain.height_spread": max(heights) - min(heights),
            "geo.reports_sent": stats.messages_by_kind.get("geo.report", 0),
        })
        return Outcome(
            attempted=self.TXS, failed=failed, violations=violations,
            msgs=stats.messages_delivered, commits=commits, sim=sim,
            problems=problems,
            digest=_digest(dep.sim.events_processed, stats.messages_sent,
                           stats.bytes_sent, commits, sorted(latencies),
                           heights))


class Failover(Workload):
    """Primary and successor crash and recover under scheduled load."""

    name = "failover_n16"
    extra_variant = ("verify.on_overhead_ratio", "monitors")
    REPLICAS = 16
    CLIENTS = 4
    REQUESTS = 400
    MEAN_GAP_SIM_S = 4.0
    CRASH_AT = 120.0
    RECOVER_AT = 470.0
    # A stable checkpoint drops a replica's replay protection for the
    # requests below it; a retransmission still queued behind a backlog is
    # then ordered a second time (README, fragile regimes).  The rate, the
    # crash time and this interval keep the outage and its backlog -- about
    # 30 + 45 sequence numbers -- below the first checkpoint, so that no
    # checkpoint becomes stable while retransmissions are in flight.
    CHECKPOINT_INTERVAL = 128

    def __init__(self, seed: int, variant: str = "plain") -> None:
        rng = DeterministicRNG(seed, "perfbench/failover")
        self.round = _ClusterRound()
        faults = {0: CrashFaults(), 1: CrashFaults()}
        config = _config(
            seed, 50.0, self.REPLICAS, monitors=variant == "monitors",
            view_change_timeout_s=60.0, request_retry_timeout_s=30.0,
            retry_backoff_factor=2.0, retry_backoff_max_s=120.0,
            checkpoint_interval=self.CHECKPOINT_INTERVAL)
        self.cluster = cluster = TopologySpec.cluster(
            self.REPLICAS, n_clients=self.CLIENTS,
            config=config).build(faults=faults)
        self.round.clusters.append(cluster)
        self.round.offered = self.REQUESTS
        clients = self.round.clients()
        self.submit_at: dict[str, float] = {}
        at = 1.0
        for k in range(self.REQUESTS):
            at += rng.exponential(self.MEAN_GAP_SIM_S)
            client = clients[k % len(clients)]
            op = _op("failover", k)
            self.submit_at[f"{client.node_id}:{op.op_id}"] = at
            cluster.sim.schedule_at(at, client.submit, op)
        for fault in faults.values():
            cluster.sim.schedule_at(self.CRASH_AT, fault.crash)
            cluster.sim.schedule_at(self.RECOVER_AT, fault.recover)
        self.horizon = max(at, self.RECOVER_AT) + 400.0

    def run(self) -> None:
        self.cluster.sim.run(until=self.horizon)
        if self.cluster.monitors is not None:
            self.cluster.monitors.check_final()

    def outcome(self) -> Outcome:
        # time without service: the crash to the first completion of a
        # request that was due after it
        served = [self.submit_at[rid] + lat
                  for client in self.round.clients()
                  for rid, lat in client.completed.items()
                  if self.submit_at[rid] >= self.CRASH_AT]
        extra = {"unavailable_sim_s":
                 min(served) - self.CRASH_AT if served else 0.0}
        out = self.round.outcome(self.cluster.sim.events_processed, extra)
        if out.sim["pbft.view_changes"] == 0:
            out.problems.append("the crash caused no view change")
        return out


class OverloadLadder(Workload):
    """Latency against offered rate, through the knee and past it."""

    name = "overload_ladder_n4"
    REPLICAS = 4
    CLIENTS = 4
    # each step drains for as long as it was loaded.  The last step is
    # loaded twice as long as the others: 200 s is what its backlog needs
    # to outlive the 120 s view-change timeout, where collapse starts
    LOAD_SIM_S = 100.0
    OVERLOAD_SIM_S = 200.0

    def __init__(self, seed: int, variant: str = "plain") -> None:
        self.steps: list[tuple[int, _ClusterRound]] = []
        self.horizons: list[float] = []
        for rate in LADDER_RATES:
            load = (self.OVERLOAD_SIM_S if rate == LADDER_RATES[-1]
                    else self.LOAD_SIM_S)
            rng = DeterministicRNG(seed, f"perfbench/ladder/{rate}")
            step = _ClusterRound()
            config = _config(
                seed, 50.0, self.REPLICAS, request_retry_timeout_s=60.0,
                retry_backoff_factor=2.0, retry_backoff_max_s=300.0)
            cluster = TopologySpec.cluster(
                self.REPLICAS, n_clients=self.CLIENTS, config=config,
                event_capacity=20_000).build()
            step.clusters.append(cluster)
            step.offered = int(rate * load)
            clients = step.clients()
            # a Poisson process conditioned on its count: sorted uniforms
            times = sorted(rng.uniform(0.0, load)
                           for _ in range(step.offered))
            for k, at in enumerate(times):
                cluster.sim.schedule_at(
                    1.0 + at, clients[k % len(clients)].submit,
                    _op(f"ladder-{rate}", k))
            self.steps.append((rate, step))
            self.horizons.append(1.0 + 2.0 * load)

    def run(self) -> None:
        for (_, step), horizon in zip(self.steps, self.horizons):
            step.clusters[0].sim.run(until=horizon)

    def outcome(self) -> Outcome:
        whole, scored = _ClusterRound(), _ClusterRound()
        extra: dict[str, float] = {}
        sustainable = 0
        holding = True
        for rate, step in self.steps:
            groups = [whole, scored] if rate <= LADDER_SCORED_MAX_RPS else [whole]
            for group in groups:
                group.clusters += step.clusters
                group.offered += step.offered
            latencies = sorted(step.latencies())
            p95 = percentile(latencies, 95.0) if latencies else 0.0
            extra[f"ladder.p95_sim_s.r{rate}"] = p95
            holding = (holding and len(latencies) == step.offered
                       and p95 <= LADDER_LIMIT_SIM_S)
            if holding:
                sustainable = rate
        # the overloaded last step is scored through these two alone
        _, overload = self.steps[-1]
        extra["overload_goodput_frac"] = overload.commits() / overload.offered
        extra["overload_safety_violations"] = overload.violations([])
        extra["sustainable_rate_rps"] = sustainable
        events = sum(s.clusters[0].sim.events_processed for _, s in self.steps)
        return whole.outcome(events, extra, scored=scored, latency=False)


class _Codec:
    """Encoders and decoders, under the names ``WIRE_MESSAGES`` gives them."""

    def __init__(self) -> None:
        self.enc: dict[str, Callable[..., bytes]] = {}
        self.dec: dict[str, Callable[..., Any]] = {}
        for kind in sorted(WIRE_MESSAGES):
            entry = WIRE_MESSAGES[kind]
            module = importlib.import_module(
                entry["codec_module"].removesuffix(".py").replace("/", "."))
            self.enc[kind] = getattr(module, entry["encoder"])
            if entry["decoder"]:
                self.dec[kind] = getattr(module, entry["decoder"])

    def op_bytes(self, op: Any) -> bytes:
        """The operation a request carries, in its own wire layout."""
        if isinstance(op, TxOperation):
            return self.enc["chain.transaction"](op.tx)
        if isinstance(op, EraSwitchOperation):
            return self.enc["gpbft.era_switch"](op)
        return op.signing_bytes().ljust(op.size_bytes, b"\0")[:op.size_bytes]

    def op_round_trips(self, op: Any, data: bytes) -> bool:
        if isinstance(op, TxOperation):
            return self.dec["chain.transaction"](data)[0] == op.tx
        if isinstance(op, EraSwitchOperation):
            return self.dec["gpbft.era_switch"](data) == op
        return data == self.op_bytes(op)

    def request_bytes(self, request: Any) -> bytes:
        return self.enc["pbft.request"](request, self.op_bytes(request.op))

    def round_trip(self, kind: str, msg: Any) -> tuple[bytes, bool]:
        """Encode *msg*; decode and compare where a decoder exists."""
        enc, dec = self.enc[kind], self.dec.get(kind)
        if kind == "pbft.request":
            data = self.request_bytes(msg)
            client, timestamp, _sig, op = dec(data)
            return data, ((client, timestamp) == (msg.client, msg.timestamp)
                          and self.op_round_trips(msg.op, op))
        if kind == "pbft.pre_prepare":
            request = self.request_bytes(msg.request)
            data = enc(msg, request)
            view, seq, sender, digest, _sig, carried = dec(data)
            return data, ((view, seq, sender, digest, carried)
                          == (msg.view, msg.seq, msg.sender, msg.digest, request))
        if kind in ("pbft.prepare", "pbft.commit", "pbft.checkpoint"):
            data = enc(msg)
            return data, dec(data, epoch=msg.epoch)[0] == msg
        if kind == "pbft.reply":
            data = enc(msg)
            return data, dec(data, request_id=msg.request_id)[0] == msg
        if kind == "pbft.view_change":
            proofs = [self.enc["pbft.prepared_proof"](
                proof, self.request_bytes(proof.request))
                for proof in msg.prepared]
            return enc(msg, proofs), True
        if kind == "pbft.new_view":
            pre_prepares = [self.enc["pbft.pre_prepare"](
                pp, self.request_bytes(pp.request)) for pp in msg.pre_prepares]
            return enc(msg, pre_prepares), True
        if kind == "geo.report":
            data = enc(msg.report)
            return data + bytes(SIGNATURE_BYTES), dec(data) == msg.report
        if kind == "chain.block":
            data = enc(msg)
            return data, dec(data).digest() == msg.digest()
        raise LookupError(f"no replay rule for wire kind {kind!r}")


def _tap_sends(network: Any, sink: list[tuple[int, str, Any]]) -> None:
    """Record every payload *network* carries whose kind has a codec."""
    send = network.send

    def tapped(src: int, dst: int, payload: Any) -> None:
        if payload.kind in WIRE_MESSAGES:
            sink.append((src, payload.kind, payload))
        send(src, dst, payload)
    network.send = tapped


class WireReplay(Workload):
    """Every message of two n=40 rounds through codec and signatures."""

    name = "wire_replay"
    N = 40
    PASSES = 10

    def __init__(self, seed: int, variant: str = "plain") -> None:
        self.items: list[tuple[int, str, Any]] = []
        self._capture_pbft(seed)
        self._capture_gpbft(seed)
        self.codec = _Codec()
        self.keys = {src: KeyPair.generate(src)
                     for src in sorted({src for src, _, _ in self.items})}
        self.mismatches = 0
        self.bytes = 0

    def _capture_pbft(self, seed: int) -> None:
        """Two requests through a cluster whose first primary is down:
        client retry, view change, new view, then commits and a checkpoint."""
        # one retry tells the backups; the backoff keeps a second one from
        # being queued when the checkpoint drops replay protection, which
        # would re-order the requests a seed-dependent number of times
        config = _config(seed, 10.0, self.N, view_change_timeout_s=60.0,
                         request_retry_timeout_s=20.0, retry_backoff_factor=8.0,
                         checkpoint_interval=2)
        cluster = TopologySpec.cluster(self.N, n_clients=1, config=config).build(
            faults={0: CrashFaults(crashed=True)})
        _tap_sends(cluster.network, self.items)
        client = cluster.any_client
        for k in range(2):
            cluster.sim.schedule_at(1.0 + k, client.submit, _op("wire", k))
        cluster.sim.run(until=400.0)
        if client.completed_count != 2:
            raise RuntimeError("wire_replay: PBFT capture round did not commit")

    def _capture_gpbft(self, seed: int) -> None:
        """Geo reports, a transaction, an era switch, another transaction;
        then the blocks the lead endorser's ledger holds."""
        dep = TopologySpec.single(
            self.N + 8, self.N, config=_config(seed, 10.0, self.N), seed=seed,
            start_reports=False).build()
        _tap_sends(dep.network, self.items)
        devices = dep.devices
        for node in devices:
            dep.sim.schedule_at(0.5, node.send_geo_report)
        dep.sim.schedule_at(1.0, devices[0].submit_transaction)
        dep.sim.schedule_at(40.0, dep.force_era_switch)
        dep.sim.schedule_at(80.0, devices[1].submit_transaction)
        dep.sim.run(until=200.0)
        lead = dep.nodes[dep.committee[0]]
        if lead.ledger.height != 2 or lead.era != 1:
            raise RuntimeError("wire_replay: G-PBFT capture round did not commit")
        for height in range(1, lead.ledger.height + 1):
            self.items.append(
                (lead.node_id, "chain.block", lead.ledger.block_at(height)))

    def _pass(self) -> tuple[int, int]:
        """One pass over the capture: (mismatches, bytes encoded)."""
        codec, keys = self.codec, self.keys
        mismatches = size = 0
        signed = signer = signature = None
        for src, kind, msg in self.items:
            data, same = codec.round_trip(kind, msg)
            pair = keys[src]
            if msg is not signed or src != signer:
                # the copies of one multicast follow each other: the sender
                # signs once, every recipient decodes and verifies its copy
                signed, signer, signature = msg, src, pair.sign(data)
            verified = pair.verify(data, signature)
            if not (same and verified and len(data) == msg.size_bytes):
                mismatches += 1
            size += len(data)
        return mismatches, size

    def run(self) -> None:
        for _ in range(self.PASSES):
            mismatches, size = self._pass()
            self.mismatches += mismatches
            self.bytes += size

    def outcome(self) -> Outcome:
        round_trips = len(self.items) * self.PASSES
        problems = []
        if self.mismatches:
            problems.append(f"{self.mismatches} of {round_trips} messages "
                            "changed size or fields in the round trip")
        wire = hashlib.sha256()
        for _, kind, msg in self.items:
            wire.update(self.codec.round_trip(kind, msg)[0])
        sim = {"codec.roundtrips": round_trips, "codec.bytes": self.bytes,
               "failed_frac": self.mismatches / round_trips}
        return Outcome(
            attempted=round_trips, failed=self.mismatches, violations=0,
            msgs=round_trips, commits=0, sim=sim, problems=problems,
            digest=_digest(len(self.items), self.bytes, wire.hexdigest()))


BY_NAME: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PbftWide, GpbftCity, GpbftPaper, Failover,
                              OverloadLadder, WireReplay)}
