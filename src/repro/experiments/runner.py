"""Point bodies and sweeps behind every figure and table.

Each point kind has one body that takes the protocol and builds,
submits and runs through :mod:`repro.experiments.scenario`; only what
the measurement itself needs differs.

Latency points reproduce section V-B's setup: transactions arrive at a
constant aggregate rate (n nodes each proposing every R seconds gives
one arrival every R/n seconds), the first ``warmup`` commits are
discarded, and the next ``measured`` commit latencies are the sample.

Traffic points reproduce section V-C's setup: exactly one transaction is
proposed and the byte counters are diffed around its consensus.

Agg points run a whole city-scale day on zoned committees that share
one simulator, so they keep their own build and drain loop.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.common.config import TopologySpec
from repro.common.errors import ConfigurationError, ConsensusError
from repro.common.eventlog import EV_PBFT_EXECUTED, EV_REQUEST_COMPLETED
from repro.common.quorum import tolerated_faults
from repro.common.rng import DeterministicRNG
from repro.experiments import scenario
from repro.experiments.engine import Engine, PointSpec
from repro.metrics.collector import SweepResult
from repro.net.simulator import Simulator
from repro.pbft.messages import RawOperation
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.streams import (
    AggregatedArrivals,
    DiurnalWave,
    FlashCrowdBurst,
    PoissonSuperposition,
    RateProfile,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

#: Completions each ``agg`` pool client remembers and executed ops each
#: replica's log keeps: the window that keeps a day's memory flat.
AGG_RETENTION = 2_000


def _arrival_times(total: int, mean_interval: float, seed: int) -> list[float]:
    """Poisson arrival times at aggregate rate 1/mean_interval.

    The paper's workload is n independent constant-frequency proposers
    with arbitrary phases; by Palm-Khintchine their aggregate approaches
    a Poisson stream, whose burstiness is what drives PBFT's queueing
    delay at saturation (the ~250 s tail at n = 202).
    """
    rng = DeterministicRNG(seed, "arrivals")
    times = []
    t = 1.0
    for _ in range(total):
        t += rng.exponential(mean_interval)
        times.append(t)
    return times


def _quorum_execution_latency(events, rid: str, submitted_at: float, f: int) -> float | None:
    """Latency until the (f+1)-th replica wrote *rid* to its ledger.

    The paper measures "the latency from the time when a transaction is
    sent to an endorser to the time when the transaction is written to
    the ledger after consensus" (section V-B); with f faulty replicas
    tolerated, the write is durable once f+1 replicas executed it.
    """
    times = sorted(
        e.at for e in events.of_kind(EV_PBFT_EXECUTED) if e.data["request_id"] == rid
    )
    if len(times) <= f:
        return None
    return times[f] - submitted_at


def _latency_point(
    protocol: str,
    n: int,
    seed: int,
    proposal_period_s: float,
    measured: int,
    warmup: int,
    max_endorsers: int = 40,
    era_switch_at_tx: int | None = None,
) -> list[float]:
    """Measured commit latencies of one repetition at *n* nodes.

    Members take turns submitting at the aggregate rate
    n / proposal_period_s -- PBFT clients, or G-PBFT devices through
    their nearest endorser of a committee capped at *max_endorsers*;
    returns the latencies of the ``measured`` commits after ``warmup``.
    When *era_switch_at_tx* is set (G-PBFT), an era switch is forced
    right before that (0-based) submission so its latency shows the
    switch-period bump (the Fig. 3b outlier).
    """
    total = warmup + measured
    host = scenario.topology(protocol, n,
                             scenario.experiment_config(seed, max_endorsers),
                             clients=min(n, total)).build()
    tag = f"tx-{seed}" if protocol == "pbft" else "lat"
    interval = proposal_period_s / n
    submissions: list[tuple[str, float]] = []  # (request id, submit time)
    expected = total
    for k, at in enumerate(_arrival_times(total, interval, seed)):
        if k == era_switch_at_tx:
            host.sim.schedule_at(max(0.0, at - 0.05), host.force_era_switch)
            expected += 1  # the switch op itself also completes
        submissions.append((scenario.submit(host, protocol, tag, k, k, at), at))
    scenario.run(host.sim, 1.0 + total * interval + 100_000.0,
                 done=lambda: host.events.count(EV_REQUEST_COMPLETED) >= expected)
    f = tolerated_faults(len(host.committee))
    sample = []
    for rid, at in submissions[warmup:]:
        latency = _quorum_execution_latency(host.events, rid, at, f)
        if latency is not None:
            sample.append(latency)
    if not sample:
        raise ConsensusError(f"no transactions committed at n={n} (horizon too short?)")
    return sample


def _obs_result(obs) -> dict:
    """Deterministic summary of one point's observability output."""
    summary: dict = {"spans": len(obs.tracer.spans)}
    if obs.timeseries is not None:
        summary["frames_written"] = obs.timeseries.frames_written
    if obs.flight is not None:
        summary["dumps"] = len(obs.flight.dumps)
    return summary


def _traffic_point(protocol: str, n: int, seed: int = 0,
                   max_endorsers: int = 40) -> float:
    """KB moved by one transaction with *n* nodes.

    The transaction comes from the last member -- a device when a
    G-PBFT deployment has devices -- and the count covers the whole
    protocol surface it exercises: request forwarding, consensus among
    the committee, and replies.
    """
    host = scenario.topology(
        protocol, n, scenario.experiment_config(seed, max_endorsers)).build()
    before = host.network.stats.snapshot()
    scenario.submit(host, protocol, "traffic", seed, -1, None)  # one request, now

    def done() -> bool:
        return host.events.count(EV_REQUEST_COMPLETED) >= 1

    scenario.run(host.sim, 100_000.0, done=done)
    if not done():
        raise ConsensusError(f"traffic tx failed to commit at n={n}")
    return host.network.stats.snapshot().delta(before).kilobytes_sent


def _agg_submit(client, zone: str, slot: int):
    """Submission callback for one virtual client identity.

    Op ids carry the zone name, pool slot and a per-slot counter so
    every request in a million-request day stays unique without any
    shared registry.
    """
    count = [0]

    def submit() -> None:
        """Submit the next uniquely-numbered transaction for this slot."""
        k = count[0]
        count[0] = k + 1
        client.submit(RawOperation(
            op_id=f"agg-{zone}-{slot}-{k}", size_bytes=scenario.TX_BYTES))

    return submit


def _zone_profile(kind: str, rate: float, index: int, n_zones: int,
                  duration_s: float) -> RateProfile:
    """Rate profile for one zone of the aggregated city workload.

    ``poisson`` is flat; ``diurnal`` staggers each district's wave phase
    across the day (city load is never in lockstep) while keeping the
    expected whole-day count at ``rate * duration_s``; ``flash`` layers
    a 2%-of-day 3x burst at midday on top of the base rate.
    """
    if kind == "poisson":
        return PoissonSuperposition(n_clients=1, mean_period_s=1.0 / rate)
    if kind == "diurnal":
        return DiurnalWave(base_rps=rate, amplitude_rps=0.5 * rate,
                           period_s=duration_s,
                           phase_s=duration_s * index / n_zones)
    if kind == "flash":
        return FlashCrowdBurst(base_rps=rate, burst_rps=3.0 * rate,
                               at_s=0.5 * duration_s,
                               duration_s=duration_s / 50.0)
    raise ConfigurationError(f"unknown aggregate profile {kind!r}")


def _gpbft_agg_point(
    n: int,
    seed: int,
    zones: int = 8,
    replicas_per_zone: int = 4,
    pool_size: int = 4,
    duration_s: float = 86_400.0,
    profile: str = "diurnal",
    workload: str = "aggregate",
    event_capacity: int = 20_000,
    drain_slack_s: float = 7_200.0,
    max_events: int | None = None,
    processing_rate: float = 50.0,
    obs: "Observability | None" = None,
) -> dict:
    """One aggregated city-scale day: *n* requests across zoned committees.

    This is a day of flat PBFT committees, not a G-PBFT day.
    ``TopologySpec.zoned`` supplies only the zone names and per-zone
    seeds; each zone then runs one independent *replicas_per_zone*
    replica ``TopologySpec.cluster``, all sharing a single simulator and
    ordering ``RawOperation`` payloads.  There are no geo-tagged
    transactions, no chain, no election and no era switch.
    Light clients are not simulated as objects -- each zone's fleet is
    one :class:`~repro.workloads.streams.AggregatedArrivals` stream
    (``workload="aggregate"``, the default here) driving a small pool of
    virtual client identities, which is what makes ``n`` in the millions
    tractable.  ``workload="objects"`` instead drives one
    :class:`PoissonArrivals` per pool client at the same aggregate rate,
    as a small-scale sanity baseline.

    Memory stays flat over the day: per-zone event logs are capacity
    rings (*event_capacity*), executed-op logs and client completion
    maps are bounded, and retries back off exponentially.  The point
    must also run in the committees' stable regime -- *processing_rate*
    (messages/s per gateway node) is sized so the diurnal peak stays
    well under saturation, because an overloaded committee amplifies
    its own backlog through retries and view changes.

    Returns:
        A dict with ``offered`` / ``completed`` request counts, total
        simulator ``events``, the final simulated clock ``sim_now_s``,
        and the zone/workload shape -- all deterministic for a given
        spec.  With *obs* given, an ``obs`` sub-dict summarizes frames
        written, spans kept, and dumps fired.

    *obs* (the ``agg`` CLI's, never an engine param: a cache hit would
    skip the files the run exists to write) switches on what its
    config asks for: per-zone window frames, head-sampled tracing and
    per-zone flight-recorder rings.  Day-long runs should sample (e.g.
    0.001) -- unsampled span buffering is exactly the O(requests)
    memory this pipeline exists to avoid.
    """
    spec = TopologySpec.zoned(
        zones, nodes_per_zone=pool_size,
        endorsers_per_zone=replicas_per_zone, seed=seed,
        start_reports=False, workload=workload,
        event_capacity=event_capacity)
    sim = Simulator()
    if obs is not None:
        obs.bind(sim)
    per_zone_rate = n / zones / duration_s
    all_clients = []
    streams: list[AggregatedArrivals] = []
    procs: list[PoissonArrivals] = []
    for index, zone in enumerate(spec.zones):
        zseed = spec.zone_seed(index)
        config = scenario.experiment_config(zseed, max(replicas_per_zone, 4))
        # day-long runs exercise the capped exponential retry backoff;
        # the default (factor 1.0) is reserved for the legacy schedule
        config = config.replace(pbft=replace(
            config.pbft, retry_backoff_factor=2.0, retry_backoff_max_s=300.0))
        # the experiment default of 10 msg/s models a constrained IoT
        # node and saturates a 4-replica committee near 1.5 req/s --
        # right where the diurnal peak lands.  Queued requests then
        # outlive their retry timeout and the retry/view-change storm
        # snowballs the backlog without bound, so city-scale gateways
        # get a faster message pump to keep peak utilisation low.
        config = config.replace(network=replace(
            config.network, processing_rate=processing_rate))
        cluster = TopologySpec.cluster(
            replicas_per_zone, n_clients=pool_size, config=config,
            event_capacity=spec.event_capacity).build(
                sim=sim,
                obs=obs.for_zone(zone.name) if obs is not None else None)
        clients = [cluster.clients[cid] for cid in sorted(cluster.clients)]
        for client in clients:
            # every op id is fresh, so the replay-dedup window only has
            # to span in-flight requests; the default bound would retain
            # a whole day's completions per pool slot
            client.completed_bound = AGG_RETENTION
        for node in sorted(cluster.executors):
            # likewise: a day is ~n/zones executed ops per replica,
            # under the default trim threshold, so the (seq, op_id)
            # log would otherwise grow linearly until midnight
            cluster.executors[node].bound = AGG_RETENTION
        all_clients.extend(clients)
        submits = [_agg_submit(client, zone.name, slot)
                   for slot, client in enumerate(clients)]
        rng = DeterministicRNG(zseed, "agg-stream")
        rate_profile = _zone_profile(profile, per_zone_rate, index, zones,
                                     duration_s)
        if zone.workload == "aggregate":
            stream = AggregatedArrivals(sim, submits, rng, rate_profile)
            stream.start(until=duration_s)
            streams.append(stream)
        else:
            for slot, submit in enumerate(submits):
                proc = PoissonArrivals(sim, submit, rng.fork(f"client-{slot}"),
                                       mean_period_s=pool_size / per_zone_rate)
                proc.start()
                sim.schedule_at(duration_s, proc.stop)
                procs.append(proc)
    cap = max_events if max_events is not None else max(
        scenario.MAX_EVENTS_PER_RUN, 200 * n)
    scenario.run(sim, duration_s, max_events=cap)
    for stream in streams:
        stream.stop()
    offered = (sum(s.submitted for s in streams)
               + sum(p.submitted for p in procs))
    # drain in chunks instead of run_until_condition: checking a 32-way
    # completion sum after every one of ~10^8 events would dominate
    horizon = duration_s + drain_slack_s
    while sim.now < horizon:
        if sum(c.completed_count for c in all_clients) >= offered:
            break
        scenario.run(sim, min(sim.now + 60.0, horizon), max_events=cap)
    result = {
        "offered": offered,
        "completed": sum(c.completed_count for c in all_clients),
        "events": sim.events_processed,
        "sim_now_s": sim.now,
        "zones": zones,
        "pool_size": pool_size,
        "workload": workload,
        "profile": profile,
    }
    if obs is not None:
        obs.finish()
        result["obs"] = _obs_result(obs)
    return result


# -- sweeps -----------------------------------------------------------------


def latency_point_specs(
    protocol: str,
    node_counts,
    reps: int,
    proposal_period_s: float,
    measured: int,
    warmup: int,
    max_endorsers: int = 40,
) -> list[PointSpec]:
    """The latency sweep's point specs (one per ``(n, rep)`` pair)."""
    return [PointSpec.make(protocol, "latency", n, 1000 * n + rep,
                           proposal_period_s=proposal_period_s,
                           measured=measured, warmup=warmup,
                           **_cap_param(protocol, max_endorsers))
            for n in node_counts for rep in range(reps)]


def _cap_param(protocol: str, max_endorsers: int) -> dict:
    """The committee-cap param of a spec; PBFT specs carry none."""
    return {} if protocol == "pbft" else {"max_endorsers": max_endorsers}


def latency_sweep(
    protocol: str,
    node_counts,
    reps: int,
    proposal_period_s: float,
    measured: int,
    warmup: int,
    max_endorsers: int = 40,
    engine: Engine | None = None,
) -> SweepResult:
    """Full latency sweep for ``"pbft"`` or ``"gpbft"`` (Figures 3-4).

    All ``(n, rep)`` points fan out through *engine* (in-process,
    cache-less by default), then regroup by node count; parallel
    completion order cannot reorder the result because values come back
    indexed by spec.
    """
    if protocol not in ("pbft", "gpbft"):
        raise ConsensusError(f"unknown protocol {protocol!r}")
    eng = engine if engine is not None else Engine(jobs=1, use_cache=False)
    node_counts = list(node_counts)
    specs = latency_point_specs(
        protocol, node_counts, reps, proposal_period_s, measured, warmup,
        max_endorsers)
    values = eng.map(specs)
    result = SweepResult(
        name="PBFT" if protocol == "pbft" else "G-PBFT",
        x_label="number of nodes",
        y_label="consensus latency (s)",
    )
    for i, n in enumerate(node_counts):
        samples: list[float] = []
        for value in values[i * reps:(i + 1) * reps]:
            samples.extend(value)
        result.merge_point(n, samples)
    return result


def traffic_sweep(
    protocol: str,
    node_counts,
    max_endorsers: int = 40,
    engine: Engine | None = None,
) -> SweepResult:
    """Single-transaction traffic sweep (Figures 5-6)."""
    if protocol not in ("pbft", "gpbft"):
        raise ConsensusError(f"unknown protocol {protocol!r}")
    eng = engine if engine is not None else Engine(jobs=1, use_cache=False)
    node_counts = list(node_counts)
    values = eng.map([PointSpec.make(protocol, "traffic", n,
                                     **_cap_param(protocol, max_endorsers))
                      for n in node_counts])
    result = SweepResult(
        name="PBFT" if protocol == "pbft" else "G-PBFT",
        x_label="number of nodes",
        y_label="communication cost (KB)",
    )
    for n, kb in zip(node_counts, values):
        result.merge_point(n, [kb])
    return result
