"""Every scenario, written once: build a host, schedule requests, run.

The paper's evaluation (section V) runs one experiment twice: PBFT over
all n nodes and G-PBFT over a committee capped at ``max_endorsers``.
What every such run shares lives here -- the payload size, the
parked-era configuration, the protocol -> topology map, the rule for
one request, and the run that records the event count the engine
reports -- so the point kinds, the verify explorer (and through it the
observability capture), the measured Table IV and the scenario packs
keep only what really differs: how many requests, from whom, when, and
what they read back.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.common.config import (
    CommitteeConfig,
    EraConfig,
    GPBFTConfig,
    TopologySpec,
)
from repro.core.messages import TxOperation
from repro.pbft.messages import RawOperation

#: Serialized size of every submitted payload -- a NormalTransaction's
#: 200 B, so PBFT and G-PBFT move the same operation.
TX_BYTES = 200

#: Hard ceiling on simulator events per run; a run that exceeds it is
#: diverging (saturated queues) and stops there, so pending latencies
#: are censored at that point rather than waited for.
MAX_EVENTS_PER_RUN = 40_000_000

#: Simulator events processed by the most recent :func:`run` in this
#: process; read by the engine worker for per-point telemetry.
_last_event_count = 0


def experiment_config(seed: int, cap: int) -> GPBFTConfig:
    """Seeded network, committee capped at *cap*, era audit parked.

    Points measure steady-state consensus; a point that wants era
    switches forces them, so the periodic audit is parked far beyond
    any horizon.  A PBFT cluster reads neither the cap nor the era.
    """
    base = GPBFTConfig()
    return base.replace(
        network=replace(base.network, seed=seed),
        committee=CommitteeConfig(min_endorsers=4, max_endorsers=cap),
        era=EraConfig(period_s=1e12, switch_duration_s=base.era.switch_duration_s),
    )


def topology(protocol: str, n: int, config: GPBFTConfig, *,
             clients: int = 1) -> TopologySpec:
    """The topology one run simulates; ``.build()`` it into the host.

    PBFT is a flat cluster of *n* replicas and *clients* client
    endpoints; G-PBFT is the paper's single-committee deployment of *n*
    nodes, ``min(n, config.committee.max_endorsers)`` of them endorsers,
    placed by the config's network seed, with periodic geo reports off.
    """
    if protocol == "pbft":
        return TopologySpec.cluster(n_replicas=n, n_clients=clients,
                                    config=config)
    return TopologySpec.single(n, config=config, seed=config.network.seed,
                               start_reports=False)


def submit(host, protocol: str, tag: str, k: int, m: int,
           at: float | None) -> str:
    """Request *k* from member *m*, sent at time *at* (now when ``None``).

    Members are a cluster's clients or a deployment's nodes in id order;
    *m* wraps around them.  A PBFT client sends op ``{tag}-{k}``; a
    G-PBFT node builds its transaction with ``key={tag}{k}`` now, so
    nonces follow scheduling order, and submits it at *at*.

    Returns:
        The request id that replies and execution events carry.
    """
    if protocol == "pbft":
        ids = sorted(host.clients)
        client = host.clients[ids[m % len(ids)]]
        op = RawOperation(op_id=f"{tag}-{k}", size_bytes=TX_BYTES)
    else:
        ids = sorted(host.nodes)
        node = host.nodes[ids[m % len(ids)]]
        client = node.client
        op = TxOperation(node.next_transaction(key=f"{tag}{k}", value=str(k)))
    if at is None:
        client.submit(op)
    else:
        host.sim.schedule_at(at, client.submit, op)
    return f"{client.node_id}:{op.op_id}"


def run(sim, until: float, done: Callable[[], bool] | None = None,
        max_events: int = MAX_EVENTS_PER_RUN) -> None:
    """Run *sim* to *until*, or until ``done()`` holds; record its events.

    The recorded count is what the engine reports for the point, and it
    is recorded even when a monitor's violation ends the run.
    """
    global _last_event_count
    try:
        if done is None:
            sim.run(until=until, max_events=max_events)
        else:
            sim.run_until_condition(done, horizon=until, max_events=max_events)
    finally:
        _last_event_count = sim.events_processed


def last_event_count() -> int:
    """Simulator events processed by the most recent :func:`run` here."""
    return _last_event_count
