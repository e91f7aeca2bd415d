"""The event loop pauses CPython's cyclic collector while it drains.

The pause is safe only while a drain churns nothing cyclic: envelopes,
votes, timers and replies must be freed by reference counting alone, or
they pile up until the next collection after the drain.  So each test
of the first group builds a topology, collects what building left, runs
it with the collector off and then asks the collector what it finds
while the topology is still referenced: a cycle made per message, per
request or per timer shows as a nonzero count.  The second group checks
that the pause is scoped: whatever the collector's state was before a
drain, it is that state again afterwards, whichever way the drain ends.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import replace

import pytest

from repro.common.config import GPBFTConfig, TopologySpec, VerifyConfig
from repro.common.errors import NetworkError
from repro.common.eventlog import EV_PBFT_STATE_TRANSFER
from repro.common.rng import DeterministicRNG
from repro.experiments import scenario
from repro.net.simulator import Simulator
from repro.obs import ObsConfig, Observability
from repro.pbft import CrashFaults, RawOperation
from repro.workloads.streams import AggregatedArrivals, DiurnalWave


def _cluster_with_primary_crash():
    # the crashed primary misses stable checkpoints, so the requests sent
    # after it recovers make it catch up by state transfer
    fault = CrashFaults()
    base = GPBFTConfig()
    config = base.replace(pbft=replace(base.pbft, view_change_timeout_s=5.0,
                                       request_retry_timeout_s=20.0,
                                       checkpoint_interval=4))
    cluster = TopologySpec.cluster(4, n_clients=2, config=config).build(
        faults={0: fault})
    starts = [1.0 + 3.0 * k for k in range(12)] + [210.0 + 3.0 * k for k in range(12)]
    for k, start in enumerate(starts):
        client = cluster.clients[4 + k % 2]
        cluster.sim.schedule_at(start, client.submit, RawOperation(f"gc-{k}"))
    cluster.sim.schedule_at(10.0, fault.crash)
    cluster.sim.schedule_at(200.0, fault.recover)

    def run():
        cluster.run(until=900.0)
        assert sum(c.completed_count for c in cluster.clients.values()) == 24
        assert max(r.view for r in cluster.replicas.values()) >= 1
        assert cluster.events.of_kind(EV_PBFT_STATE_TRANSFER)
        assert cluster.replicas[0].last_executed == cluster.replicas[1].last_executed
    return cluster, run


def _deployment_with_era_switch():
    dep = TopologySpec.single(9, 6, seed=3, start_reports=False).build()
    for k in range(6):
        dep.sim.schedule_at(1.0 + 4.0 * k, dep.submit_from, 6 + k % 3)
    dep.sim.schedule_at(9.0, dep.force_era_switch)

    def run():
        dep.run(until=300.0)
        assert dep.nodes[0].era == 1
        assert len(dep.completed_latencies()) == 7  # six devices' and the switch
    return dep, run


def _zoned_aggregate_day():
    # the engine's ``agg`` point in miniature: one committee per zone on
    # one simulator, each zone's clients driven by one aggregated stream
    spec = TopologySpec.zoned(2, 4, endorsers_per_zone=4, seed=5,
                              start_reports=False, workload="aggregate")
    sim = Simulator()
    clusters, streams = [], []
    for index, zone in enumerate(spec.zones):
        zseed = spec.zone_seed(index)
        cluster = TopologySpec.cluster(
            4, n_clients=4, config=scenario.experiment_config(zseed, 4)).build(sim=sim)
        submits = [
            lambda client=client, count=itertools.count(): client.submit(
                RawOperation(f"agg-{client.node_id}-{next(count)}"))
            for _, client in sorted(cluster.clients.items())]
        stream = AggregatedArrivals(sim, submits, DeterministicRNG(zseed, "gc-agg"),
                                    DiurnalWave(base_rps=0.2, amplitude_rps=0.1,
                                                period_s=100.0))
        stream.start(limit=20)
        clusters.append(cluster)
        streams.append(stream)

    def run():
        sim.run(until=600.0)
        assert sum(s.submitted for s in streams) == 40
        assert sum(c.completed_count for cl in clusters
                   for c in cl.clients.values()) == 40
    return (sim, clusters, streams), run


def _observed_and_monitored_cluster():
    base = GPBFTConfig()
    config = base.replace(verify=VerifyConfig(monitors=True),
                          pbft=replace(base.pbft, checkpoint_interval=4))
    obs = Observability(ObsConfig(timeseries=True, window_s=5.0,
                                  sample_rate=1.0, flight_recorder=True))
    cluster = TopologySpec.cluster(4, n_clients=1, config=config).build(obs=obs)
    for k in range(10):
        cluster.sim.schedule_at(1.0 + 2.0 * k, cluster.any_client.submit,
                                RawOperation(f"obs-{k}"))

    def run():
        cluster.run(until=120.0)
        cluster.monitors.check_final()
        obs.finish()
        assert cluster.any_client.completed_count == 10
    return (cluster, obs), run


@pytest.mark.parametrize("build", [
    _cluster_with_primary_crash,
    _deployment_with_era_switch,
    _zoned_aggregate_day,
    _observed_and_monitored_cluster,
])
def test_a_run_leaves_no_cyclic_garbage(build):
    topology, run = build()  # held to the end: only garbage can be found
    gc.collect()
    gc.disable()
    try:
        run()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"{found} objects in cycles around {type(topology).__name__}"


@pytest.fixture(params=[True, False], ids=["enabled", "caller-disabled"])
def collector(request):
    """Run the test with the collector on, then with it turned off."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _loaded_sim():
    sim = Simulator()
    seen = []
    for k in range(5):
        sim.schedule(float(k), lambda: seen.append(gc.isenabled()))
    return sim, seen


def test_run_restores_the_collector(collector):
    sim, seen = _loaded_sim()
    sim.run(until=2.0)           # a time bound
    assert gc.isenabled() is collector
    sim.run(max_events=1)        # an event cap
    assert gc.isenabled() is collector
    sim.run_for(10.0)
    assert gc.isenabled() is collector
    assert seen == [False] * 5   # paused while every callback ran


def test_step_and_run_until_condition_restore_the_collector(collector):
    sim, seen = _loaded_sim()
    assert sim.step()
    assert gc.isenabled() is collector
    assert sim.run_until_condition(lambda: len(seen) == 3)
    assert gc.isenabled() is collector
    assert seen == [False] * 3


def test_a_raising_callback_restores_the_collector(collector):
    sim = Simulator()

    def boom():
        raise NetworkError("boom")
    sim.schedule(1.0, boom)
    sim.schedule(2.0, boom)
    with pytest.raises(NetworkError):
        sim.run()
    assert gc.isenabled() is collector
    with pytest.raises(NetworkError):
        sim.step()
    assert gc.isenabled() is collector


def test_a_nested_drain_does_not_turn_the_collector_back_on(collector):
    sim = Simulator()
    seen = []

    def outer():
        sim.step()
        seen.append(gc.isenabled())
    sim.schedule(1.0, outer)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert seen == [False]
    assert gc.isenabled() is collector
