"""Determinism tests: identical seeds must give byte-identical runs.

Reproducibility is the whole point of a simulation-based evaluation: the
figures in EXPERIMENTS.md are only meaningful if rerunning the harness
regenerates them exactly.
"""

from repro.common.config import TopologySpec
from repro.pbft import RawOperation
from repro.common.eventlog import EV_REQUEST_COMPLETED


def _pbft_trace(seed: int):
    from repro.common.config import GPBFTConfig, NetworkConfig

    config = GPBFTConfig(network=NetworkConfig(seed=seed))
    cluster = TopologySpec.cluster(7, 2, config=config).build()
    for i, cid in enumerate(sorted(cluster.clients) * 3):
        cluster.clients[cid].submit(RawOperation(f"op-{i}"))
    cluster.run(until=300)
    events = [(e.at, e.kind, e.node, tuple(sorted(e.data.items())))
              for e in cluster.events]
    return events, cluster.network.stats.bytes_sent


def _gpbft_trace(seed: int):
    dep = TopologySpec.single(10, 4, seed=seed).build()
    for device in (6, 7, 8):
        dep.submit_from(device)
    dep.run(until=300)
    events = [(e.at, e.kind, e.node, tuple(sorted(e.data.items())))
              for e in dep.events]
    heads = tuple(n.ledger.head.digest() for n in dep.endorsers)
    return events, dep.network.stats.bytes_sent, heads


class TestDeterminism:
    def test_pbft_run_is_reproducible(self):
        assert _pbft_trace(11) == _pbft_trace(11)

    def test_pbft_seed_changes_timing(self):
        events_a, _ = _pbft_trace(11)
        events_b, _ = _pbft_trace(12)
        # same protocol outcome, different network jitter draws
        assert [e[1] for e in events_a if e[1] == EV_REQUEST_COMPLETED] == \
               [e[1] for e in events_b if e[1] == EV_REQUEST_COMPLETED]
        assert events_a != events_b

    def test_gpbft_run_is_reproducible(self):
        trace_a = _gpbft_trace(21)
        trace_b = _gpbft_trace(21)
        assert trace_a == trace_b

    def test_gpbft_chain_digests_identical_across_replicas(self):
        _, _, heads = _gpbft_trace(22)
        assert len(set(heads)) == 1

    def test_traffic_accounting_reproducible(self):
        _, bytes_a = _pbft_trace(31)
        _, bytes_b = _pbft_trace(31)
        assert bytes_a == bytes_b
