"""Exactly-once execution across checkpoint garbage collection.

A flat 4-replica cluster at 50 msg/s, with a checkpoint every two
executions and a watermark window of four, takes 24 operations 20 ms
apart from two clients that retry after 1 s, doubling up to 8 s.  The
backlog delays replies past the first retries, and a retry that reaches
the primary after a stable checkpoint dropped the request's records is
assigned a fresh sequence: every replica executes 26 operations, two of
them twice.  The same shape with checkpoint GC out of reach executes
each operation once.  The check sits below G-PBFT, whose ledger would
mask a re-execution (``Ledger.contains_tx``).
"""

from collections import Counter

import pytest

from repro.common.config import GPBFTConfig, NetworkConfig, PBFTConfig, TopologySpec
from repro.common.eventlog import EV_PBFT_EXECUTED
from repro.pbft.messages import RawOperation
from repro.verify import InvariantViolation, MonitorHarness
from repro.verify.invariants import ExactlyOnceMonitor

OPS = 24


def small_cluster(seed: int, checkpoint_interval: int, watermark_window: int):
    """The repro's cluster, its operations armed from t = 1 s."""
    config = GPBFTConfig(
        network=NetworkConfig(processing_rate=50, seed=seed),
        pbft=PBFTConfig(checkpoint_interval=checkpoint_interval,
                        watermark_window=watermark_window,
                        request_retry_timeout_s=1.0, retry_backoff_factor=2.0,
                        retry_backoff_max_s=8.0))
    cluster = TopologySpec.cluster(4, n_clients=2, config=config).build()
    clients = [cluster.clients[node] for node in sorted(cluster.clients)]
    for k in range(OPS):
        cluster.sim.schedule_at(1.0 + 0.02 * k, clients[k % 2].submit,
                                RawOperation(op_id=f"op-{k}"))
    return cluster


def _executions(seed: int, checkpoint_interval: int, watermark_window: int) -> Counter:
    """Executions per replica over 200 s, judged by the monitor."""
    cluster = small_cluster(seed, checkpoint_interval, watermark_window)
    MonitorHarness(cluster, monitors=[ExactlyOnceMonitor()])
    cluster.sim.run(until=200.0)
    return Counter(event.node for event in cluster.events.of_kind(EV_PBFT_EXECUTED))


@pytest.mark.xfail(strict=True, raises=InvariantViolation,
                   reason="exactly-once across checkpoint GC: ROADMAP item 1")
@pytest.mark.parametrize("seed", range(4))
def test_no_request_executes_twice_across_checkpoint_gc(seed):
    assert _executions(seed, 2, 4) == dict.fromkeys(range(4), OPS)


@pytest.mark.parametrize("seed", range(4))
def test_without_checkpoint_gc_every_request_executes_once(seed):
    assert _executions(seed, 1000, 4000) == dict.fromkeys(range(4), OPS)
