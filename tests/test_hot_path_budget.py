"""A budget on what one delivered message costs the interpreter.

The paper's cost model is the delivered message (section IV-B: a node
"can receive and process *s* messages per second"), and in this
simulator a delivered message is a chain of Python calls: the event
loop, the network's completion, the registered ``receive`` itself, the
log's vote count.  These tests count the calls (``sys.setprofile``: a
count, not a clock, so it repeats exactly on any machine) while a small
cluster and a small deployment each commit 20 requests, and hold the
count per delivered message under a bound set 10 % above what the path
of ``docs/performance.md`` ("a small committee pays per copy") measures:
13.15 calls on the cluster, 17.72 on the deployment, where the path
before it took 14.59 and 18.66 (a ``TrafficStats`` call, a latency-model
call and a list comprehension per send operation, and the handle's own
frame around a multicast).  A lookup, a wrapper or a second pass added per message
shows here before it shows in a benchmark.
"""

from __future__ import annotations

import sys

from repro.common.config import TopologySpec
from repro.pbft.messages import RawOperation

REQUESTS = 20


def _python_calls(fn) -> int:
    """Python-level function calls made while *fn()* runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_four_replica_cluster_stays_within_its_call_budget():
    cluster = TopologySpec.cluster(4, n_clients=1).build()
    client = cluster.any_client
    for k in range(REQUESTS):
        cluster.sim.schedule_at(1.0 + 2.0 * k, client.submit,
                                RawOperation(op_id=f"budget-{k}"))
    calls = _python_calls(lambda: cluster.sim.run(until=100.0))
    assert client.completed_count == REQUESTS
    delivered = cluster.network.stats.messages_delivered
    assert delivered == 29 * REQUESTS  # 1 request, 3+9+12 phase messages, 4 replies
    assert calls / delivered < 14.5


def test_six_endorser_deployment_stays_within_its_call_budget():
    dep = TopologySpec.single(9, 6, start_reports=False).build()
    for k in range(REQUESTS):
        dep.sim.schedule_at(1.0 + 5.0 * k, dep.submit_from, 6 + k % 3)
    calls = _python_calls(lambda: dep.sim.run(until=200.0))
    assert len(dep.completed_latencies()) == REQUESTS
    delivered = dep.network.stats.messages_delivered
    # the request, its forward to the primary, 5 + 25 + 30 phase messages, 6 replies
    assert delivered == 68 * REQUESTS
    assert calls / delivered < 19.5
