"""Golden-fingerprint regression tests: the correctness gate for perf work.

Every hot-path optimization must leave the simulation bit-identical:
same schedule fingerprint (event fire times and callback qualnames),
same event counts, same executed operations, and same committed-block
digests.  These goldens pin one fixed scenario per protocol at the
paper's committee cap (n = 40); any optimization that changes event
ordering, RNG draw sequence, or message contents shows up here as a
hard failure rather than a silent semantic drift.

If a test in this file fails after an intentional protocol change (new
message kind, different timer layout, ...), re-derive the goldens with
``repro.verify.explorer.run_schedule`` and update them in the same
commit that changes the behavior -- never to paper over a perf patch.

Each scenario pins two streams.  ``fingerprint`` / ``events`` cover every
simulator event, including the network's own wake of an idle node, so
they move whenever the network changes how many events a message costs.
``handler_fingerprint`` / ``handler_events`` leave that callback out:
what remains is every completion, timer, submission and fault, and it
must survive any change to the delivery path.  PR 14 replaced the
per-message arrival event with lazy admission; the handler stream was
pinned to what the parent (b3b758a) produced with its arrival callback
left out, and the change reproduces it with its wake left out -- every
handler, timer and fault fires at the same time in the same order.
"""

from repro.verify import explorer
from repro.verify.explorer import Schedule, ScheduleFingerprint, run_schedule

#: The network's own bookkeeping callback (an idle node's wake-up).
NETWORK_OWN = frozenset({"SimulatedNetwork._wake"})

#: Fixed G-PBFT scenario: 40 nodes, seed 7, five client submissions.
GOLDEN_GPBFT = {
    "schedule": dict(protocol="gpbft", n=40, seed=7, submissions=5,
                     horizon_s=120.0),
    "fingerprint": "8be05f62217e7d59",
    "events": 15888,
    "handler_fingerprint": "bfa140ba2af35b87",
    "handler_events": 15809,
    "executed": 200,
    # Identical committed chain on every sampled endorser.
    "chain": [
        "a640c445959939b52c82547070ac4a06daf4de7bafd85f1cd3ea84bd69176dbb",
        "63879e7049ae805d4ae0507bdf5fbae60d29eb2f6256db85349f621fc35e500d",
        "185d512a2404657d398ad2609cf330a6e149c702756800935a976cdc1dda14b8",
        "bc1c2aa4ee5523e7fbc9ce62d34b1f5e26d2a7a63f546f96d4f580e2bf4bd308",
        "1ad65d9a88357a4f463ba455a2c4ceb717bbf7b869d6fdd8ed4a212c158d4592",
        "7f2c617c83b6714f7996254002e6e8c524660281fdf743aea3affe9553138229",
    ],
}

#: Fixed PBFT scenario: 40 replicas, seed 3, four client submissions.
GOLDEN_PBFT = {
    "schedule": dict(protocol="pbft", n=40, seed=3, submissions=4,
                     horizon_s=90.0),
    "fingerprint": "80295c7311ba7720",
    "events": 12730,
    "handler_fingerprint": "aeb0db8d668ccd3d",
    "handler_events": 12648,
    "executed": 160,
    # Every non-faulty replica converges to this application state.
    "state_digest":
        "63e8c73884d6824822bbb015862f7124a53d5bcb6cabb89379d4a67f9d5e82dd",
}


class _BothStreams(ScheduleFingerprint):
    """The full fingerprint, feeding a second one without NETWORK_OWN."""

    def __init__(self):
        super().__init__()
        self.handlers = ScheduleFingerprint(skip=NETWORK_OWN)

    def hook(self, event):
        super().hook(event)
        self.handlers.hook(event)


def _run_pinned(golden, monkeypatch):
    """Run the scenario once and check every pinned stream value."""
    both = _BothStreams()
    monkeypatch.setattr(explorer, "ScheduleFingerprint", lambda: both)
    out = run_schedule(Schedule(**golden["schedule"]))
    assert both.handlers.hexdigest() == golden["handler_fingerprint"]
    assert both.handlers.events == golden["handler_events"]
    assert out.result.fingerprint == golden["fingerprint"]
    assert out.result.events == both.events == golden["events"]
    assert out.result.executed == golden["executed"]
    return out


class TestGoldenGpbft:
    def test_schedule_matches_golden(self, monkeypatch):
        out = _run_pinned(GOLDEN_GPBFT, monkeypatch)
        for node_id in (0, 1, 2):
            node = out.host.nodes[node_id]
            chain = [
                node.ledger.block_at(h).digest().hex()
                for h in range(node.ledger.height + 1)
            ]
            assert chain == GOLDEN_GPBFT["chain"], f"node {node_id} diverged"


class TestGoldenPbft:
    def test_schedule_matches_golden(self, monkeypatch):
        out = _run_pinned(GOLDEN_PBFT, monkeypatch)
        digests = {
            replica._state_digest_fn().hex()
            for replica in out.host.replicas.values()
        }
        assert digests == {GOLDEN_PBFT["state_digest"]}


def _cluster_run(fingerprint, hooked, monkeypatch):
    """A 4-replica cluster committing 12 requests, its schedule folded
    into *fingerprint*: by the step hook, or -- with no hook -- by a
    wrapper around every scheduled callback."""
    from types import SimpleNamespace

    from repro.common.config import TopologySpec
    from repro.net import simulator
    from repro.pbft.messages import RawOperation

    if not hooked:
        class Seen(simulator.ScheduledEvent):
            __slots__ = ()

            def __init__(self, time, seq, callback, args, sim=None):
                def fire(*args):
                    # the drain sets ``now`` to the event's time
                    fingerprint.hook(SimpleNamespace(time=sim.now, callback=callback))
                    callback(*args)
                super().__init__(time, seq, fire, args, sim)

        monkeypatch.setattr(simulator, "ScheduledEvent", Seen)
    cluster = TopologySpec.cluster(4, n_clients=1).build()
    if hooked:
        cluster.sim.set_step_hook(fingerprint.hook)
    client = cluster.any_client
    for k in range(12):
        cluster.sim.schedule_at(0.5 + 0.3 * k, client.submit,
                                RawOperation(op_id=f"plain-{k}"))
    cluster.sim.run(until=60.0)
    monkeypatch.undo()
    return (fingerprint.hexdigest(), fingerprint.events, cluster.sim.events_processed,
            client.completed_count, cluster.network.stats.snapshot())


def test_one_loop_fires_the_same_schedule_with_and_without_a_step_hook(monkeypatch):
    hooked = _cluster_run(ScheduleFingerprint(), True, monkeypatch)
    plain = _cluster_run(ScheduleFingerprint(), False, monkeypatch)
    assert plain == hooked
    assert hooked[1] == hooked[2] > 0 and hooked[3] == 12
