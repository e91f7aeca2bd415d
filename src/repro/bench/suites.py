"""The registered benchmark suite: hot paths the experiments stress.

Every benchmark here covers a path that dominates an experiment sweep:
wire serialization (codec), hashing and HMAC signatures (crypto), the
discrete-event loop and its cancellation/compaction machinery (sim),
multicast fan-out through the simulated network (net), quorum
bookkeeping (pbft), and two end-to-end consensus points at the paper's
committee cap (n = 40) and full deployment scale (n = 202) reusing the
exact :func:`~repro.experiments.engine.run_point` dispatch the figures
run.  Workloads are fixed and seeded, so two runs time identical work.

Importing this module populates :data:`repro.bench.core.REGISTRY`.
"""

from __future__ import annotations

from repro.bench.core import Benchmark, register
from repro.codec import decode_prepare, encode_prepare, encode_request, decode_request
from repro.common.config import TopologySpec
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.experiments.engine import PointSpec, run_point
from repro.net.message import RawPayload
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.pbft.log import MessageLog
from repro.pbft.messages import ClientRequest, Commit, Prepare, PrePrepare, RawOperation

#: A 32-byte digest stand-in used by codec/log workloads.
_DIGEST = bytes(range(32))


def _noop() -> None:
    return None


def _codec_encode_prepare():
    """Encode a prepare vote 2000 times (the dominant wire message)."""
    msg = Prepare(view=3, seq=17, digest=_DIGEST, sender=5)

    def thunk() -> None:
        for _ in range(2000):
            encode_prepare(msg)
    return thunk


def _codec_decode_prepare():
    """Decode a prepare vote 2000 times."""
    data = encode_prepare(Prepare(view=3, seq=17, digest=_DIGEST, sender=5))

    def thunk() -> None:
        for _ in range(2000):
            decode_prepare(data)
    return thunk


def _codec_request_roundtrip():
    """Encode+decode a client request (op payload included) 1000 times."""
    op = RawOperation(op_id="bench-op", size_bytes=64)
    msg = ClientRequest(client=1, timestamp=2.5, op=op)
    op_bytes = op.signing_bytes().ljust(op.size_bytes, b"\0")[: op.size_bytes]

    def thunk() -> None:
        for _ in range(1000):
            decode_request(encode_request(msg, op_bytes))
    return thunk


def _crypto_sha256():
    """SHA-256 over a 1 KiB message, 2000 times."""
    payload = b"\xa5" * 1024

    def thunk() -> None:
        for _ in range(2000):
            sha256(payload)
    return thunk


def _crypto_hmac_sign():
    """HMAC signing of distinct messages (uncached path), 1000 ops."""
    keys = KeyPair.generate(0)
    messages = [b"bench:%d" % i for i in range(1000)]

    def thunk() -> None:
        for message in messages:
            keys.sign(message)
    return thunk


def _crypto_verify_cached():
    """Repeated verification of one signature (exercises the cache)."""
    keys = KeyPair.generate(1)
    message = b"bench:verify"
    signature = keys.sign(message)

    def thunk() -> None:
        for _ in range(1000):
            keys.verify(message, signature)
    return thunk


def _sim_event_churn():
    """Schedule 4000 timers, cancel 3 in 4, drain the survivors.

    Exercises scheduling, O(1) cancellation accounting, lazy heap
    compaction, and the pop/fire loop.
    """

    def thunk() -> None:
        sim = Simulator()
        events = [sim.schedule(1.0 + i * 1e-4, _noop) for i in range(4000)]
        for i, event in enumerate(events):
            if i % 4:
                event.cancel()
        sim.run()
    return thunk


def _net_multicast_fanout():
    """One node multicasting to 63 peers, 50 bursts through the loop.

    Covers the batched fan-out (one stats charge, one jitter draw, one
    pass over the inboxes) and the per-node processing chains.
    """

    def thunk() -> None:
        sim = Simulator()
        network = SimulatedNetwork(sim)
        ids = list(range(64))
        for node_id in ids:
            network.register(node_id, _sink)
        payload = RawPayload("bench.burst", 256)
        for _ in range(50):
            network.multicast(0, ids, payload)
            sim.run()
    return thunk


def _sink(envelope) -> None:
    return None


def _pbft_log_quorum():
    """Quorum bookkeeping for 20 instances x 27 voters at n = 40."""
    n = 40
    voters = list(range(1, 28))

    def thunk() -> None:
        log = MessageLog(n, 0)
        for seq in range(1, 21):
            op = RawOperation(op_id=f"q-{seq}", size_bytes=8)
            request = ClientRequest(client=100, timestamp=float(seq), op=op)
            log.add_pre_prepare(PrePrepare(
                view=0, seq=seq, digest=request.digest(), request=request,
                sender=0))
            for sender in voters:
                log.add_prepare(Prepare(
                    view=0, seq=seq, digest=request.digest(), sender=sender))
                log.add_commit(Commit(
                    view=0, seq=seq, digest=request.digest(), sender=sender))
            assert log.committed_local(0, seq)
    return thunk


def _e2e_point(n: int):
    """Setup for an end-to-end PBFT traffic point at *n* nodes."""
    spec = PointSpec.make("pbft", "traffic", n)

    def thunk() -> float:
        return run_point(spec)
    return thunk


def _e2e_pbft_n40():
    """Full consensus round at the paper's committee cap (n = 40)."""
    return _e2e_point(40)


def _e2e_pbft_n202():
    """Full consensus round at deployment scale (n = 202)."""
    return _e2e_point(202)


def _e2e_pbft_n1000():
    """Full consensus round at city scale (n = 1000 replicas).

    One transaction through a thousand-replica committee: ~2M prepare +
    commit messages, the largest quorum-bookkeeping and multicast
    workload in the suite.
    """
    return _e2e_point(1000)


def _e2e_agg_day_1m():
    """A million-request simulated day over 12 aggregated city zones.

    The flagship aggregated-workload point: 12 endorser committees
    co-hosted on one simulator, each zone driven by a diurnal
    :class:`~repro.workloads.streams.AggregatedArrivals` stream instead
    of per-client objects, with every unbounded log capped so memory
    stays flat across ~60M simulator events.
    """
    spec = PointSpec.make("gpbft", "agg", 1_050_000, zones=12,
                          duration_s=86_400.0, profile="diurnal")

    def thunk() -> dict:
        out = run_point(spec)
        if out["completed"] < 1_000_000:
            raise RuntimeError(
                f"aggregated day under-delivered: {out['completed']} "
                f"completed of {out['offered']} offered")
        return out
    return thunk


def _e2e_hier_2zone_n64():
    """Hierarchical 2-zone deployment (32 nodes each) committing an
    inter-zone transaction through the top-level checkpoint layer."""

    def thunk() -> float:
        hier = TopologySpec.zoned(2, 32, seed=1, start_reports=False).build()
        hier.submit_xzone(0, dst_zone=1)
        hier.run_for(30.0)
        if not hier.committed_xzone(1):
            raise RuntimeError("inter-zone tx failed to commit")
        return hier.sim.now
    return thunk


def _e2e_hetero_n64():
    """Heterogeneous 64-node fleet (8 infra endorsers, 16 gateways,
    40 duty-cycled sensors) committing under per-node processing rates
    and availability drivers."""
    from repro.workloads.profiles import (
        FleetMix, GATEWAY_CLASS, INFRA_CLASS, SENSOR_CLASS)

    mix = FleetMix.of((INFRA_CLASS, 8), (GATEWAY_CLASS, 16),
                      (SENSOR_CLASS, 40))

    def thunk() -> float:
        dep = TopologySpec.single(64, 8, seed=1, start_reports=False,
                                  profiles=mix).build()
        for node_id in (60, 61, 62, 63):
            dep.submit_from(node_id)
        dep.run(until=60.0)
        if not dep.completed_latencies():
            raise RuntimeError("heterogeneous fleet failed to commit")
        return dep.sim.now
    return thunk


#: Suite definitions; importing the module registers them in order.
SUITE = [
    Benchmark("codec.encode_prepare", _codec_encode_prepare, ops=2000),
    Benchmark("codec.decode_prepare", _codec_decode_prepare, ops=2000),
    Benchmark("codec.request_roundtrip", _codec_request_roundtrip, ops=1000),
    Benchmark("crypto.sha256_1k", _crypto_sha256, ops=2000),
    Benchmark("crypto.hmac_sign", _crypto_hmac_sign, ops=1000),
    Benchmark("crypto.verify_cached", _crypto_verify_cached, ops=1000),
    Benchmark("sim.event_churn", _sim_event_churn, ops=4000),
    Benchmark("net.multicast_fanout", _net_multicast_fanout, ops=50 * 63),
    Benchmark("pbft.log_quorum", _pbft_log_quorum, ops=20 * 27 * 2),
    Benchmark("e2e.pbft_traffic_n40", _e2e_pbft_n40, repeats=3),
    Benchmark("e2e.pbft_traffic_n202", _e2e_pbft_n202, repeats=3,
              warmup=0, quick=False),
    Benchmark("e2e.pbft_traffic_n1000", _e2e_pbft_n1000, repeats=1,
              warmup=0, quick=False),
    Benchmark("e2e.agg_day_1M", _e2e_agg_day_1m, repeats=1,
              warmup=0, quick=False),
    Benchmark("e2e.hier_2zone_n64", _e2e_hier_2zone_n64, repeats=3,
              warmup=0, quick=False),
    Benchmark("e2e.hetero_n64", _e2e_hetero_n64, repeats=3,
              warmup=0, quick=False),
]

for _bench in SUITE:
    register(_bench)
