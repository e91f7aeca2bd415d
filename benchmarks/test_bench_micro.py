"""Microbenchmarks: the substrate primitives on the simulation hot path.

These are real repeated-round pytest-benchmark measurements (unlike the
figure benches, which run once).  They catch performance regressions in
the pieces every experiment leans on: the event loop, the network's
serial-queue model, the wire codec, geohash encoding, merkle trees, and
signatures.
"""

from repro.codec import decode_prepare, decode_request, encode_prepare, encode_request
from repro.common.rng import DeterministicRNG
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import MerkleTree
from repro.geo.coords import LatLng
from repro.geo.geohash import geohash_encode
from repro.net.message import RawPayload
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.pbft.messages import ClientRequest, Prepare, RawOperation

HK = LatLng(22.3193, 114.1694)


def test_simulator_event_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(float(i % 100), lambda: None)
        sim.run()
        return sim.events_processed

    assert benchmark(run_10k_events) == 10_000


def test_network_message_throughput(benchmark):
    def deliver_5k_messages():
        sim = Simulator()
        net = SimulatedNetwork(sim)
        received = []
        for node in range(10):
            net.register(node, received.append)
        payload = RawPayload("bench", 108)
        for i in range(500):
            net.multicast(i % 10, range(10), payload)
        sim.run()
        return len(received)

    assert benchmark(deliver_5k_messages) == 4_500


def test_codec_prepare_roundtrip(benchmark):
    vote = Prepare(view=3, seq=17, digest=bytes(range(32)), sender=5)
    decoded, _signature = benchmark(lambda: decode_prepare(encode_prepare(vote)))
    assert decoded == vote


def test_codec_request_roundtrip(benchmark):
    op = RawOperation(op_id="bench-op", size_bytes=64)
    request = ClientRequest(client=1, timestamp=2.5, op=op)
    op_bytes = op.signing_bytes().ljust(op.size_bytes, b"\0")[:op.size_bytes]
    client, timestamp, _signature, decoded_op = benchmark(
        lambda: decode_request(encode_request(request, op_bytes)))
    assert (client, timestamp, decoded_op) == (1, 2.5, op_bytes)


def test_geohash_encode(benchmark):
    result = benchmark(geohash_encode, HK, 12)
    assert len(result) == 12


def test_merkle_tree_100_leaves(benchmark):
    leaves = [f"tx-{i}".encode() for i in range(100)]
    root = benchmark(lambda: MerkleTree(leaves).root)
    assert len(root) == 32


def test_signature_roundtrip(benchmark):
    kp = KeyPair.generate(1)
    message = b"x" * 200

    def sign_and_verify():
        return kp.verify(message, kp.sign(message))

    assert benchmark(sign_and_verify)


def test_rng_weighted_index(benchmark):
    rng = DeterministicRNG(1)
    weights = [float(i) for i in range(40)]
    index = benchmark(rng.weighted_index, weights)
    assert 0 <= index < 40
