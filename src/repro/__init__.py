"""repro -- a full reproduction of G-PBFT (Lao, Dai, Xiao, Guo; IPDPS 2020).

G-PBFT is a location-based, scalable consensus protocol for
IoT-blockchain applications: a small committee of *endorsers* -- fixed
IoT devices whose geographic stationarity is verified on-chain -- runs
PBFT on behalf of the whole network, and committee changes are batched
into *era switches*.

Package tour (bottom of the import graph first):

* :mod:`repro.common`  -- ids, config, deterministic RNG, event log
* :mod:`repro.crypto`  -- hashing, simulated signatures, merkle, addresses
* :mod:`repro.geo`     -- coordinates, geohash, CSC, reports, witnesses
* :mod:`repro.net`     -- discrete-event simulator + byte-accurate network
* :mod:`repro.chain`   -- transactions, blocks, genesis, ledger, mempool
* :mod:`repro.pbft`    -- the baseline Castro-Liskov PBFT engine
* :mod:`repro.core`    -- G-PBFT itself (election, eras, incentives, nodes)
* :mod:`repro.sybil`   -- attacker models and the geographic defences
* :mod:`repro.workloads` -- fleets, mobility, arrivals, scenarios
* :mod:`repro.metrics` -- latency/traffic measurement and rendering,
  and the paper's closed-form models (section IV)
* :mod:`repro.experiments` -- regenerates every table and figure

Quickstart::

    from repro.common.config import TopologySpec

    dep = TopologySpec.single(12, 4, seed=42).build()
    device = dep.nodes[10]
    device.submit_transaction(device.next_transaction(key="temp", value="25C"))
    dep.run(until=60.0)
    assert dep.nodes[0].ledger.state.get("temp") == "25C"
"""

__version__ = "1.3.0"

__all__ = [
    "common",
    "crypto",
    "geo",
    "net",
    "chain",
    "pbft",
    "core",
    "sybil",
    "workloads",
    "metrics",
    "experiments",
]
