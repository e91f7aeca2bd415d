#!/usr/bin/env python
"""RFID asset tracking: the paper's third motivating application.

A 200 m warehouse is covered by a grid of 9 RFID readers (fixed IoT
infrastructure running G-PBFT); 12 tagged assets move around it.  Each
scan period, every reader that detects an asset in radio range records
the sighting on-chain, so the ledger always holds each asset's last
verified position -- tamper-proof location history, which is the whole
point of putting tracking data on a blockchain.

Run:  python examples/asset_tracking.py
"""

from repro.common.eventlog import EV_REQUEST_COMPLETED
from repro.metrics.latency import BoxplotStats
from repro.workloads import asset_tracking_scenario

#: The warehouse: one scan a minute keeps the sightings inside what the
#: reader committee commits (at 20 s most back up unserved, and view
#: changes fire).
CONFIG = dict(n_readers=9, n_assets=12, sighting_range_m=60.0,
              scan_period_s=60.0, seed=5)

#: Ten simulated minutes.
DURATION_S = 10 * 60.0


def main() -> None:
    scenario = asset_tracking_scenario(**CONFIG)
    print(scenario.description)
    deployment = scenario.deployment
    print(f"reader committee: {deployment.committee}")

    scenario.start()
    scenario.run(DURATION_S)

    stats = BoxplotStats.from_samples(
        event.data["latency"]
        for event in deployment.events.of_kind(EV_REQUEST_COMPLETED))
    print(f"\nsightings committed: {stats.count}")
    print(f"commit latency: median {stats.median:.2f}s, max {stats.maximum:.2f}s")
    print(f"chain height: {deployment.nodes[0].ledger.height}, "
          f"ledgers consistent: {deployment.ledgers_consistent()}")

    # the on-chain location register: every asset's last verified position
    reader = deployment.nodes[0]
    print("\non-chain asset positions (last committed sighting):")
    tracked = 0
    for asset_id in range(9, 21):
        position = reader.ledger.state.get(f"asset{asset_id}")
        if position is not None:
            tracked += 1
            print(f"  asset {asset_id}: {position}")
    print(f"\n{tracked}/12 assets have verified on-chain positions")
    print(f"traffic: {deployment.network.stats.kilobytes_sent:.0f} KB "
          f"({deployment.network.stats.messages_sent} messages)")


if __name__ == "__main__":
    main()
