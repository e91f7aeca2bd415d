#!/usr/bin/env python
"""Smart-city car monitoring: the paper's motivating scenario.

A grid of 16 street lamps (fixed IoT infrastructure, the endorser
candidates) monitors 10 vehicles roaming a 1 km district.  Vehicles
upload sighting transactions every 30 simulated seconds; lamps run
G-PBFT.  The example runs for two simulated hours and reports consensus
health, the election table of a lamp, and why no vehicle ever becomes
an endorser (they move).

Run:  python examples/smart_city.py
"""

from repro.common.config import (
    CommitteeConfig,
    ElectionConfig,
    EraConfig,
    GPBFTConfig,
)
from repro.metrics.latency import BoxplotStats
from repro.workloads import smart_city_scenario
from repro.common.eventlog import EV_ERA_SWITCH_COMPLETED, EV_REQUEST_COMPLETED


def main() -> None:
    # speed the election machinery up so two simulated hours show it all:
    # 30 min of stationarity qualifies a device, audits run every 30 min
    config = GPBFTConfig(
        election=ElectionConfig(
            stationary_hours=0.5,
            report_interval_s=300.0,
            min_reports=3,
            audit_window_s=1800.0,
        ),
        era=EraConfig(period_s=1800.0, switch_duration_s=0.25),
        committee=CommitteeConfig(min_endorsers=4, max_endorsers=12),
    )
    scenario = smart_city_scenario(
        n_lamps=16, n_vehicles=10, config=config, tx_period_s=30.0, seed=7
    )
    print(scenario.description)
    deployment = scenario.deployment
    print(f"genesis committee: {deployment.committee}")

    scenario.start()
    scenario.run(2 * 3600.0)

    # -- consensus health --------------------------------------------------
    stats = BoxplotStats.from_samples(
        event.data["latency"]
        for event in deployment.events.of_kind(EV_REQUEST_COMPLETED))
    print(f"\ncommitted transactions: {stats.count}")
    print(f"consensus latency: median {stats.median:.2f} s, "
          f"p75 {stats.q3:.2f} s, max {stats.maximum:.2f} s")
    print(f"ledgers consistent: {deployment.ledgers_consistent()}")
    print(f"chain height: {deployment.nodes[0].ledger.height}")

    # -- election outcome ----------------------------------------------------
    committee = deployment.committee
    lamps_in = [n for n in committee if n < 16]
    vehicles_in = [n for n in committee if n >= 16]
    print(f"\nera {deployment.nodes[0].era} committee "
          f"({len(committee)} members): {committee}")
    print(f"  lamps elected: {len(lamps_in)}, vehicles elected: {len(vehicles_in)}")
    assert not vehicles_in, "moving vehicles must never qualify"

    switches = deployment.events.of_kind(EV_ERA_SWITCH_COMPLETED)
    eras = sorted({e.data["era"] for e in switches})
    print(f"  era switches observed: {eras}")

    # -- a lamp's election table (paper Table II) ---------------------------
    lamp = deployment.nodes[0]
    vehicle_id = 16
    print(f"\nlamp 0's election-table rows for vehicle {vehicle_id} "
          f"(CSC changes as it drives):")
    print(lamp.election_table.render(vehicle_id, max_rows=5))
    timer = lamp.election_table.geographic_timer(vehicle_id, deployment.sim.now)
    print(f"vehicle {vehicle_id} geographic timer: {timer:.0f} s "
          f"(needs {config.election.stationary_hours * 3600:.0f} s to qualify)")


if __name__ == "__main__":
    main()
