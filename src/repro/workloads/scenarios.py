"""Packaged end-to-end scenes from the paper's motivating applications.

* **Smart-city car monitoring** (paper section III-B: "a smart street
  lamp of a car monitoring system"): a grid of street lamps (fixed,
  electable) plus vehicles roaming the district (mobile clients that
  upload sighting transactions).
* **RFID asset tracking** (section III-B): fixed RFID readers scanning
  tagged assets that roam a warehouse.

Each builder returns a :class:`Scenario` bundling the deployment,
mobility drivers, and arrival processes, ready to ``run()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.config import GPBFTConfig, TopologySpec
from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.core.deployment import GPBFTDeployment
from repro.geo.coords import LatLng, Region
from repro.workloads.arrivals import ArrivalProcess, ConstantRateArrivals
from repro.workloads.mobility import MobilityDriver, RandomWaypointModel


@dataclass
class Scenario:
    """A runnable scene: deployment + workload drivers.

    Attributes:
        deployment: the G-PBFT network.
        mobility: drivers moving the mobile devices.
        arrivals: transaction generators per submitting node.
        description: human-readable scene summary.
    """

    deployment: GPBFTDeployment
    mobility: list[MobilityDriver] = field(default_factory=list)
    arrivals: list[ArrivalProcess] = field(default_factory=list)
    description: str = ""

    def start(self, tx_limit_per_node: int | None = None) -> None:
        """Arm every driver and arrival process."""
        for driver in self.mobility:
            driver.start()
        for arrival in self.arrivals:
            arrival.start(limit=tx_limit_per_node)

    def run(self, duration_s: float) -> None:
        """Advance the simulation by *duration_s* seconds."""
        self.deployment.run_for(duration_s)


def grid_positions(region: Region, count: int) -> list[LatLng]:
    """Place *count* devices on a regular grid inside *region*.

    Street lamps and payment machines are installed on regular layouts;
    a near-square grid with edge margins models that.
    """
    if count <= 0:
        return []
    cols = max(1, math.ceil(math.sqrt(count)))
    rows = max(1, math.ceil(count / cols))
    out: list[LatLng] = []
    for index in range(count):
        r, c = divmod(index, cols)
        # margins of half a cell keep devices off the region boundary
        frac_lat = (r + 0.5) / rows
        frac_lng = (c + 0.5) / cols
        out.append(
            LatLng(
                region.south + frac_lat * (region.north - region.south),
                region.west + frac_lng * (region.east - region.west),
            )
        )
    return out


def _apply_grid_layout(deployment: GPBFTDeployment, node_ids, region: Region) -> None:
    """Re-place *node_ids* on an installation grid (post-construction)."""
    layout = grid_positions(region, len(list(node_ids)))
    for node_id, pos in zip(node_ids, layout):
        deployment.nodes[node_id].move_to(pos)


def smart_city_scenario(
    n_lamps: int = 25,
    n_vehicles: int = 15,
    config: GPBFTConfig | None = None,
    tx_period_s: float = 30.0,
    seed: int = 0,
) -> Scenario:
    """Street lamps monitor passing cars; vehicles report sightings.

    Args:
        n_lamps: fixed street lamps (genesis committee comes from these).
        n_vehicles: mobile vehicles submitting transactions.
        config: protocol configuration.

    The city district is a ~1 km square.
        tx_period_s: per-vehicle constant submission period.
        seed: experiment seed.
    """
    if n_lamps < 4:
        raise ConfigurationError("need at least 4 lamps to form a committee")
    region = Region.around(LatLng(22.3193, 114.1694), half_side_m=500.0)
    config = config or GPBFTConfig()
    total = n_lamps + n_vehicles
    n_endorsers = min(n_lamps, config.committee.max_endorsers)
    deployment = TopologySpec.single(
        total,
        n_endorsers,
        config=config,
        region=region,
        seed=seed,
    ).build()
    _apply_grid_layout(deployment, range(n_lamps), region)

    rng = DeterministicRNG(seed, "smart-city")
    mobility = []
    arrivals = []
    for vid in range(n_lamps, total):
        node = deployment.nodes[vid]
        mobility.append(
            MobilityDriver(
                node,
                RandomWaypointModel(region, speed_min_mps=3.0, speed_max_mps=14.0),
                deployment.sim,
                rng.fork(f"veh/{vid}"),
                interval_s=30.0,
            )
        )
        arrivals.append(
            ConstantRateArrivals(
                deployment.sim,
                node.submit_transaction,
                rng.fork(f"tx/{vid}"),
                period_s=tx_period_s,
            )
        )
    return Scenario(
        deployment=deployment,
        mobility=mobility,
        arrivals=arrivals,
        description=(
            f"smart-city car monitoring: {n_lamps} street lamps, "
            f"{n_vehicles} vehicles, tx every {tx_period_s}s"
        ),
    )


def asset_tracking_scenario(
    n_readers: int = 9,
    n_assets: int = 12,
    sighting_range_m: float = 60.0,
    scan_period_s: float = 20.0,
    seed: int = 0,
) -> Scenario:
    """RFID location tracking: the paper's third motivating application
    ("a RFID receiver in a location tracking systems", section III-B).

    A grid of RFID readers (fixed, electable) covers a warehouse;
    tagged assets move on random waypoints.  Each scan period, every
    reader submits a sighting transaction for each asset currently in
    radio range, recording the asset's position on-chain.
    """
    if n_readers < 4:
        raise ConfigurationError("need at least 4 RFID readers")
    region = Region.around(LatLng(22.3100, 114.2100), half_side_m=100.0)
    total = n_readers + n_assets
    deployment = TopologySpec.single(
        total,
        min(n_readers, GPBFTConfig().committee.max_endorsers),
        region=region,
        seed=seed,
    ).build()
    _apply_grid_layout(deployment, range(n_readers), region)

    rng = DeterministicRNG(seed, "asset-tracking")
    mobility = [
        MobilityDriver(
            deployment.nodes[aid],
            RandomWaypointModel(region, speed_min_mps=0.5, speed_max_mps=2.0,
                                pause_s=60.0),
            deployment.sim,
            rng.fork(f"asset/{aid}"),
            interval_s=10.0,
        )
        for aid in range(n_readers, total)
    ]

    def scan(reader_id: int) -> None:
        reader = deployment.nodes[reader_id]
        for aid in range(n_readers, total):
            asset = deployment.nodes[aid]
            if reader.position.distance_to(asset.position) <= sighting_range_m:
                tx = reader.next_transaction(
                    key=f"asset{aid}",
                    value=f"{asset.position.lat:.6f},{asset.position.lng:.6f}",
                )
                reader.submit_transaction(tx)
        deployment.sim.schedule(scan_period_s, scan, reader_id)

    for reader_id in range(n_readers):
        # stagger scans so readers do not fire in lockstep
        deployment.sim.schedule(
            rng.uniform(0.0, scan_period_s), scan, reader_id
        )

    return Scenario(
        deployment=deployment,
        mobility=mobility,
        description=(
            f"asset tracking: {n_readers} RFID readers scanning every "
            f"{scan_period_s}s, {n_assets} tagged assets roaming"
        ),
    )
