"""Workload generation: device fleets, mobility traces, tx arrivals.

The paper motivates G-PBFT with concrete IoT scenes -- street lamps in a
car-monitoring system, payment machines in a parking lot, RFID receivers
in location tracking (sections I, III-B).  This package turns those
scenes into reproducible simulation inputs:

* :mod:`repro.workloads.mobility` -- the random-waypoint mobility
  model and the driver that moves mobile nodes on the simulator;
* :mod:`repro.workloads.arrivals` -- transaction arrival processes
  (constant-rate per node, Poisson) used by the latency experiments;
* :mod:`repro.workloads.streams` -- aggregated per-zone arrival streams
  (rate profiles + thinning) that make million-request city-scale runs
  tractable;
* :mod:`repro.workloads.scenarios` -- packaged end-to-end scenes
  (smart-city car monitoring, RFID asset tracking) and the
  installation grid they place fixed devices on;
* :mod:`repro.workloads.profiles` -- heterogeneous device classes
  (sensor / gateway / infrastructure tiers) with CPU, memory, and
  duty-cycle constraints, plus fleet mixes and availability drivers;
* :mod:`repro.workloads.packs` -- adversarial scenario packs with
  machine-checked expected outcomes (regional blackout, flash crowd,
  Sybil drip, endorser churn storm).
"""

from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.scenarios import (
    smart_city_scenario,
    asset_tracking_scenario,
)

__all__ = [
    "PoissonArrivals",
    "smart_city_scenario",
    "asset_tracking_scenario",
]
