"""Baseline PBFT (Castro & Liskov, OSDI'99) -- the paper's comparator.

A faithful three-phase PBFT implementation over the simulated network:
pre-prepare / prepare / commit with 2f quorums, round-robin primaries,
stable checkpoints with watermarks, and the view-change / new-view
protocol.  G-PBFT (in :mod:`repro.core`) reuses this exact engine inside
each era so that measured differences between the protocols come from
committee size and era machinery, not implementation drift.

Modules:

* :mod:`repro.pbft.messages` -- wire messages with byte-accurate sizes;
* :mod:`repro.pbft.log` -- per-replica message log and quorum tracking;
* :mod:`repro.pbft.replica` -- the replica state machine;
* :mod:`repro.pbft.client` -- clients that submit requests and collect
  f+1 matching replies;
* :mod:`repro.pbft.faults` -- byzantine/crash fault models for testing;
* :mod:`repro.pbft.cluster` -- convenience harness wiring a full
  deployment (replicas + clients + ledgers) over one simulator.
"""

from repro.pbft.messages import RawOperation
from repro.pbft.faults import CrashFaults, EquivocatingFaults

__all__ = [
    "RawOperation",
    "CrashFaults",
    "EquivocatingFaults",
]
