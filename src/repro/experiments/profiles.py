"""Experiment profiles: node sweeps, repetitions, workload intensity.

The ``paper`` profile mirrors section V: node counts from 4 up to 202,
ten repetitions per group, and a constant per-node proposal frequency
calibrated (see :mod:`repro.metrics.models`) so that PBFT at 202 nodes
runs near saturation -- utilisation 2*202^2/(9000*10) ~ 0.91, which is
what pushes its measured latency toward the paper's ~251 s.

The ``quick`` profile keeps the same *shape* (saturation just past its
largest PBFT point) at laptop-test scale: utilisation at n = 52 is
2*52^2/(600*10) ~ 0.90.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.common.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class ExperimentProfile:
    """All knobs one evaluation run needs.

    Attributes:
        name: profile label.
        latency_node_counts: x-axis of the latency figures (3, 4).
        traffic_node_counts: x-axis of the traffic figures (5, 6).
        reps: repetitions per group (10 in the paper).
        proposal_period_s: per-node constant proposal period R; the
            aggregate arrival rate at n nodes is n/R.
        measured_txs: committed transactions measured per repetition.
        warmup_txs: leading transactions excluded from statistics.
        max_endorsers: committee cap (40 in the paper).
        headline_n: the Table III comparison point (202 in the paper).
    """

    name: str
    latency_node_counts: tuple[int, ...]
    traffic_node_counts: tuple[int, ...]
    reps: int
    proposal_period_s: float
    measured_txs: int
    warmup_txs: int
    max_endorsers: int = 40
    headline_n: int = 202

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ConfigurationError("reps must be >= 1")
        if self.measured_txs < 1:
            raise ConfigurationError("measured_txs must be >= 1")
        if min(self.latency_node_counts) < 4 or min(self.traffic_node_counts) < 4:
            raise ConfigurationError("node counts must be >= 4")

    def latency_point_kwargs(self, protocol: str) -> dict:
        """Extra params a latency ``PointSpec`` carries under this profile.

        These are exactly the fields that enter the engine's cache key,
        so changing any of them invalidates previously cached points.
        """
        kwargs = {
            "proposal_period_s": self.proposal_period_s,
            "measured": self.measured_txs,
            "warmup": self.warmup_txs,
        }
        if protocol == "gpbft":
            kwargs["max_endorsers"] = self.max_endorsers
        return kwargs


#: Laptop-scale profile: same saturation shape, two orders less work.
#: Utilisation at the headline point n = 52 is 2*52^2/(450*10) ~ 1.2 --
#: just past saturation, like the paper profile at n = 202.
QUICK = ExperimentProfile(
    name="quick",
    latency_node_counts=(4, 10, 16, 22, 28, 34, 40, 46, 52),
    traffic_node_counts=(4, 10, 16, 22, 28, 34, 40, 46, 52),
    reps=3,
    proposal_period_s=450.0,
    measured_txs=4,
    warmup_txs=2,
    max_endorsers=16,
    headline_n=52,
)

#: Section-V scale: sweeps to 202 nodes, 10 runs per group.  The
#: proposal period puts PBFT@202 past saturation (2*202^2/(4000*10) ~ 2),
#: which is the regime the paper's own numbers describe: ~251 s latency
#: under a constant workload, and "PBFT network cannot work at all when
#: the number of nodes is larger than 202" (section V-C).
PAPER = ExperimentProfile(
    name="paper",
    latency_node_counts=(4, 22, 40, 58, 76, 94, 112, 130, 148, 166, 184, 202),
    traffic_node_counts=(4, 22, 40, 58, 76, 94, 112, 130, 148, 166, 184, 202),
    reps=10,
    proposal_period_s=4000.0,
    measured_txs=8,
    warmup_txs=4,
    max_endorsers=40,
    headline_n=202,
)

_PROFILES = {"quick": QUICK, "paper": PAPER}


def active_profile() -> ExperimentProfile:
    """Profile selected by ``GPBFT_BENCH_PROFILE`` (default quick).

    Raises:
        ConfigurationError: on an unknown profile name.
    """
    name = os.environ.get("GPBFT_BENCH_PROFILE", "quick").strip().lower()
    try:
        return _PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown GPBFT_BENCH_PROFILE {name!r}; choose from {sorted(_PROFILES)}"
        ) from None
