"""Throughput (TPS) measurement.

The paper says "Instead of measuring the Transactions Per Second (TPS)
of the blockchain system, we evaluate the performance in terms of
consensus latency" (section V-B).  This module adds the TPS view as an
extension experiment: saturate the system with offered load and count
committed transactions per simulated second.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.eventlog import EV_REQUEST_COMPLETED, EV_REQUEST_SUBMITTED, EventLog


@dataclass(frozen=True, slots=True)
class ThroughputSample:
    """Committed-transaction throughput over one measurement window.

    Attributes:
        committed: transactions committed inside the window.
        window_s: window length in simulated seconds.
        offered: transactions submitted inside the window (load check).
    """

    committed: int
    window_s: float
    offered: int

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ConfigurationError("window must be positive")
        if self.committed < 0 or self.offered < 0:
            raise ConfigurationError("counts must be >= 0")

    @property
    def tps(self) -> float:
        """Committed transactions per simulated second."""
        return self.committed / self.window_s


def throughput_from_events(
    events: EventLog,
    start: float,
    end: float,
    commit_kind: str = EV_REQUEST_COMPLETED,
) -> ThroughputSample:
    """Measure TPS over the window [start, end) of an event log.

    Args:
        events: an experiment's event log.
        start: window start (skip the warm-up transient).
        end: window end.
        commit_kind: event kind counted as a commit.

    Offered load counts ``EV_REQUEST_SUBMITTED`` events.
    """
    if end <= start:
        raise ConfigurationError("window end must be after start")
    committed = sum(
        1 for e in events.of_kind(commit_kind) if start <= e.at < end
    )
    offered = sum(
        1 for e in events.of_kind(EV_REQUEST_SUBMITTED) if start <= e.at < end
    )
    return ThroughputSample(committed=committed, window_s=end - start, offered=offered)
