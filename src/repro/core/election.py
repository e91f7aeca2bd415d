"""The election table: CSC, timestamp, geographic timer (paper Table II).

Every endorser maintains one.  Each uploaded location report appends an
entry; the *geographic timer* records "how long an IoT device does not
change its position".  A device whose timer reaches the election
threshold (72 h) becomes an endorser candidate.

The timer also drives the incentive mechanism: a longer timer gives an
endorser a higher chance of producing the next block, and producing a
block resets the producer's timer (section III-B5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import ElectionConfig
from repro.common.errors import GeoError
from repro.geo.reports import GeoReport, ReportHistory


@dataclass(frozen=True, slots=True)
class ElectionEntry:
    """One row of the election table, as printed in the paper's Table II.

    Attributes:
        node: reporting device.
        csc_geohash: the geohash half of the device's CSC at report time.
        timestamp: report time (seconds).
        geographic_timer: seconds of uninterrupted stationarity at this
            report, *after* any incentive resets.
    """

    node: int
    csc_geohash: str
    timestamp: float
    geographic_timer: float


class ElectionTable:
    """Per-endorser table of device location histories and timers.

    Args:
        config: election thresholds (stationary hours, audit window...).
    """

    def __init__(self, config: ElectionConfig | None = None) -> None:
        self.config = config or ElectionConfig()
        self._histories: dict[int, ReportHistory] = {}
        self._rows: dict[int, list[ElectionEntry]] = {}
        # incentive resets: node -> time of last block produced
        self._timer_reset_at: dict[int, float] = {}

    # -- feeding ------------------------------------------------------------

    def observe(self, report: GeoReport) -> ElectionEntry:
        """Record *report* and return the table row it created."""
        history = self._histories.get(report.node)
        if history is None:
            history = ReportHistory(report.node)
            self._histories[report.node] = history
        history.add(report)
        entry = ElectionEntry(
            node=report.node,
            csc_geohash=report.geohash(),
            timestamp=report.timestamp,
            geographic_timer=self.geographic_timer(report.node, report.timestamp),
        )
        self._rows.setdefault(report.node, []).append(entry)
        return entry

    def history(self, node: int) -> ReportHistory | None:
        """Raw report history of *node* (Algorithm 1's G(v, t) source)."""
        return self._histories.get(node)

    def rows(self, node: int) -> list[ElectionEntry]:
        """All table rows of *node*, oldest first (Table II rendering)."""
        return list(self._rows.get(node, []))

    # -- timers ------------------------------------------------------------

    def geographic_timer(self, node: int, now: float) -> float:
        """Seconds the device has verifiably stayed in its current cell.

        Zero when the device never reported, just moved, or since its
        last incentive reset.
        """
        history = self._histories.get(node)
        if history is None:
            return 0.0
        anchor = history.stationary_since()
        if anchor is None:
            return 0.0
        anchor = max(anchor, self._timer_reset_at.get(node, 0.0))
        return max(0.0, now - anchor)

    def reset_timer(self, node: int, now: float) -> None:
        """Incentive reset after *node* produced a block.

        Raises:
            GeoError: if *node* has never reported (nothing to reset).
        """
        if node not in self._histories:
            raise GeoError(f"cannot reset timer of unknown node {node}")
        self._timer_reset_at[node] = now

    def timers(self, nodes, now: float) -> dict[int, float]:
        """Geographic timers of *nodes* at *now* (producer lottery input)."""
        return {node: self.geographic_timer(node, now) for node in nodes}

    # -- eligibility ------------------------------------------------------------

    def eligible_candidates(self, now: float, exclude=()) -> list[int]:
        """Devices whose timer passed the election threshold.

        Args:
            now: current time.
            exclude: ids never to return (current members, blacklist...).

        Eligibility additionally requires enough reports inside the audit
        window (Algorithm 1's ``Len(G) >= n``), so a device cannot qualify
        on one ancient report.
        """
        threshold_s = self.config.stationary_hours * 3600.0
        excluded = set(exclude)
        out = []
        for node, history in self._histories.items():
            if node in excluded:
                continue
            if len(history.window(now, self.config.audit_window_s)) < self.config.min_reports:
                continue
            if self.geographic_timer(node, now) >= threshold_s:
                out.append(node)
        return sorted(out)

    def prune(self, now: float, keep_s: float | None = None) -> int:
        """Drop reports and rows older than the retention horizon.

        Args:
            now: current time.
            keep_s: retention window; defaults to twice the election
                threshold so stationarity can still be established.

        Returns:
            Number of reports removed across all devices.
        """
        if keep_s is None:
            keep_s = 2 * self.config.stationary_hours * 3600.0
        cutoff = now - keep_s
        removed = 0
        for node, history in self._histories.items():
            removed += history.prune_before(cutoff)
            rows = self._rows.get(node)
            if rows:
                self._rows[node] = [r for r in rows if r.timestamp >= cutoff]
        return removed

    # -- rendering ------------------------------------------------------------

    def render(self, node: int, max_rows: int = 10) -> str:
        """ASCII rendering of *node*'s rows in the format of Table II."""
        rows = self.rows(node)[-max_rows:]
        lines = [f"{'#':>3}  {'CSC':<20} {'Timestamp':>12} {'Geographic Timer':>18}"]
        for i, row in enumerate(rows, start=1):
            lines.append(
                f"{i:>3}  {row.csc_geohash:<20} {row.timestamp:>12.1f} "
                f"{row.geographic_timer:>18.1f}"
            )
        return "\n".join(lines)
