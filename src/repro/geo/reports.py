"""Periodic location reports and per-device report histories.

Section II-C fixes the report format ``<longitude, latitude, timestamp>``;
devices upload one periodically and piggyback one on every transaction.
The election table (:mod:`repro.core.election`) and Algorithm 1 both
consume :class:`ReportHistory` via its windowed queries, which mirror the
paper's chain-based function ``G(v, t)``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.common.errors import GeoError
from repro.common.wire_layout import wire_struct
from repro.geo.coords import LatLng
from repro.geo.csc import CSC_PRECISION
from repro.geo.geohash import geohash_encode

#: Serialized size of one report record, read once from the layout
#: repro.codec packs with (WIRE_MESSAGES).
_REPORT_BYTES = wire_struct("geo.report").size


@dataclass(frozen=True, slots=True)
class GeoReport:
    """One ``<longitude, latitude, timestamp>`` upload from a device.

    The geohash cell is an immutable function of the frozen position
    and is asked for again and again -- by every endorser's election
    table, once per report a stationarity walk passes -- so the cell is
    kept on the report once computed.

    Attributes:
        node: reporting device id.
        position: claimed location.
        timestamp: simulated time of the claim, seconds.
    """

    node: int
    position: LatLng
    timestamp: float
    _cell: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise GeoError(f"report timestamp must be >= 0, got {self.timestamp}")

    def geohash(self) -> str:
        """CSC cell of the claimed position (memoized)."""
        cell = self._cell
        if cell is None:
            cell = geohash_encode(self.position, CSC_PRECISION)
            object.__setattr__(self, "_cell", cell)
        return cell

    @property
    def size_bytes(self) -> int:
        """Serialized size: two 8-byte doubles + 8-byte timestamp + id."""
        return _REPORT_BYTES


class ReportHistory:
    """Time-ordered location reports of a single device.

    The paper's ``G(v, t)`` returns "the geographic information reported
    by a node during the past period t"; :meth:`window` implements it.
    """

    def __init__(self, node: int) -> None:
        self._node = node
        self._times: list[float] = []
        self._reports: list[GeoReport] = []

    def __len__(self) -> int:
        return len(self._reports)

    def add(self, report: GeoReport) -> None:
        """Append *report*; out-of-order timestamps are rejected.

        Raises:
            GeoError: if the report belongs to another node or regresses
                in time (the chain orders uploads, so regressions signal
                a harness bug).
        """
        if report.node != self._node:
            raise GeoError(f"report for node {report.node} added to history of {self._node}")
        if self._times and report.timestamp < self._times[-1]:
            raise GeoError(
                f"report at {report.timestamp} older than last at {self._times[-1]}"
            )
        self._times.append(report.timestamp)
        self._reports.append(report)

    def window(self, now: float, lookback_s: float) -> list[GeoReport]:
        """Reports with ``timestamp in [now - lookback_s, now]`` -- G(v, t)."""
        if lookback_s < 0:
            raise GeoError("lookback must be >= 0")
        lo = bisect.bisect_left(self._times, now - lookback_s)
        hi = bisect.bisect_right(self._times, now)
        return self._reports[lo:hi]

    def stationary_since(self) -> float | None:
        """Earliest timestamp from which every later report shares the
        latest report's geohash cell.

        This is the quantity behind the election table's *geographic
        timer*: ``now - stationary_since`` is how long the device has
        verifiably stayed put.  Returns ``None`` when there are no
        reports.
        """
        if not self._reports:
            return None
        current = self._reports[-1].geohash()
        anchor = self._reports[-1].timestamp
        for report in reversed(self._reports):
            if report.geohash() != current:
                break
            anchor = report.timestamp
        return anchor

    def prune_before(self, cutoff: float) -> int:
        """Drop reports older than *cutoff*; returns how many were removed.

        Keeps long simulations memory-bounded (the chain retains full
        history; nodes only need the audit window).
        """
        lo = bisect.bisect_left(self._times, cutoff)
        removed = lo
        del self._times[:lo]
        del self._reports[:lo]
        return removed
