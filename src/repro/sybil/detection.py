"""Endorser-side report admission: the Sybil defence in the data path.

:class:`ReportAdmission` sits between the network and the election
table.  Every incoming location report is checked for cell exclusivity
and witness corroboration before it may influence endorser election;
rejected reports are counted and never reach the table, so fabricated
stationarity can never accumulate a geographic timer.

In a live deployment witnesses are nearby radios; in the simulation the
:class:`GroundTruthWitnessOracle` generates exactly the statements honest
neighbours would make, by consulting the ground-truth position directory
(the simulation's physics).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geo.coords import LatLng
from repro.geo.reports import GeoReport
from repro.geo.verification import (
    AuditVerdict,
    LocationAuditor,
    WitnessStatement,
    honest_statements,
)

#: How far a subject's true position may be from its claimed one and
#: still pass a witness's short-range identity check (GPS tolerance).
VERIFY_TOLERANCE_M = 30.0


class GroundTruthWitnessOracle:
    """Produces the witness statements physics would allow.

    Two different radii matter:

    * ``witness_range_m`` -- how far a witness can *observe* (who is
      competent to testify about a claim);
    * :data:`VERIFY_TOLERANCE_M` -- how far the subject's true position
      may be from its claimed position (a few tens of metres).

    The gap between them is the Sybil bound the paper argues for: one
    physical radio can only sustain claims within the tolerance of
    wherever it actually sits, no matter how many identities it owns.

    Args:
        positions: ground-truth node id -> position map (the deployment
            directory -- the simulation's physics).
        witness_range_m: observation range of devices.
    """

    def __init__(
        self,
        positions: dict[int, LatLng],
        witness_range_m: float = 150.0,
    ) -> None:
        self.positions = positions
        self.witness_range_m = witness_range_m

    def statements(self, report: GeoReport) -> list[WitnessStatement]:
        """Honest neighbours' testimony about *report*.

        When the positions map carries a spatial index (an
        :class:`repro.geo.index.IndexedDirectory`), candidate witnesses
        are found with a range query instead of a full scan.
        """
        true_pos = self.positions.get(report.node)
        truthful = (
            true_pos is not None
            and true_pos.distance_to(report.position) <= VERIFY_TOLERANCE_M
        )
        index = getattr(self.positions, "index", None)
        if index is not None:
            candidates = {
                node: self.positions[node]
                for node in index.within(report.position, self.witness_range_m)
                if node in self.positions
            }
        else:
            candidates = self.positions
        return honest_statements(
            report,
            device_positions=candidates,
            witness_range_m=self.witness_range_m,
            truthful_presence=truthful,
        )


@dataclass
class AdmissionStats:
    """Counters of one endorser's report-admission decisions."""

    accepted: int = 0
    rejected: int = 0
    by_verdict: dict[str, int] = field(default_factory=dict)


class ReportAdmission:
    """The filter an endorser applies before trusting a location report.

    Args:
        auditor: exclusivity/witness checker.
        oracle: witness-statement source (ground truth in simulation).
        flag_threshold: after this many rejected reports a node is
            flagged as a suspected Sybil and all its future reports are
            refused outright.
    """

    def __init__(
        self,
        auditor: LocationAuditor,
        oracle: GroundTruthWitnessOracle,
        flag_threshold: int = 3,
    ) -> None:
        self.auditor = auditor
        self.oracle = oracle
        self.flag_threshold = flag_threshold
        self.stats = AdmissionStats()
        self._rejections: dict[int, int] = {}
        self.flagged: set[int] = set()
        # cell tenancy: geohash -> (owning node, last accepted claim time).
        # A 1 m^2 cell hosts one fixed device, so one *corroborated*
        # identity owns it per reporting round; colocated extra identities
        # (the OWN_CELL Sybil strategy) bounce off the tenancy.
        self._cell_owner: dict[str, tuple[int, float]] = {}

    def _count(self, verdict: str) -> None:
        self.stats.by_verdict[verdict] = self.stats.by_verdict.get(verdict, 0) + 1

    def _reject(self, node: int, verdict: str) -> bool:
        self._count(verdict)
        self.stats.rejected += 1
        count = self._rejections.get(node, 0) + 1
        self._rejections[node] = count
        if count >= self.flag_threshold:
            self.flagged.add(node)
        return False

    def admit(self, report: GeoReport) -> bool:
        """Return True iff *report* may enter the election table.

        Admission requires both:

        1. **corroboration** -- enough in-range witnesses observed the
           identity at the claimed spot and none contradicted it;
        2. **exclusive tenancy** -- no *other* corroborated identity
           holds the claimed cell within the current round.
        """
        if report.node in self.flagged:
            self.stats.rejected += 1
            self._count("flagged")
            return False
        result = self.auditor.audit(report, self.oracle.statements(report))
        corroborated = (
            result.supporting >= self.auditor.min_witnesses
            and result.contradicting == 0
        )
        if not corroborated:
            verdict = (
                AuditVerdict.CONTRADICTED.value
                if result.contradicting > 0
                else AuditVerdict.UNWITNESSED.value
            )
            return self._reject(report.node, verdict)

        cell = report.geohash()
        owner = self._cell_owner.get(cell)
        if (
            owner is not None
            and owner[0] != report.node
            and report.timestamp - owner[1] <= self.auditor.round_seconds
        ):
            return self._reject(report.node, AuditVerdict.DUPLICATE_CLAIM.value)
        self._cell_owner[cell] = (report.node, report.timestamp)
        self._count(AuditVerdict.VALID.value)
        self.stats.accepted += 1
        return True
