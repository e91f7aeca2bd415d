"""Neighbour-witness verification of location claims.

The paper's Sybil argument (sections III-A, IV-A1) rests on two checks
that nodes in a small physical area can perform on each other:

1. **Exclusivity** -- "different nodes cannot report the same geographic
   information at the same time": two devices claiming the same CSC cell
   in the same reporting round are physically impossible, so at least one
   claim is fake.
2. **Corroboration** -- "if there is no device in a specific position and
   geographic information reporting, it can be recognized as fake": a
   claim nobody nearby can witness is rejected.

:class:`LocationAuditor` implements both.  Witnesses are devices within
radio range of the claimed position; each files a
:class:`WitnessStatement` saying whether it actually observed the subject
there.  A claim passes when it is exclusive and at least
``min_witnesses`` in-range witnesses corroborate it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import GeoError
from repro.geo.coords import LatLng, haversine_m
from repro.geo.reports import GeoReport


class AuditVerdict(enum.Enum):
    """Outcome of auditing one location claim."""

    VALID = "valid"
    DUPLICATE_CLAIM = "duplicate_claim"
    UNWITNESSED = "unwitnessed"
    CONTRADICTED = "contradicted"


@dataclass(frozen=True, slots=True)
class WitnessStatement:
    """One neighbour's testimony about a claim.

    Attributes:
        witness: id of the testifying device.
        subject: id of the device whose claim is being audited.
        observed: True if the witness physically detected the subject at
            the claimed position, False if it checked and found nothing.
        at: simulated time of the observation.
        witness_position: where the witness itself was standing.
    """

    witness: int
    subject: int
    observed: bool
    at: float
    witness_position: LatLng


@dataclass
class AuditResult:
    """Full audit outcome with the evidence that produced it."""

    report: GeoReport
    verdict: AuditVerdict
    supporting: int = 0
    contradicting: int = 0
    conflicting_nodes: tuple[int, ...] = field(default_factory=tuple)


class LocationAuditor:
    """Audits location claims using exclusivity and witness corroboration.

    Args:
        witness_range_m: how far a device can physically observe another
            (radio/sensor range).  Statements from witnesses standing
            outside this range of the claim are ignored as incompetent.
        min_witnesses: corroborating statements needed to accept a claim.
        round_seconds: two claims of the same CSC cell whose timestamps
            fall within one round are "at the same time" for exclusivity.
    """

    def __init__(
        self,
        witness_range_m: float = 150.0,
        min_witnesses: int = 1,
        round_seconds: float = 60.0,
    ) -> None:
        if witness_range_m <= 0:
            raise GeoError("witness_range_m must be positive")
        if min_witnesses < 0:
            raise GeoError("min_witnesses must be >= 0")
        if round_seconds <= 0:
            raise GeoError("round_seconds must be positive")
        self.witness_range_m = witness_range_m
        self.min_witnesses = min_witnesses
        self.round_seconds = round_seconds
        # cell geohash -> list of (node, timestamp) claims seen so far
        self._claims: dict[str, list[tuple[int, float]]] = {}

    def check_exclusivity(self, report: GeoReport) -> tuple[int, ...]:
        """Register *report*'s cell claim and return conflicting node ids.

        A conflict is another node claiming the same cell within
        ``round_seconds``.  Repeat claims by the same node never conflict
        with themselves.
        """
        cell = report.geohash()
        entries = self._claims.setdefault(cell, [])
        conflicts = tuple(
            node
            for node, ts in entries
            if node != report.node and abs(ts - report.timestamp) <= self.round_seconds
        )
        entries.append((report.node, report.timestamp))
        return conflicts

    def audit(
        self,
        report: GeoReport,
        statements: list[WitnessStatement],
    ) -> AuditResult:
        """Audit *report* against neighbour *statements*.

        Statement filtering: only statements about this subject, taken
        within one round of the claim, from witnesses physically within
        ``witness_range_m`` of the claimed position, are competent.

        Verdict order (strongest failure wins):
        duplicate claim > contradicted > unwitnessed > valid.
        """
        conflicts = self.check_exclusivity(report)

        supporting = 0
        contradicting = 0
        for st in statements:
            if st.subject != report.node:
                continue
            if abs(st.at - report.timestamp) > self.round_seconds:
                continue
            if haversine_m(st.witness_position, report.position) > self.witness_range_m:
                continue
            if st.observed:
                supporting += 1
            else:
                contradicting += 1

        if conflicts:
            verdict = AuditVerdict.DUPLICATE_CLAIM
        elif contradicting > supporting:
            verdict = AuditVerdict.CONTRADICTED
        elif supporting < self.min_witnesses:
            verdict = AuditVerdict.UNWITNESSED
        else:
            verdict = AuditVerdict.VALID
        return AuditResult(
            report=report,
            verdict=verdict,
            supporting=supporting,
            contradicting=contradicting,
            conflicting_nodes=conflicts,
        )


def honest_statements(
    report: GeoReport,
    device_positions: dict[int, LatLng],
    witness_range_m: float,
    truthful_presence: bool,
) -> list[WitnessStatement]:
    """Generate the statements honest neighbours would file about *report*.

    Every device within *witness_range_m* of the claimed position files a
    statement; it observes the subject iff *truthful_presence* (i.e. the
    subject really is where it claims).  Used by tests, the Sybil attack
    example, and the detection benchmarks.
    """
    statements = []
    for node, pos in device_positions.items():
        if node == report.node:
            continue
        if haversine_m(pos, report.position) <= witness_range_m:
            statements.append(
                WitnessStatement(
                    witness=node,
                    subject=report.node,
                    observed=truthful_presence,
                    at=report.timestamp,
                    witness_position=pos,
                )
            )
    return statements
