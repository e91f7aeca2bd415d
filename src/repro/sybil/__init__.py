"""Sybil attack simulation and the geographic defences against it.

The paper's security argument (section IV-A1): location reports cap the
number of Sybil identities because (1) two identities cannot claim the
same spot at the same time and (2) claims for empty positions are
recognized as fake by physically-present neighbours.

* :mod:`repro.sybil.attacker` -- attacker models that spawn cheap
  identities and fabricate location reports under several strategies;
* :mod:`repro.sybil.detection` -- the endorser-side report-admission
  filter built on :class:`repro.geo.verification.LocationAuditor`, plus a
  ground-truth witness oracle for simulations.
"""

from repro.sybil.attacker import SybilAttacker, SybilStrategy
from repro.sybil.detection import ReportAdmission, GroundTruthWitnessOracle

__all__ = [
    "SybilAttacker",
    "SybilStrategy",
    "ReportAdmission",
    "GroundTruthWitnessOracle",
]
