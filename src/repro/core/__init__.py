"""G-PBFT: the paper's primary contribution.

Builds the geographic, era-switched consensus protocol on top of the
baseline PBFT engine (:mod:`repro.pbft`), the blockchain substrate
(:mod:`repro.chain`), and the geographic substrate (:mod:`repro.geo`):

* :mod:`repro.core.messages` -- G-PBFT wire payloads and PBFT operations
  (geo reports, committee announcements, era-switch ops, block proposals);
* :mod:`repro.core.election` -- the election table of CSCs, timestamps,
  and geographic timers (paper Table II);
* :mod:`repro.core.authentication` -- Algorithm 1: geographic
  re-authentication of endorsers and qualification of candidates;
* :mod:`repro.core.committee` -- committee management under the genesis
  admittance policy (min/max/black/white lists);
* :mod:`repro.core.incentive` -- timer-weighted block-producer selection
  and the 70/30 fee split;
* :mod:`repro.core.era` -- era bookkeeping and switch records;
* :mod:`repro.core.node` -- the unified G-PBFT node (IoT device +
  potential endorser);
* :mod:`repro.core.deployment` -- harness wiring a full G-PBFT network.
"""

from repro.core.deployment import GPBFTDeployment

__all__ = [
    "GPBFTDeployment",
]
