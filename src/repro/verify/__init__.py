"""Runtime verification for the G-PBFT reproduction.

Three cooperating pieces:

* :mod:`repro.verify.invariants` -- pluggable safety monitors that
  subscribe to a cluster/deployment event stream and raise structured
  :class:`~repro.verify.invariants.InvariantViolation` errors;
* :mod:`repro.verify.explorer` -- a seeded schedule explorer that fans
  perturbed runs across the experiment engine's process pool, records
  failing schedules as JSON artifacts and shrinks them to minimal
  repros;
* :mod:`repro.verify.replay` -- deterministic re-execution of saved
  artifacts with message tracing, fingerprint-checked against the
  original run.

See ``docs/verification.md`` for the catalog and workflows.
"""

from repro.verify.invariants import InvariantViolation, MonitorHarness

__all__ = [
    "InvariantViolation",
    "MonitorHarness",
]
