"""Foundational types shared by every subsystem of the G-PBFT reproduction.

This package deliberately has no dependencies on other ``repro``
subpackages so it can sit at the bottom of the import graph.  It provides:

* :mod:`repro.common.errors` -- the exception hierarchy,
* :mod:`repro.common.quorum` -- quorum thresholds and primary rotation,
* :mod:`repro.common.config` -- validated configuration dataclasses and the
  calibration constants used to shape-match the paper's numbers,
* :mod:`repro.common.rng` -- deterministic, forkable random streams,
* :mod:`repro.common.eventlog` -- a lightweight structured event recorder,
* :mod:`repro.common.wire_layout` -- the table of wire-message layouts.
"""
