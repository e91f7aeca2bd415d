"""Foundational types shared by every subsystem of the G-PBFT reproduction.

This package deliberately has no dependencies on other ``repro``
subpackages so it can sit at the bottom of the import graph.  It provides:

* :mod:`repro.common.errors` -- the exception hierarchy,
* :mod:`repro.common.ids` -- strongly-typed identifiers (nodes, eras, views),
* :mod:`repro.common.config` -- validated configuration dataclasses and the
  calibration constants used to shape-match the paper's numbers,
* :mod:`repro.common.rng` -- deterministic, forkable random streams,
* :mod:`repro.common.eventlog` -- a lightweight structured event recorder,
* :mod:`repro.common.wire_layout` -- the table of wire-message layouts.
"""

from repro.common.errors import (
    ReproError,
    ConfigurationError,
    CryptoError,
    SignatureError,
    GeoError,
    NetworkError,
    ChainError,
    ValidationError,
    ConsensusError,
    EraSwitchError,
    MembershipError,
)
from repro.common.ids import NodeId, Era, View, SeqNum, RequestId
from repro.common.config import (
    NetworkConfig,
    PBFTConfig,
    CommitteeConfig,
    ElectionConfig,
    EraConfig,
    IncentiveConfig,
    GPBFTConfig,
    SECONDS_PER_HOUR,
)
from repro.common.rng import DeterministicRNG
from repro.common.eventlog import Event, EventLog

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CryptoError",
    "SignatureError",
    "GeoError",
    "NetworkError",
    "ChainError",
    "ValidationError",
    "ConsensusError",
    "EraSwitchError",
    "MembershipError",
    "NodeId",
    "Era",
    "View",
    "SeqNum",
    "RequestId",
    "NetworkConfig",
    "PBFTConfig",
    "CommitteeConfig",
    "ElectionConfig",
    "EraConfig",
    "IncentiveConfig",
    "GPBFTConfig",
    "SECONDS_PER_HOUR",
    "DeterministicRNG",
    "Event",
    "EventLog",
]
