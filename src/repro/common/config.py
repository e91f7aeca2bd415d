"""Validated configuration for every layer of the G-PBFT reproduction.

The paper's experimental setup (section V-A) fixes a handful of
constants; they are captured here as dataclass defaults so that every
experiment, test, and example pulls them from one place:

* initial committee of **4** core nodes,
* committee bounds **min = 4**, **max = 40**,
* evaluation sweeps up to **202** participating nodes,
* era-switch duration of about **0.25 s** (section V-B),
* election threshold of **72 h** of stationarity (section III-B3).

Calibration constants (processing rate, payload sizes) are chosen so
the *shape and order of magnitude* of the paper's Table III fall out of
the simulation; the derivations are documented inline and verified by
``tests/test_analysis.py`` and the Table III benchmark.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.errors import ConfigurationError
from repro.common.eventlog import TRACE_WINDOW

if TYPE_CHECKING:
    from repro.geo.coords import Region
    from repro.geo.zones import ZoneMap
    from repro.workloads.profiles import FleetMix

SECONDS_PER_HOUR = 3600.0

#: Paper section V-B measures an era switch at roughly a quarter second.
DEFAULT_ERA_SWITCH_SECONDS = 0.25

#: Election threshold from section III-B3: a device keeping the same CSC
#: for 72 hours becomes eligible for endorsement.
DEFAULT_STATIONARY_HOURS = 72.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _require_finite(section: object, name: str) -> None:
    value = getattr(section, name)
    _require(math.isfinite(value), f"{name} must be finite, got {value}")


def _require_count(name: str, value: object, optional: bool = False) -> None:
    """Refuse a size that is not integral: a bool, a float, a str, or
    ``None`` unless the size is *optional*."""
    _require((optional and value is None) or (
        not isinstance(value, bool) and hasattr(type(value), "__index__")),
        f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the simulated message-passing substrate.

    Attributes:
        processing_rate: messages per second a node can receive and
            process -- the paper's *s* in the O(n/s) phase-latency model
            (section IV-B).  The default of 10 msg/s calibrates the
            latency experiments: an unloaded PBFT commit processes ~2
            quorums of ~(2n/3) messages per node, i.e. ~4n/(3s) seconds,
            giving ~5.4 s at the committee cap c = 40 (paper: G-PBFT
            5.64 s at 202 nodes) and ~27 s at n = 202; the constant
            per-node transaction workload of Fig. 3 then drives PBFT@202
            toward saturation and the paper's ~251 s tail.
        seed: base seed for the network's jitter/drop random stream.

    Propagation is fixed: every delivery takes 10 ms plus uniform jitter
    in [0, 5 ms] (``repro.net.latency.BASE_LATENCY_S`` and
    ``LATENCY_JITTER_S``); another model is set on the network itself.
    Nothing else is modelled: the paper's analysis attributes latency to
    receive-side processing, so senders have unlimited bandwidth, and a
    message costs exactly its payload's serialized size (ints 4 B,
    timestamps 8 B, digests 32 B, signatures 64 B) -- with those sizes a
    single PBFT request at n = 202 moves ~8.6 MB, Table III's 8571 KB.
    Message loss is a fault, set on the built network with
    ``SimulatedNetwork.set_drop_probability``.
    """

    processing_rate: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require_finite(self, "processing_rate")
        _require(self.processing_rate > 0, "processing_rate must be positive")


@dataclass(frozen=True)
class PBFTConfig:
    """Parameters of the baseline PBFT engine (Castro & Liskov).

    Attributes:
        checkpoint_interval: sequence numbers between stable checkpoints.
        watermark_window: size of the [h, H] sequence-number window.
        view_change_timeout_s: how long a backup waits for progress on a
            pre-prepared request before broadcasting a view change.
        request_retry_timeout_s: client-side retransmission timeout.
        retry_backoff_factor: multiplier applied to the retry timeout on
            every retransmission (exponential backoff).  The default of
            1.0 keeps the constant schedule bit-identically; million-
            request runs raise it so lost requests do not amplify into
            retransmit storms.
        retry_backoff_max_s: ceiling on the backed-off retry delay.
    """

    checkpoint_interval: int = 64
    watermark_window: int = 256
    view_change_timeout_s: float = 120.0
    request_retry_timeout_s: float = 600.0
    retry_backoff_factor: float = 1.0
    retry_backoff_max_s: float = float("inf")

    def __post_init__(self) -> None:
        for name in ("view_change_timeout_s", "request_retry_timeout_s",
                     "retry_backoff_factor"):
            _require_finite(self, name)
        _require(self.checkpoint_interval > 0, "checkpoint_interval must be > 0")
        _require(
            self.watermark_window >= self.checkpoint_interval,
            "watermark_window must be >= checkpoint_interval",
        )
        _require(self.view_change_timeout_s > 0, "view_change_timeout_s must be > 0")
        _require(self.request_retry_timeout_s > 0, "request_retry_timeout_s must be > 0")
        _require(self.retry_backoff_factor >= 1.0, "retry_backoff_factor must be >= 1.0")
        _require(self.retry_backoff_max_s > 0, "retry_backoff_max_s must be > 0")


@dataclass(frozen=True)
class CommitteeConfig:
    """Admittance policy stored in the genesis block (section III-C).

    Attributes:
        min_endorsers: below this the system stops committing transactions.
        max_endorsers: above this, endorser election pauses until members
            leave; era switches are also suppressed at the cap.
        blacklist: node ids forbidden from ever joining the committee.
        whitelist: node ids admitted without geographic qualification.
    """

    min_endorsers: int = 4
    max_endorsers: int = 40
    blacklist: frozenset[int] = frozenset()
    whitelist: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        _require(self.min_endorsers >= 4, "PBFT needs at least 4 replicas (3f+1, f>=1)")
        _require(
            self.max_endorsers >= self.min_endorsers,
            "max_endorsers must be >= min_endorsers",
        )
        overlap = self.blacklist & self.whitelist
        _require(not overlap, f"nodes cannot be both black- and whitelisted: {sorted(overlap)}")


@dataclass(frozen=True)
class ElectionConfig:
    """Geographic endorser-election parameters (sections III-B3, III-D).

    Attributes:
        stationary_hours: hours a device must keep the same CSC before it
            can be elected (72 h in the paper).
        report_interval_s: how often devices upload location reports.
        min_reports: Algorithm 1's threshold ``n`` -- an endorser that
            reported fewer locations than this over the audit window is
            judged invalid.
        audit_window_s: Algorithm 1's look-back period ``t``.

    CSC equality is judged at ``repro.geo.csc.CSC_PRECISION``.
    """

    stationary_hours: float = DEFAULT_STATIONARY_HOURS
    report_interval_s: float = 6 * SECONDS_PER_HOUR
    min_reports: int = 3
    audit_window_s: float = 24 * SECONDS_PER_HOUR

    def __post_init__(self) -> None:
        _require_finite(self, "report_interval_s")
        _require(self.stationary_hours > 0, "stationary_hours must be > 0")
        _require(self.report_interval_s > 0, "report_interval_s must be > 0")
        _require(self.min_reports >= 1, "min_reports must be >= 1")
        _require(self.audit_window_s > 0, "audit_window_s must be > 0")


@dataclass(frozen=True)
class EraConfig:
    """Era-switch behaviour (sections III-B4, III-E).

    Attributes:
        period_s: Algorithm 1 cadence ``T`` -- how often the committee
            audits membership and, if anything changed, switches era.
        switch_duration_s: length of the switch period during which the
            system refuses to process or commit transactions.
    """

    period_s: float = 6 * SECONDS_PER_HOUR
    switch_duration_s: float = DEFAULT_ERA_SWITCH_SECONDS

    def __post_init__(self) -> None:
        # an infinite timer re-arms at inf + inf: the clock ends at inf
        for name in ("period_s", "switch_duration_s"):
            _require_finite(self, name)
        _require(self.period_s > 0, "era period must be > 0")
        _require(self.switch_duration_s >= 0, "switch duration must be >= 0")


@dataclass(frozen=True)
class VerifyConfig:
    """Runtime invariant monitoring (``repro.verify``), opt-in.

    Attributes:
        monitors: when True, every :class:`~repro.pbft.cluster.PBFTCluster`
            and :class:`~repro.core.deployment.GPBFTDeployment` built from
            this config attaches the standard safety monitors (prefix
            consistency, quorum certificates, view-change monotonicity,
            era-switch atomicity, Sybil-cap accounting) to its event log
            and raises :class:`~repro.verify.invariants.InvariantViolation`
            the moment one is breached.  Off by default: the monitored
            path costs extra work per protocol event, and perf sweeps
            must measure the unmonitored system.
    """

    monitors: bool = False


@dataclass(frozen=True)
class GPBFTConfig:
    """Top-level configuration bundling every subsystem's parameters."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    pbft: PBFTConfig = field(default_factory=PBFTConfig)
    committee: CommitteeConfig = field(default_factory=CommitteeConfig)
    election: ElectionConfig = field(default_factory=ElectionConfig)
    era: EraConfig = field(default_factory=EraConfig)
    verify: VerifyConfig = field(default_factory=VerifyConfig)

    def replace(self, **overrides: object) -> "GPBFTConfig":
        """Return a copy with top-level sections replaced.

        Example::

            cfg = GPBFTConfig().replace(committee=CommitteeConfig(max_endorsers=20))
        """
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]


# --------------------------------------------------------------------------
# Topology: the single entry point for constructing simulations.
# --------------------------------------------------------------------------

#: Node-id stride between zones in a hierarchical topology.  Global node
#: ids are ``zone_index * ZONE_ID_STRIDE + local_index``, which keeps ids
#: unique across zones while leaving room for sybils appended per zone.
ZONE_ID_STRIDE = 10_000

@dataclass(frozen=True, slots=True)
class ZoneSpec:
    """Shape of one zone in a :class:`TopologySpec`.

    Attributes:
        name: unique short label for the zone (``"z0"``, ...).
        n_nodes: number of IoT nodes placed in the zone.
        n_endorsers: committee size; ``None`` defers to the committee
            policy cap (``min(n_nodes, max_endorsers)``).
        region: bounding box the zone's nodes are sampled from; ``None``
            falls back to the deployment default region.
        id_base: first global node id of the zone; node ids are
            ``id_base .. id_base + n_nodes - 1``.
        profiles: hardware composition of the zone's fleet
            (:class:`repro.workloads.profiles.FleetMix`); ``None``
            (default) keeps the uniform fleet, bit-identical to the
            unprofiled simulation.
        workload: how the zone's light clients are driven, read by the
            engine's ``agg`` point (no host reads it).  ``"objects"``
            (default) keeps one arrival process per client object;
            ``"aggregate"`` replaces them with one per-zone
            :class:`repro.workloads.streams.AggregatedArrivals` stream
            over a small pool of virtual client identities, which is
            what makes million-request city-scale runs tractable.
    """

    name: str
    n_nodes: int
    n_endorsers: int | None = None
    region: "Region | None" = None
    id_base: int = 0
    profiles: "FleetMix | None" = None
    workload: str = "objects"

    def __post_init__(self) -> None:
        _require(bool(self.name), "zone name must be non-empty")
        for name in ("n_nodes", "n_endorsers", "id_base"):
            _require_count(name, getattr(self, name), optional=name == "n_endorsers")
        _require(self.n_nodes >= 1, "zone needs at least one node")
        _require(self.n_endorsers is None or self.n_endorsers >= 1,
                 "n_endorsers must be >= 1 when given")
        _require(self.id_base >= 0, "id_base must be >= 0")
        _require(self.workload in ("objects", "aggregate"),
                 f"unknown workload {self.workload!r}")
        if self.profiles is not None:
            self.profiles.validate_for(self.n_nodes)


@dataclass(frozen=True, slots=True)
class TopologySpec:
    """Declarative description of a whole simulation topology.

    One spec covers all three host shapes and is the only way to build
    any of them:

    * ``protocol="pbft"`` -- a flat replica cluster
      (:meth:`cluster`),
    * ``protocol="gpbft"`` with one zone -- the paper's single-committee
      deployment (:meth:`single`),
    * ``protocol="gpbft"`` with several zones -- the hierarchical
      deployment with a top-level committee ordering inter-zone traffic
      (:meth:`zoned`).

    Call :meth:`build` to construct the matching host object.
    """

    protocol: str = "gpbft"
    zones: tuple[ZoneSpec, ...] = ()
    seed: int = 0
    config: GPBFTConfig | None = None
    mode: str = "per_tx"
    start_reports: bool = True
    block_interval_s: float = 5.0
    sybil_protection: bool = False
    witness_range_m: float = 150.0
    n_replicas: int = 4
    n_clients: int = 1
    #: bound on every host event log (ring of newest events, exact
    #: per-kind counts); ``None`` keeps the unbounded append-only log.
    #: At least ``TRACE_WINDOW``, so a post-mortem's window is whole.
    event_capacity: int | None = None

    def __post_init__(self) -> None:
        _require(self.protocol in ("pbft", "gpbft"),
                 f"unknown protocol {self.protocol!r}")
        _require(self.mode in ("per_tx", "block"),
                 f"unknown mode {self.mode!r}")
        for name in ("n_replicas", "n_clients", "seed", "event_capacity"):
            _require_count(name, getattr(self, name), optional=name == "event_capacity")
        for name in ("block_interval_s", "witness_range_m"):
            _require_finite(self, name)
        _require(self.block_interval_s > 0.0, "block_interval_s must be > 0")
        _require(self.witness_range_m > 0.0, "witness_range_m must be > 0")
        _require(self.event_capacity is None
                 or self.event_capacity >= TRACE_WINDOW,
                 f"event_capacity must be >= {TRACE_WINDOW} when given")
        if self.protocol == "pbft":
            _require(not self.zones, "pbft topologies take no zones")
            _require(self.n_replicas >= 1, "n_replicas must be >= 1")
            _require(self.n_clients >= 1, "n_clients must be >= 1")
            return
        _require(len(self.zones) >= 1, "gpbft topologies need >= 1 zone")
        names = [zone.name for zone in self.zones]
        _require(len(set(names)) == len(names), "zone names must be unique")
        spans = sorted((zone.id_base, zone.id_base + zone.n_nodes)
                       for zone in self.zones)
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            _require(start >= prev_end, "zone id ranges must not overlap")
        if len(self.zones) > 1:
            _require(all(zone.region is not None for zone in self.zones),
                     "multi-zone topologies need a region per zone")

    # -- builders ----------------------------------------------------------

    @classmethod
    def single(cls, n_nodes: int, n_endorsers: int | None = None, *,
               config: GPBFTConfig | None = None,
               region: "Region | None" = None,
               mode: str = "per_tx",
               seed: int = 0, start_reports: bool = True,
               block_interval_s: float = 5.0,
               sybil_protection: bool = False,
               witness_range_m: float = 150.0,
               profiles: "FleetMix | None" = None) -> "TopologySpec":
        """The paper's one-committee deployment as a degenerate topology."""
        zone = ZoneSpec(name="z0", n_nodes=n_nodes, n_endorsers=n_endorsers,
                        region=region, profiles=profiles)
        return cls(protocol="gpbft", zones=(zone,), seed=seed, config=config,
                   mode=mode, start_reports=start_reports,
                   block_interval_s=block_interval_s,
                   sybil_protection=sybil_protection,
                   witness_range_m=witness_range_m)

    @classmethod
    def cluster(cls, n_replicas: int = 4, n_clients: int = 1, *,
                config: GPBFTConfig | None = None,
                event_capacity: int | None = None) -> "TopologySpec":
        """A flat PBFT replica cluster (no geography, no zones)."""
        return cls(protocol="pbft", zones=(), n_replicas=n_replicas,
                   n_clients=n_clients, config=config,
                   event_capacity=event_capacity)

    @classmethod
    def zoned(cls, n_zones: int, nodes_per_zone: int, *,
              endorsers_per_zone: int | None = None,
              config: GPBFTConfig | None = None, seed: int = 0,
              start_reports: bool = True,
              workload: str = "objects",
              event_capacity: int | None = None) -> "TopologySpec":
        """A hierarchical topology: *n_zones* equal cells in a row.

        The deployment area, a strip around the paper's Hong Kong site
        sized to the zone count, is split into a ``1 x n_zones`` grid;
        zone *i* gets node ids starting at ``i * ZONE_ID_STRIDE``.
        """
        _require_count("n_zones", n_zones)
        _require(n_zones >= 2, "zoned topologies need >= 2 zones")
        from repro.geo.coords import LatLng, Region
        from repro.geo.zones import ZoneMap
        region = Region.around(LatLng(22.3193, 114.1694),
                               half_side_m=600.0 * n_zones)
        grid = ZoneMap.grid(region, rows=1, cols=n_zones)
        zones = tuple(
            ZoneSpec(name=cell.name, n_nodes=nodes_per_zone,
                     n_endorsers=endorsers_per_zone, region=cell.region,
                     id_base=cell.index * ZONE_ID_STRIDE, workload=workload)
            for cell in grid
        )
        return cls(protocol="gpbft", zones=zones, seed=seed, config=config,
                   start_reports=start_reports, event_capacity=event_capacity)

    # -- derived views -----------------------------------------------------

    @property
    def n_zones(self) -> int:
        """Number of zones (0 for pbft topologies)."""
        return len(self.zones)

    def zone_seed(self, index: int) -> int:
        """Deterministic RNG seed for zone *index*.

        Single-zone topologies reuse the topology seed unchanged;
        multi-zone topologies decorrelate zones with a fixed affine
        derivation.
        """
        _require(0 <= index < len(self.zones), f"no zone {index}")
        if len(self.zones) == 1:
            return self.seed
        return self.seed + 1009 * (index + 1)

    def zone_topology(self, index: int) -> "TopologySpec":
        """The single-zone topology describing zone *index* alone."""
        _require(self.protocol == "gpbft", "only gpbft topologies have zones")
        _require(0 <= index < len(self.zones), f"no zone {index}")
        return dataclasses.replace(self, zones=(self.zones[index],),
                                   seed=self.zone_seed(index))

    def deployment_zone(self) -> ZoneSpec:
        """The sole zone of a single-zone gpbft topology."""
        _require(self.protocol == "gpbft",
                 "deployment_zone() applies to gpbft topologies")
        _require(len(self.zones) == 1,
                 "deployment_zone() applies to single-zone topologies")
        return self.zones[0]

    def cluster_shape(self) -> tuple[int, int, GPBFTConfig | None]:
        """``(n_replicas, n_clients, config)`` of a pbft topology."""
        _require(self.protocol == "pbft",
                 "cluster_shape() applies to pbft topologies")
        return self.n_replicas, self.n_clients, self.config

    def zone_map(self) -> "ZoneMap":
        """The geometric :class:`repro.geo.zones.ZoneMap` of this spec."""
        from repro.geo.zones import (ZONE_GEOHASH_PRECISION, Zone, ZoneMap)
        from repro.geo.geohash import geohash_encode
        cells = []
        for index, zone in enumerate(self.zones):
            _require(zone.region is not None,
                     f"zone {zone.name!r} has no region; zone_map() needs "
                     "explicit geometry")
            assert zone.region is not None
            cells.append(Zone(index=index, name=zone.name, region=zone.region,
                              geohash=geohash_encode(
                                  zone.region.center,
                                  ZONE_GEOHASH_PRECISION)))
        return ZoneMap(tuple(cells))

    def zone_of_node(self, node_id: int) -> int:
        """Zone index owning global *node_id* (by id range)."""
        for index, zone in enumerate(self.zones):
            if zone.id_base <= node_id < zone.id_base + zone.n_nodes:
                return index
        raise ConfigurationError(
            f"node {node_id} belongs to no zone in this topology")

    # -- construction ------------------------------------------------------

    def build(self, sim: Any = None, obs: Any = None,
              faults: dict[int, Any] | None = None) -> Any:
        """Construct the host this spec describes.

        Returns a ``PBFTCluster``, ``GPBFTDeployment`` (one zone) or
        ``HierarchicalDeployment`` (several zones); all three expose the
        common host surface (``sim``/``network``/``events``/``nodes`` or
        ``replicas``/``run``/...) the explorer and experiments drive.
        """
        if self.protocol == "pbft":
            from repro.pbft.cluster import PBFTCluster
            return PBFTCluster(self, faults=faults, sim=sim, obs=obs)
        if len(self.zones) == 1:
            from repro.core.deployment import GPBFTDeployment
            return GPBFTDeployment(self, sim=sim, faults=faults, obs=obs)
        from repro.core.hierarchy import HierarchicalDeployment
        return HierarchicalDeployment(self, sim=sim, obs=obs, faults=faults)
