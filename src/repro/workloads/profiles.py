"""Heterogeneous device hardware profiles.

The paper evaluates a uniform endorser population, but real IoT fleets
mix constrained sensor boards, mid-tier gateways, and server-class
infrastructure -- and device capability dominates PBFT latency and
failure behaviour at the edge (arXiv:2104.05026).  This module gives
each node a typed hardware profile with three effects:

* **CPU class** -- scales the per-message processing rate of the
  receive-side queue in :class:`repro.net.network.SimulatedNetwork`
  (a ``cpu_scale`` of 0.25 means the device processes messages at a
  quarter of the configured ``processing_rate``);
* **memory cap** -- bounds the node's mempool and pre-activation
  consensus-log buffers in :class:`repro.core.node.GPBFTNode`;
* **battery / duty cycle** -- deterministic availability windows that
  take the node offline and online on a fixed cadence, like scheduled
  crash/recover faults.

Profiles enter a simulation through
:attr:`repro.common.config.ZoneSpec.profiles` (a :class:`FleetMix`),
so mixed fleets work in single, cluster, and zoned topologies.  The
degenerate uniform profile (:data:`INFRA_CLASS`, or no profiles at
all) is bit-identical to the unprofiled simulation: no extra RNG
draws, no changed float arithmetic, no extra scheduled events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import SimulatedNetwork


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True, slots=True)
class DutyCycle:
    """Deterministic periodic availability windows.

    The device is **on** during ``[phase_s + k*period_s,
    phase_s + k*period_s + fraction*period_s)`` for every integer *k*
    (the pattern is fully periodic, so times before ``phase_s`` wrap),
    and **off** for the rest of each period.

    Attributes:
        fraction: on-time fraction of each period, in (0, 1].
        period_s: cycle length in seconds.
        phase_s: offset of the cycle start, in [0, period_s).
    """

    fraction: float
    period_s: float
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        _require(0.0 < self.fraction <= 1.0, "duty fraction must be in (0, 1]")
        _require(self.period_s > 0.0, "duty period must be > 0")
        _require(0.0 <= self.phase_s < self.period_s,
                 "duty phase must lie in [0, period)")

    @property
    def on_len_s(self) -> float:
        """Length of each on-window in seconds."""
        return self.fraction * self.period_s

    def is_on(self, t: float) -> bool:
        """True iff the device is awake at time *t*."""
        if self.fraction >= 1.0:
            return True
        pos = (t - self.phase_s) % self.period_s
        return pos < self.on_len_s

    def windows(self, horizon_s: float) -> list[tuple[float, float]]:
        """On-windows clipped to ``[0, horizon_s]``, in time order."""
        _require(horizon_s >= 0.0, "horizon must be >= 0")
        if self.fraction >= 1.0:
            return [(0.0, horizon_s)] if horizon_s > 0 else []
        out: list[tuple[float, float]] = []
        k_min = math.floor((0.0 - self.phase_s) / self.period_s) - 1
        k_max = math.floor((horizon_s - self.phase_s) / self.period_s) + 1
        for k in range(k_min, k_max + 1):
            start = self.phase_s + k * self.period_s
            end = start + self.on_len_s
            lo, hi = max(start, 0.0), min(end, horizon_s)
            if hi > lo:
                out.append((lo, hi))
        return out

    def on_time(self, horizon_s: float) -> float:
        """Total awake seconds over ``[0, horizon_s]``."""
        return sum(hi - lo for lo, hi in self.windows(horizon_s))

    def next_boundary(self, t: float) -> float:
        """The first on/off transition time strictly after *t*."""
        _require(self.fraction < 1.0, "an always-on cycle has no boundaries")
        pos = (t - self.phase_s) % self.period_s
        if pos < self.on_len_s:
            nxt = t + (self.on_len_s - pos)
        else:
            nxt = t + (self.period_s - pos)
        if nxt <= t:  # float-rounding guard: never re-fire at the same time
            nxt = t + self.period_s
        return nxt


@dataclass(frozen=True, slots=True)
class DeviceProfile:
    """One hardware tier: CPU class, memory caps, battery duty cycle.

    Attributes:
        name: short tier label (``"sensor"``, ``"gateway"``, ...).
        cpu_scale: multiplier on the network's ``processing_rate`` for
            this device; 1.0 is the uniform (server-class) baseline.
        mempool_capacity: mempool size cap, or ``None`` for the default.
        log_bound: pre-activation consensus-buffer cap, or ``None`` for
            the default.
        duty_fraction: awake fraction of each duty period, in (0, 1];
            1.0 (default) means always on.
        duty_period_s: duty-cycle period in seconds.
    """

    name: str
    cpu_scale: float = 1.0
    mempool_capacity: int | None = None
    log_bound: int | None = None
    duty_fraction: float = 1.0
    duty_period_s: float = 3600.0

    def __post_init__(self) -> None:
        _require(bool(self.name), "profile name must be non-empty")
        _require(0.0 < self.cpu_scale <= 64.0,
                 "cpu_scale must be in (0, 64]")
        _require(self.mempool_capacity is None or self.mempool_capacity >= 1,
                 "mempool_capacity must be >= 1 when given")
        _require(self.log_bound is None or self.log_bound >= 1,
                 "log_bound must be >= 1 when given")
        _require(0.0 < self.duty_fraction <= 1.0,
                 "duty_fraction must be in (0, 1]")
        _require(self.duty_period_s > 0.0, "duty_period_s must be > 0")

    @property
    def is_uniform(self) -> bool:
        """True iff this profile changes nothing about the simulation."""
        return (self.cpu_scale == 1.0
                and self.mempool_capacity is None
                and self.log_bound is None and self.duty_fraction >= 1.0)

    def processing_interval_s(self, base_rate: float) -> float:
        """Seconds this device needs per received message.

        Args:
            base_rate: the network's uniform ``processing_rate`` (msg/s).
        """
        _require(base_rate > 0.0, "base_rate must be > 0")
        return 1.0 / (base_rate * self.cpu_scale)

    def duty_cycle(self, phase_s: float = 0.0) -> DutyCycle | None:
        """The availability windows, or ``None`` for an always-on tier."""
        if self.duty_fraction >= 1.0:
            return None
        return DutyCycle(self.duty_fraction, self.duty_period_s, phase_s)


#: Constrained sensor board: quarter-rate CPU, small buffers, sleeps
#: 10% of every hour to stretch its battery.
SENSOR_CLASS = DeviceProfile(
    "sensor", cpu_scale=0.25, mempool_capacity=256, log_bound=64,
    duty_fraction=0.9, duty_period_s=3600.0)

#: Mid-tier gateway: half-rate CPU, moderate buffers, mains powered.
GATEWAY_CLASS = DeviceProfile(
    "gateway", cpu_scale=0.5, mempool_capacity=4096, log_bound=256)

#: Server-class infrastructure: the uniform baseline tier.
INFRA_CLASS = DeviceProfile("infra")

#: Canonical tiers by name.
PROFILE_TIERS = {
    SENSOR_CLASS.name: SENSOR_CLASS,
    GATEWAY_CLASS.name: GATEWAY_CLASS,
    INFRA_CLASS.name: INFRA_CLASS,
}


@dataclass(frozen=True, slots=True)
class FleetMix:
    """A fleet composition: how many nodes of each profile tier.

    Profiles are assigned to node ids in ascending id order, tier by
    tier; ids beyond the listed counts fall back to
    :data:`INFRA_CLASS`.  Because the genesis committee is always the
    lowest-id block of a zone, listing a constrained tier first puts it
    on the endorsers -- the composition experiments rely on that.

    Attributes:
        tiers: ``(profile, count)`` pairs, assigned in order.
    """

    tiers: tuple[tuple[DeviceProfile, int], ...] = ()

    def __post_init__(self) -> None:
        for profile, count in self.tiers:
            _require(isinstance(profile, DeviceProfile),
                     "tiers must pair DeviceProfile with a count")
            _require(count >= 1, "tier counts must be >= 1")

    @property
    def total(self) -> int:
        """Number of nodes explicitly covered by the tier counts."""
        return sum(count for _, count in self.tiers)

    @property
    def is_uniform(self) -> bool:
        """True iff every tier (and the implicit remainder) is uniform."""
        return all(profile.is_uniform for profile, _ in self.tiers)

    def validate_for(self, n_nodes: int) -> None:
        """Raise unless the mix fits a fleet of *n_nodes* nodes."""
        _require(self.total <= n_nodes,
                 f"fleet mix covers {self.total} nodes but the zone has "
                 f"only {n_nodes}")

    def assign(self, node_ids: Iterable[int]) -> dict[int, DeviceProfile]:
        """Map every id to its profile (ascending id order, tier order)."""
        ids = sorted(node_ids)
        self.validate_for(len(ids))
        out: dict[int, DeviceProfile] = {}
        cursor = 0
        for profile, count in self.tiers:
            for node_id in ids[cursor:cursor + count]:
                out[node_id] = profile
            cursor += count
        for node_id in ids[cursor:]:
            out[node_id] = INFRA_CLASS
        return out

    @classmethod
    def of(cls, *tiers: tuple[DeviceProfile, int]) -> "FleetMix":
        """Build a mix from ``(profile, count)`` arguments."""
        return cls(tuple(tiers))


class AvailabilityDriver:
    """Applies a :class:`DutyCycle` to one node on the simulator.

    While the cycle is in an off-window the node is taken offline on
    the network (traffic to and from it is silently dropped, exactly
    like a scheduled crash); at the next on-window boundary it comes
    back.  All toggle times are pure arithmetic on the cycle -- no RNG
    draws -- so attaching a driver never perturbs other streams.

    Args:
        network: the :class:`~repro.net.network.SimulatedNetwork` the
            node is registered on.
        node_id: the driven node.
        cycle: its availability windows.
    """

    def __init__(self, network: "SimulatedNetwork", node_id: int,
                 cycle: DutyCycle) -> None:
        self.network = network
        self.node_id = node_id
        self.cycle = cycle
        self.toggles = 0
        self._on = True

    def start(self) -> None:
        """Apply the current window state and arm the boundary timer."""
        sim = self.network.sim
        self._on = self.cycle.is_on(sim.now)
        if not self._on:
            self.network.set_offline(self.node_id, True)
        sim.schedule_at(self.cycle.next_boundary(sim.now), self._flip)

    def _flip(self) -> None:
        sim = self.network.sim
        self._on = not self._on
        self.network.set_offline(self.node_id, not self._on)
        self.toggles += 1
        sim.schedule_at(self.cycle.next_boundary(sim.now), self._flip)


def schedule_blackout(network: "SimulatedNetwork", node_ids: Iterable[int],
                      start_s: float, end_s: float) -> None:
    """Schedule a one-shot offline window for *node_ids*.

    Every listed node goes offline at *start_s* and returns at *end_s*
    -- the "availability windows slam shut" event of the regional
    blackout scenario pack.
    """
    _require(end_s > start_s >= 0.0, "need 0 <= start < end")
    ids = sorted(node_ids)

    def _shut() -> None:
        for node_id in ids:
            network.set_offline(node_id, True)

    def _restore() -> None:
        for node_id in ids:
            network.set_offline(node_id, False)

    network.sim.schedule_at(start_s, _shut)
    network.sim.schedule_at(end_s, _restore)
