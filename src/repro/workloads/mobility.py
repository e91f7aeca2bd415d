"""The random-waypoint mobility model and the driver that applies it.

Fixed devices stay put (no driver moves them); mobile devices follow a
random-waypoint model: pick a destination in the region, walk there at
a sampled speed, pause, repeat.  Movement is what
makes Algorithm 1 evict endorsers and refuse mobile candidates, so the
model directly exercises the paper's election machinery.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.geo.coords import LatLng, Region
from repro.net.simulator import Simulator


class RandomWaypointModel:
    """The classic random-waypoint model inside a bounded region.

    Args:
        region: movement area (positions clamp to it).
        speed_min_mps: lower bound of the per-leg speed draw.
        speed_max_mps: upper bound of the per-leg speed draw.
        pause_s: dwell time at each waypoint.
    """

    def __init__(
        self,
        region: Region,
        speed_min_mps: float = 1.0,
        speed_max_mps: float = 10.0,
        pause_s: float = 30.0,
    ) -> None:
        if speed_min_mps <= 0 or speed_max_mps < speed_min_mps:
            raise ConfigurationError("need 0 < speed_min <= speed_max")
        if pause_s < 0:
            raise ConfigurationError("pause must be >= 0")
        self.region = region
        self.speed_min = speed_min_mps
        self.speed_max = speed_max_mps
        self.pause_s = pause_s
        self._target: LatLng | None = None
        self._pause_left = 0.0

    def step(self, current: LatLng, dt: float, rng: DeterministicRNG) -> LatLng:
        """Advance the position by *dt* seconds."""
        remaining = dt
        pos = current
        while remaining > 0:
            if self._pause_left > 0:
                used = min(self._pause_left, remaining)
                self._pause_left -= used
                remaining -= used
                continue
            if self._target is None:
                self._target = self.region.sample(rng)
            dist = pos.distance_to(self._target)
            speed = rng.uniform(self.speed_min, self.speed_max)
            reachable = speed * remaining
            if reachable >= dist:
                pos = self._target
                self._target = None
                remaining -= dist / speed if speed > 0 else remaining
                self._pause_left = self.pause_s
            else:
                frac = reachable / dist if dist > 0 else 1.0
                pos = LatLng(
                    pos.lat + frac * (self._target.lat - pos.lat),
                    pos.lng + frac * (self._target.lng - pos.lng),
                )
                remaining = 0.0
        return pos


class MobilityDriver:
    """Applies a mobility model to one node on a fixed cadence.

    Args:
        node: any object with ``position`` and ``move_to(LatLng)``
            (a :class:`repro.core.node.GPBFTNode` in practice).
        model: the waypoint model to advance.
        sim: shared simulator.
        rng: deterministic stream for the model's draws.
        interval_s: how often positions are updated.
    """

    def __init__(
        self,
        node,
        model: RandomWaypointModel,
        sim: Simulator,
        rng: DeterministicRNG,
        interval_s: float = 60.0,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError("interval must be positive")
        self.node = node
        self.model = model
        self.sim = sim
        self.rng = rng
        self.interval_s = interval_s
        self._timer = None
        self.moves = 0

    def start(self) -> None:
        """Begin driving the node."""
        if self._timer is None:
            self._timer = self.sim.schedule(self.interval_s, self._tick)

    def stop(self) -> None:
        """Stop driving (the node keeps its final position)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        new_pos = self.model.step(self.node.position, self.interval_s, self.rng)
        if (new_pos.lat, new_pos.lng) != (self.node.position.lat, self.node.position.lng):
            self.node.move_to(new_pos)
            self.moves += 1
        self._timer = self.sim.schedule(self.interval_s, self._tick)
