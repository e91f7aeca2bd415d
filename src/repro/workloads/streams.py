"""Aggregated per-zone arrival streams.

City-scale runs (section V of the paper scaled to a metropolitan day)
cannot afford one :class:`~repro.workloads.arrivals.ArrivalProcess`
object -- and one live timer -- per light client: a million-request day
across thousands of devices spends most of its wall clock maintaining
idle per-client timers.  This module replaces a zone's client
population with **one** :class:`AggregatedArrivals` stream: a
non-homogeneous Poisson stream shaped by a :class:`RateProfile`
(constant superposition, diurnal wave, flash-crowd burst), thinned with
the standard Lewis-Shedler acceptance draw.  One candidate timer exists
at any moment regardless of how many clients the stream represents, and
accepted submissions rotate round-robin through caller-supplied
zero-argument callbacks, so the stream slots into any
``PBFTClient.submit``-compatible path.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Sequence

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.net.simulator import ScheduledEvent, Simulator


def _require_finite(**values: float) -> None:
    """Refuse a non-finite profile parameter, naming it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


class RateProfile(abc.ABC):
    """Time-varying aggregate request rate for one zone, in req/s."""

    @abc.abstractmethod
    def rate(self, t: float) -> float:
        """Instantaneous aggregate rate at simulated time *t* (req/s)."""

    @abc.abstractmethod
    def peak_rate(self) -> float:
        """A tight upper bound on :meth:`rate` over all times (req/s)."""


class PoissonSuperposition(RateProfile):
    """Constant rate: *n_clients* Poisson clients with a common mean period.

    The superposition of ``n`` independent Poisson processes of rate
    ``1/mean_period_s`` is one Poisson process of rate
    ``n/mean_period_s`` -- the aggregate is *statistically* exact, not
    merely approximate.
    """

    def __init__(self, n_clients: int, mean_period_s: float) -> None:
        _require_finite(mean_period_s=mean_period_s)
        if n_clients < 1:
            raise ConfigurationError("need at least one client")
        if mean_period_s <= 0:
            raise ConfigurationError("mean period must be positive")
        self.n_clients = n_clients
        self.mean_period_s = mean_period_s
        self._rate = n_clients / mean_period_s

    def rate(self, t: float) -> float:
        """Constant ``n_clients / mean_period_s`` regardless of *t*."""
        return self._rate

    def peak_rate(self) -> float:
        """Equal to the constant rate (the bound is exact)."""
        return self._rate


class DiurnalWave(RateProfile):
    """Sinusoidal day/night demand: quiet nights, busy afternoons.

    ``rate(t) = max(0, base + amplitude * sin(2 pi (t - phase) / period))``.
    Over a whole number of periods the expected request count is exactly
    ``base * horizon`` (the sine integrates to zero), which is what the
    million-request benchmark uses to size its day.
    """

    def __init__(self, base_rps: float, amplitude_rps: float,
                 period_s: float = 86_400.0, phase_s: float = 0.0) -> None:
        _require_finite(base_rps=base_rps, amplitude_rps=amplitude_rps,
                        period_s=period_s, phase_s=phase_s)
        if base_rps <= 0:
            raise ConfigurationError("base rate must be positive")
        if amplitude_rps < 0:
            raise ConfigurationError("amplitude must be >= 0")
        if period_s <= 0:
            raise ConfigurationError("period must be positive")
        self.base_rps = base_rps
        self.amplitude_rps = amplitude_rps
        self.period_s = period_s
        self.phase_s = phase_s

    def rate(self, t: float) -> float:
        """Clamped sinusoid around the base rate."""
        wave = math.sin(2.0 * math.pi * (t - self.phase_s) / self.period_s)
        return max(0.0, self.base_rps + self.amplitude_rps * wave)

    def peak_rate(self) -> float:
        """Crest of the wave: ``base + amplitude``."""
        return self.base_rps + self.amplitude_rps


class FlashCrowdBurst(RateProfile):
    """A base rate with one rectangular burst window layered on top.

    Models the flash-crowd scenes of the adversarial packs (a stadium
    letting out next to a parking-lot payment zone): between ``at_s``
    and ``at_s + duration_s`` the rate jumps by ``burst_rps``.
    """

    def __init__(self, base_rps: float, burst_rps: float,
                 at_s: float, duration_s: float) -> None:
        _require_finite(base_rps=base_rps, burst_rps=burst_rps,
                        at_s=at_s, duration_s=duration_s)
        if base_rps <= 0:
            raise ConfigurationError("base rate must be positive")
        if burst_rps < 0:
            raise ConfigurationError("burst rate must be >= 0")
        if duration_s <= 0:
            raise ConfigurationError("burst duration must be positive")
        if at_s < 0:
            raise ConfigurationError("burst start must be >= 0")
        self.base_rps = base_rps
        self.burst_rps = burst_rps
        self.at_s = at_s
        self.duration_s = duration_s

    def rate(self, t: float) -> float:
        """Base rate, plus the burst inside its window."""
        if self.at_s <= t < self.at_s + self.duration_s:
            return self.base_rps + self.burst_rps
        return self.base_rps

    def peak_rate(self) -> float:
        """Rate inside the burst window: ``base + burst``."""
        return self.base_rps + self.burst_rps


class AggregatedArrivals:
    """One thinned Poisson stream standing in for a zone's client fleet.

    Candidate arrivals are drawn at the profile's peak rate and accepted
    with probability ``rate(now) / peak`` (Lewis-Shedler thinning), so
    the accepted stream is a non-homogeneous Poisson process with
    intensity ``rate(t)``.  Accepted submissions rotate round-robin
    through the virtual client pool, spreading request ids and retry
    timers across identities exactly as a small real pool would.

    Args:
        sim: shared simulator.
        submits: one zero-argument submission callback per virtual
            client identity (the pool).
        rng: deterministic stream for candidate and acceptance draws.
        profile: aggregate rate shape; ``profile.rate(t)`` must never
            exceed ``profile.peak_rate()``.
    """

    def __init__(self, sim: Simulator,
                 submits: Sequence[Callable[[], object]],
                 rng: DeterministicRNG, profile: RateProfile) -> None:
        if not submits:
            raise ConfigurationError("need at least one submit callback")
        peak = profile.peak_rate()
        if peak <= 0:
            raise ConfigurationError("profile peak rate must be positive")
        self.sim = sim
        self.submits = tuple(submits)
        self.rng = rng
        self.profile = profile
        self.submitted = 0
        self.limit: int | None = None
        self._peak = peak
        self._until: float | None = None
        self._slot = 0
        self._timer: ScheduledEvent | None = None

    def start(self, until: float | None = None, limit: int | None = None) -> None:
        """Begin submitting until *until* seconds and/or *limit* requests."""
        self._until = until
        self.limit = limit
        self._timer = self.sim.schedule(
            self.rng.exponential(1.0 / self._peak), self._candidate)

    def stop(self) -> None:
        """Cancel any future submissions."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _candidate(self) -> None:
        """One thinning step: accept-or-skip, then schedule the next."""
        self._timer = None
        now = self.sim.now
        if self._until is not None and now >= self._until:
            return
        if self.limit is not None and self.submitted >= self.limit:
            return
        if self.rng.random() * self._peak < self.profile.rate(now):
            self.submits[self._slot]()
            self.submitted += 1
            self._slot = (self._slot + 1) % len(self.submits)
        if self.limit is None or self.submitted < self.limit:
            self._timer = self.sim.schedule(
                self.rng.exponential(1.0 / self._peak), self._candidate)
