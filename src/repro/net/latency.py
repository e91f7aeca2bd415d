"""Pluggable propagation-delay models.

The experiment harness defaults to :class:`UniformLatency` (small LAN
delay with jitter, matching the paper's single-site cluster).  The
latency-model ablation bench swaps in the others to show that the
PBFT/G-PBFT gap is robust to the propagation model -- the gap comes from
message *processing*, not propagation.
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

from repro.common.errors import NetworkError
from repro.common.rng import DeterministicRNG
from repro.geo.coords import LatLng, haversine_m

#: Speed of light in fibre, m/s (propagation floor for DistanceLatency).
FIBRE_SPEED_M_S = 2.0e8
#: The network's default propagation: a fixed delay plus uniform jitter
#: in [0, LATENCY_JITTER_S] (``UniformLatency``).
BASE_LATENCY_S = 0.010
LATENCY_JITTER_S = 0.005


def _checked(name: str, value: float, positive: bool = False) -> float:
    """*value* if it is finite and >= 0 (> 0 when *positive*); otherwise
    ``NetworkError`` naming *name*.  An infinite delay would park a
    message in the simulator forever, a NaN one would order nowhere."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise NetworkError(f"{name} must be finite and {bound}, got {value!r}")
    return value


class LatencyModel(abc.ABC):
    """Computes one-way propagation delay for a message."""

    @abc.abstractmethod
    def sample(self, src: int, dst: int, rng: DeterministicRNG) -> float:
        """Delay in seconds for a message from *src* to *dst*."""

    def sample_many(
        self, src: int, dsts: Sequence[int], rng: DeterministicRNG
    ) -> list[float]:
        """Delays for one message from *src* to each of *dsts*, in order.

        Must consume *rng* exactly as ``sample`` called once per
        destination would, so a multicast and the same per-copy sends
        leave the stream in the same state.
        """
        return [self.sample(src, dst, rng) for dst in dsts]


class ConstantLatency(LatencyModel):
    """Every message takes exactly *delay_s* seconds."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = _checked("delay_s", delay_s)

    def sample(self, src: int, dst: int, rng: DeterministicRNG) -> float:
        """Draw one propagation delay for (src, dst)."""
        return self.delay_s


class UniformLatency(LatencyModel):
    """Base delay plus uniform jitter in [0, jitter_s] -- the default."""

    def __init__(self, base_s: float, jitter_s: float) -> None:
        self.base_s = _checked("base_s", base_s)
        self.jitter_s = _checked("jitter_s", jitter_s)

    def sample(self, src: int, dst: int, rng: DeterministicRNG) -> float:
        """Draw one propagation delay for (src, dst)."""
        if self.jitter_s <= 0:
            return self.base_s
        # one double scaled by jitter: bit-identical to
        # rng.uniform(0, jitter) but skips the range arithmetic -- this
        # runs once per simulated message
        return self.base_s + self.jitter_s * rng.doubles(1)[0]

    def sample_many(
        self, src: int, dsts: Sequence[int], rng: DeterministicRNG
    ) -> list[float]:
        """The same doubles, in the same order, as ``len(dsts)`` scalar
        draws (``tests/test_net.py`` pins this)."""
        base = self.base_s
        if self.jitter_s <= 0:
            return [base] * len(dsts)
        jitter = self.jitter_s
        return [base + jitter * x for x in rng.doubles(len(dsts))]


class LognormalLatency(LatencyModel):
    """Heavy-tailed delay: ``exp(N(mu, sigma))`` scaled to *median_s*.

    Models WAN-ish conditions where a minority of messages straggle.
    """

    def __init__(self, median_s: float, sigma: float = 0.5) -> None:
        self.median_s = _checked("median_s", median_s, positive=True)
        self.sigma = _checked("sigma", sigma)
        self._mu = math.log(median_s)

    def sample(self, src: int, dst: int, rng: DeterministicRNG) -> float:
        """Draw one propagation delay for (src, dst)."""
        return rng.lognormal(self._mu, self.sigma)


class DistanceLatency(LatencyModel):
    """Propagation proportional to great-circle distance between nodes.

    Args:
        positions: node id -> physical location.
        per_hop_s: fixed per-message forwarding cost added on top.
        default_s: delay used for nodes with unknown positions.
    """

    def __init__(
        self,
        positions: dict[int, LatLng],
        per_hop_s: float = 0.001,
        default_s: float = 0.010,
    ) -> None:
        self.positions = dict(positions)
        self.per_hop_s = _checked("per_hop_s", per_hop_s)
        self.default_s = _checked("default_s", default_s)

    def sample(self, src: int, dst: int, rng: DeterministicRNG) -> float:
        """Draw one propagation delay for (src, dst)."""
        a = self.positions.get(src)
        b = self.positions.get(dst)
        if a is None or b is None:
            return self.default_s + self.per_hop_s
        return self.per_hop_s + haversine_m(a, b) / FIBRE_SPEED_M_S
