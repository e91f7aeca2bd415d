"""Deterministic, forkable random streams.

Every stochastic component of the simulation (network jitter, workload
generation, proposer sampling, attacker behaviour) draws from its own
:class:`DeterministicRNG` forked from one experiment seed.  Forking is
done by hashing the parent seed with a stream label, so adding a new
consumer never perturbs the draws seen by existing ones -- a requirement
for reproducible experiment sweeps.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class DeterministicRNG:
    """A labelled, forkable wrapper around :class:`numpy.random.Generator`.

    Args:
        seed: any integer; negative seeds are folded into the hash input.
        label: stream label mixed into the seed derivation.
    """

    def __init__(self, seed: int = 0, label: str = "root") -> None:
        self._seed = int(seed)
        self._label = str(label)
        digest = hashlib.sha256(f"{self._seed}:{self._label}".encode()).digest()
        self._gen = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "big")))
        #: Raw next-double draw (``Generator.random`` bound method),
        #: exposed for per-message hot paths: callers skip one Python
        #: frame but must wrap the result in ``float()`` themselves.
        self.next_double = self._gen.random

    @property
    def seed(self) -> int:
        """The integer seed this stream was created with."""
        return self._seed

    @property
    def label(self) -> str:
        """The stream label this RNG was forked under."""
        return self._label

    def fork(self, label: str) -> "DeterministicRNG":
        """Derive an independent child stream identified by *label*."""
        return DeterministicRNG(self._seed, f"{self._label}/{label}")

    # -- draw helpers -----------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One float drawn uniformly from [low, high).

        Implemented as ``low + (high - low) * next_double`` -- exactly
        the arithmetic ``Generator.uniform`` performs in C on the same
        single raw draw, so results are bit-identical to calling
        ``Generator.uniform(low, high)`` while skipping its per-call
        argument broadcasting (~2x faster on the network hot path).
        """
        return low + (high - low) * float(self.next_double())

    def exponential(self, mean: float) -> float:
        """One exponential draw with the given mean (inter-arrival times)."""
        return float(self._gen.exponential(mean))

    def lognormal(self, mean: float, sigma: float) -> float:
        """One lognormal draw (heavy-tailed WAN latency model)."""
        return float(self._gen.lognormal(mean, sigma))

    def integers(self, low: int, high: int) -> int:
        """One integer drawn uniformly from [low, high)."""
        return int(self._gen.integers(low, high))

    def random(self) -> float:
        """One float in [0, 1)."""
        return float(self.next_double())

    def choice(self, seq: Sequence[T], p: Sequence[float] | None = None) -> T:
        """Pick one element of *seq*, optionally with weights *p*."""
        idx = self._gen.choice(len(seq), p=p)
        return seq[int(idx)]

    def weighted_index(self, weights: Iterable[float]) -> int:
        """Sample an index proportionally to non-negative *weights*.

        Used by the incentive engine to pick block producers with
        probability proportional to geographic timers.  Falls back to a
        uniform pick when all weights are zero.

        Raises:
            ValueError: if *weights* is empty or contains a negative.
        """
        w = np.asarray(list(weights), dtype=float)
        if w.size == 0:
            raise ValueError("weights must be non-empty")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = w.sum()
        if total <= 0:
            return int(self._gen.integers(0, w.size))
        return int(self._gen.choice(w.size, p=w / total))

    def shuffle(self, seq: list[T]) -> None:
        """In-place Fisher-Yates shuffle of a Python list."""
        self._gen.shuffle(seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"DeterministicRNG(seed={self._seed}, label={self._label!r})"
