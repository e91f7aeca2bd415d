"""Deterministic, forkable random streams.

Every stochastic component of the simulation (network jitter, workload
generation, proposer sampling, attacker behaviour) draws from its own
:class:`DeterministicRNG` forked from one experiment seed.  Forking is
done by hashing the parent seed with a stream label, so adding a new
consumer never perturbs the draws seen by existing ones -- a requirement
for reproducible experiment sweeps.

The network draws a delay per message copy from a block of doubles
(:meth:`DeterministicRNG.doubles`).  Buffering never changes a value: any
other draw first rewinds the generator to the doubles handed out.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Doubles drawn per refill of a stream's block.
_BLOCK = 256


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
        self._bits = np.random.PCG64(int.from_bytes(digest[:8], "big"))
        self._gen = np.random.Generator(self._bits)
        # doubles drawn ahead by ``doubles``: the block, how many of it
        # were handed out, and the generator state it was drawn from.
        # ``SimulatedNetwork`` takes doubles from the first two itself.
        self._block: list[float] = []
        self._used = 0
        self._saved: dict[str, Any] = {}

    def fork(self, label: str) -> "DeterministicRNG":
        """Derive an independent child stream identified by *label*."""
        return DeterministicRNG(self._seed, f"{self._label}/{label}")

    # -- draw helpers -----------------------------------------------------

    def doubles(self, k: int) -> list[float]:
        """The stream's next *k* floats in [0, 1): those of *k* calls to
        :meth:`random`, served from a block drawn in one numpy call."""
        used = self._used
        end = used + k
        block = self._block
        if end <= len(block):
            self._used = end
            return block[used:end]
        # the block is used up, so the generator is where its last double
        # left it: the next block continues the stream
        head = block[used:]
        need = k - len(head)
        self._saved = self._bits.state
        self._block = block = self._gen.random(max(_BLOCK, need)).tolist()
        self._used = need
        return head + block[:need]

    def _synced(self) -> np.random.Generator:
        """The generator, first rewound past only the doubles handed out.

        ``advance`` also clears the half 64-bit word a bounded
        ``integers`` draw may have cached before the block was drawn;
        doubles never touch that cache, so it is put back.
        """
        if self._used < len(self._block):
            bits, saved = self._bits, self._saved
            bits.state = saved
            bits.advance(self._used)
            state = bits.state
            state["has_uint32"], state["uinteger"] = saved["has_uint32"], saved["uinteger"]
            bits.state = state
            self._block, self._used = [], 0
        return self._gen

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One float drawn uniformly from [low, high): the arithmetic of
        ``Generator.uniform`` on one :meth:`random` draw, bit for bit."""
        used = self._used
        if used < len(self._block):
            self._used = used + 1
            return low + (high - low) * self._block[used]
        return low + (high - low) * self._gen.random()

    def exponential(self, mean: float) -> float:
        """One exponential draw with the given mean (inter-arrival times)."""
        return float(self._synced().exponential(mean))

    def lognormal(self, mean: float, sigma: float) -> float:
        """One lognormal draw (heavy-tailed WAN latency model)."""
        return float(self._synced().lognormal(mean, sigma))

    def integers(self, low: int, high: int) -> int:
        """One integer drawn uniformly from [low, high)."""
        return int(self._synced().integers(low, high))

    def random(self) -> float:
        """One float in [0, 1).

        Served from a block only when :meth:`doubles` left one: a stream
        that mixes single doubles with other draws (an arrival process
        alternating gaps and coin flips) would otherwise refill and
        rewind a block at every draw.
        """
        used = self._used
        if used < len(self._block):
            self._used = used + 1
            return self._block[used]
        return self._gen.random()

    def choice(self, seq: Sequence[T], p: Sequence[float] | None = None) -> T:
        """Pick one element of *seq*, optionally with weights *p*."""
        return seq[int(self._synced().choice(len(seq), p=p))]

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
        gen = self._synced()
        total = w.sum()
        if total <= 0:
            return int(gen.integers(0, w.size))
        return int(gen.choice(w.size, p=w / total))

    def shuffle(self, seq: list[T]) -> None:
        """In-place Fisher-Yates shuffle of a Python list."""
        self._synced().shuffle(seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"DeterministicRNG(seed={self._seed}, label={self._label!r})"
