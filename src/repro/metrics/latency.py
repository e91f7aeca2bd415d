"""Boxplot statistics of consensus-latency samples.

The paper's Figure 3 shows boxplots of consensus latency per group of
ten runs: whiskers at min/max, box at the quartiles, line at the median.
:class:`BoxplotStats` computes exactly those five numbers (plus mean and
standard deviation) with numpy, vectorised over the sample array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class BoxplotStats:
    """Five-number summary plus moments of a latency sample."""

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    std: float

    @classmethod
    def from_samples(cls, samples) -> "BoxplotStats":
        """Compute the summary of a non-empty sample sequence.

        Raises:
            ConfigurationError: on an empty sample set.
        """
        arr = np.asarray(list(samples), dtype=float)
        if arr.size == 0:
            raise ConfigurationError("cannot summarize zero samples")
        q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
        return cls(
            count=int(arr.size),
            minimum=float(arr.min()),
            q1=float(q1),
            median=float(med),
            q3=float(q3),
            maximum=float(arr.max()),
            mean=float(arr.mean()),
            std=float(arr.std(ddof=0)),
        )

    @property
    def iqr(self) -> float:
        """Inter-quartile range (box height in Figure 3)."""
        return self.q3 - self.q1

    def outliers(self, samples) -> list[float]:
        """Values beyond 1.5 IQR of the box (the circles in Fig. 3b)."""
        lo = self.q1 - 1.5 * self.iqr
        hi = self.q3 + 1.5 * self.iqr
        return [float(s) for s in samples if s < lo or s > hi]

    def row(self) -> str:
        """One formatted table row: min / Q1 / median / Q3 / max / mean."""
        return (
            f"{self.minimum:9.3f} {self.q1:9.3f} {self.median:9.3f} "
            f"{self.q3:9.3f} {self.maximum:9.3f} {self.mean:9.3f}"
        )
