"""Order statistics the benchmark reports: medians, quartiles, tails."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Tail percentiles tried from the top; the first that leaves at least
#: ``MIN_BEYOND`` samples beyond it is the one a sample supports.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sample."""
    # the epsilon keeps float noise from pushing an exact rank up by one
    rank = math.ceil(pct * len(ordered) / 100.0 - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail_pct(n: int) -> float | None:
    """Highest candidate percentile with >= ten of *n* samples beyond it."""
    for pct in TAIL_CANDIDATES:
        # the epsilon absorbs float noise in n * (1 - pct / 100)
        if n * (100.0 - pct) / 100.0 + 1e-9 >= MIN_BEYOND:
            return pct
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a lone value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a lone value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
