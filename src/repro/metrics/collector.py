"""Experiment result containers and text rendering.

Every figure/table reproduction produces a :class:`SweepResult`: a list
of (x, samples) points for one protocol.  Rendering helpers print the
same rows/series the paper reports -- tables for Table III-style
comparisons, ASCII bar series for the figures.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.metrics.latency import BoxplotStats


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One x-position of a sweep: raw samples plus their summary."""

    x: float
    samples: tuple[float, ...]

    def stats(self) -> BoxplotStats:
        """Boxplot summary of this point's samples."""
        return BoxplotStats.from_samples(self.samples)

    @property
    def mean(self) -> float:
        """Sample mean (the line plotted in Figures 4 and 6)."""
        return sum(self.samples) / len(self.samples)

    def to_json(self) -> dict:
        """Plain-JSON form (inverse of :meth:`from_json`)."""
        return {"x": self.x, "samples": list(self.samples)}

    @classmethod
    def from_json(cls, data: dict) -> "SweepPoint":
        """Rebuild a point from :meth:`to_json` output."""
        return cls(x=float(data["x"]),
                   samples=tuple(float(s) for s in data["samples"]))


@dataclass
class SweepResult:
    """One protocol's full sweep for one experiment.

    Attributes:
        name: series label (e.g. ``"PBFT"`` / ``"G-PBFT"``).
        x_label: meaning of x (always "number of nodes" in the paper).
        y_label: measured quantity and unit.
        points: the sweep, ascending in x.
    """

    name: str
    x_label: str
    y_label: str
    points: list[SweepPoint] = field(default_factory=list)

    def add(self, x: float, samples) -> SweepPoint:
        """Append one sweep point.

        Raises:
            ConfigurationError: on empty samples or non-ascending x.
        """
        samples = tuple(float(s) for s in samples)
        if not samples:
            raise ConfigurationError(f"no samples at x={x}")
        if self.points and x <= self.points[-1].x:
            raise ConfigurationError("sweep points must be added in ascending x")
        point = SweepPoint(x=float(x), samples=samples)
        self.points.append(point)
        return point

    def merge_point(self, x: float, samples) -> SweepPoint:
        """Insert one sweep point, keeping ``points`` ascending in x.

        Unlike :meth:`add` this tolerates out-of-order arrival (parallel
        sweep points complete in whatever order the pool schedules them).

        Raises:
            ConfigurationError: on empty samples or a duplicate x.
        """
        samples = tuple(float(s) for s in samples)
        if not samples:
            raise ConfigurationError(f"no samples at x={x}")
        x = float(x)
        if any(p.x == x for p in self.points):
            raise ConfigurationError(f"duplicate sweep point at x={x}")
        point = SweepPoint(x=x, samples=samples)
        bisect.insort(self.points, point, key=lambda p: p.x)
        return point

    def to_json(self) -> dict:
        """Plain-JSON form of the whole sweep (inverse of :meth:`from_json`).

        Used by the experiment engine's on-disk cache and by
        ``scripts/record_paper_results.py``.
        """
        return {
            "name": self.name,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "points": [p.to_json() for p in self.points],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SweepResult":
        """Rebuild a sweep from :meth:`to_json` output."""
        result = cls(name=data["name"], x_label=data["x_label"],
                     y_label=data["y_label"])
        for point in data["points"]:
            result.merge_point(point["x"], point["samples"])
        return result

    def mean_at(self, x: float) -> float:
        """Mean of the point at *x*.

        Raises:
            ConfigurationError: when *x* was never swept.
        """
        for point in self.points:
            if point.x == x:
                return point.mean
        raise ConfigurationError(f"no sweep point at x={x}")

    @property
    def xs(self) -> list[float]:
        """Sweep positions."""
        return [p.x for p in self.points]

    @property
    def means(self) -> list[float]:
        """Per-point means."""
        return [p.mean for p in self.points]


def render_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Fixed-width text table (the repo's stand-in for the paper's tables)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_series(result: SweepResult) -> str:
    """ASCII bars, up to 50 wide, of a sweep's means (stand-in for a figure)."""
    if not result.points:
        return f"{result.name}: (empty)"
    peak = max(result.means) or 1.0
    lines = [f"{result.name} -- {result.y_label} vs {result.x_label}"]
    for point in result.points:
        bar = "#" * max(1, round(50 * point.mean / peak))
        lines.append(f"{point.x:8.0f} | {bar} {point.mean:.3f}")
    return "\n".join(lines)


def render_boxplot_rows(result: SweepResult) -> str:
    """Per-point five-number summaries (stand-in for Figure 3 boxplots)."""
    header = (
        f"{result.name} -- {result.y_label}\n"
        f"{'x':>8} {'min':>9} {'q1':>9} {'median':>9} {'q3':>9} {'max':>9} {'mean':>9}"
    )
    lines = [header]
    for point in result.points:
        lines.append(f"{point.x:8.0f} {point.stats().row()}")
    return "\n".join(lines)
