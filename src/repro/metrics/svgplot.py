"""Dependency-free SVG charts for the figure reproductions.

The evaluation environment has no plotting library, so this module
renders :class:`~repro.metrics.collector.SweepResult` series directly to
SVG: line charts for Figures 4/6 and boxplot charts for Figure 3.  The
CLI writes them next to the text reports (``--svg``).

Only plain string assembly and linear axis math -- no dependencies.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

from repro.common.errors import ConfigurationError
from repro.metrics.collector import SweepResult

#: Canvas geometry (pixels).
WIDTH, HEIGHT = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50

#: Series colours (accessible-contrast pairs on white).
PALETTE = ("#1b6ca8", "#d1495b", "#2e8b57", "#946bb3", "#c98a2b")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw_step = span / max(1, target - 1)
    magnitude = 10 ** math.floor(math.log10(raw_step))
    for factor in (1, 2, 2.5, 5, 10):
        step = factor * magnitude
        if span / step <= target:
            break
    first = math.floor(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        if t >= lo - step * 1e-9:
            ticks.append(round(t, 10))
        t += step
    return ticks


class _Canvas:
    """Linear data-to-pixel mapping plus SVG element accumulation."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi = x_lo, max(x_hi, x_lo + 1e-9)
        self.y_lo, self.y_hi = y_lo, max(y_hi, y_lo + 1e-9)
        self.elements: list[str] = []

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def add(self, element: str) -> None:
        self.elements.append(element)

    def text(self, x, y, content, size=12, anchor="middle", rotate=None):
        transform = f' transform="rotate({rotate} {x} {y})"' if rotate else ""
        self.add(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="#333" '
            f'font-family="sans-serif"{transform}>{escape(str(content))}</text>'
        )

    def axes(self, title: str, x_label: str, y_label: str) -> None:
        left, right = MARGIN_L, WIDTH - MARGIN_R
        top, bottom = MARGIN_T, HEIGHT - MARGIN_B
        self.add(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" '
                 f'fill="white"/>')
        for x in _nice_ticks(self.x_lo, self.x_hi):
            px = self.px(x)
            self.add(f'<line x1="{px:.1f}" y1="{top}" x2="{px:.1f}" y2="{bottom}" '
                     f'stroke="#eee"/>')
            label = f"{x:g}"
            self.text(px, bottom + 18, label, size=11)
        for y in _nice_ticks(self.y_lo, self.y_hi):
            py = self.py(y)
            self.add(f'<line x1="{left}" y1="{py:.1f}" x2="{right}" y2="{py:.1f}" '
                     f'stroke="#eee"/>')
            self.text(left - 8, py + 4, f"{y:g}", size=11, anchor="end")
        self.add(f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
                 f'stroke="#333"/>')
        self.add(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
                 f'stroke="#333"/>')
        self.text(WIDTH / 2, 22, title, size=15)
        self.text(WIDTH / 2, HEIGHT - 12, x_label, size=12)
        self.text(16, HEIGHT / 2, y_label, size=12, rotate=-90)

    def render(self) -> str:
        body = "\n".join(self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f"{body}\n</svg>\n"
        )


def line_chart(series: list[SweepResult], title: str = "") -> str:
    """Multi-series line chart (Figures 4 and 6 style).

    Raises:
        ConfigurationError: when no series or empty series are given.
    """
    if not series or any(not s.points for s in series):
        raise ConfigurationError("line_chart needs non-empty series")
    xs = [x for s in series for x in s.xs]
    ys = [m for s in series for m in s.means]
    canvas = _Canvas(min(xs), max(xs), 0.0, max(ys) * 1.05)
    first = series[0]
    canvas.axes(title or f"{first.y_label} vs {first.x_label}",
                first.x_label, first.y_label)
    for i, sweep in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{canvas.px(p.x):.1f},{canvas.py(p.mean):.1f}" for p in sweep.points
        )
        canvas.add(f'<polyline points="{points}" fill="none" stroke="{color}" '
                   f'stroke-width="2"/>')
        for p in sweep.points:
            canvas.add(f'<circle cx="{canvas.px(p.x):.1f}" '
                       f'cy="{canvas.py(p.mean):.1f}" r="3.2" fill="{color}"/>')
        # legend entry
        ly = MARGIN_T + 16 + i * 18
        lx = MARGIN_L + 12
        canvas.add(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        canvas.text(lx + 30, ly + 4, sweep.name, size=12, anchor="start")
    return canvas.render()


def boxplot_chart(sweep: SweepResult, title: str = "") -> str:
    """Per-x boxplots (Figure 3 style): whiskers min-max, box Q1-Q3,
    line at the median, circles at 1.5-IQR outliers.

    Raises:
        ConfigurationError: on an empty sweep.
    """
    if not sweep.points:
        raise ConfigurationError("boxplot_chart needs a non-empty sweep")
    stats = [p.stats() for p in sweep.points]
    y_hi = max(s.maximum for s in stats)
    canvas = _Canvas(min(sweep.xs), max(sweep.xs), 0.0, y_hi * 1.05)
    canvas.axes(title or f"{sweep.name}: {sweep.y_label}",
                sweep.x_label, sweep.y_label)
    half_w = max(4.0, (WIDTH - MARGIN_L - MARGIN_R)
                 / max(1, len(sweep.points)) * 0.18)
    color = PALETTE[0]
    for point, st in zip(sweep.points, stats):
        cx = canvas.px(point.x)
        top, q3 = canvas.py(st.maximum), canvas.py(st.q3)
        q1, bottom = canvas.py(st.q1), canvas.py(st.minimum)
        med = canvas.py(st.median)
        # whiskers
        canvas.add(f'<line x1="{cx:.1f}" y1="{top:.1f}" x2="{cx:.1f}" '
                   f'y2="{q3:.1f}" stroke="{color}"/>')
        canvas.add(f'<line x1="{cx:.1f}" y1="{q1:.1f}" x2="{cx:.1f}" '
                   f'y2="{bottom:.1f}" stroke="{color}"/>')
        for y in (top, bottom):
            canvas.add(f'<line x1="{cx - half_w / 2:.1f}" y1="{y:.1f}" '
                       f'x2="{cx + half_w / 2:.1f}" y2="{y:.1f}" stroke="{color}"/>')
        # box + median
        canvas.add(f'<rect x="{cx - half_w:.1f}" y="{q3:.1f}" '
                   f'width="{2 * half_w:.1f}" height="{max(1.0, q1 - q3):.1f}" '
                   f'fill="{color}" fill-opacity="0.25" stroke="{color}"/>')
        canvas.add(f'<line x1="{cx - half_w:.1f}" y1="{med:.1f}" '
                   f'x2="{cx + half_w:.1f}" y2="{med:.1f}" stroke="{color}" '
                   f'stroke-width="2"/>')
        # outliers (the paper circles them in Fig. 3b)
        for value in st.outliers(point.samples):
            canvas.add(f'<circle cx="{cx:.1f}" cy="{canvas.py(value):.1f}" '
                       f'r="3" fill="none" stroke="{color}"/>')
    return canvas.render()


def save_svg(svg: str, path) -> None:
    """Write an SVG string to *path* (parents must exist)."""
    from pathlib import Path

    Path(path).write_text(svg)
