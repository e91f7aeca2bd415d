#!/usr/bin/env python
"""Render SVG charts from the recorded paper-scale results.

Reads the format-2 results/paper_results.json (SweepResult.to_json
sweeps written by record_paper_results.py) and produces the Figure
3/4/5/6 charts under results/charts/.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.metrics.collector import SweepResult
from repro.metrics.svgplot import boxplot_chart, line_chart, save_svg

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results" / "paper_results.json"
OUT = ROOT / "results" / "charts"


def build_sweeps(data: dict) -> dict[str, SweepResult]:
    """The recorded sweeps keyed as ``{protocol}_{kind}``."""
    if data.get("format") != 2:
        raise SystemExit(
            f"{RESULTS} is a legacy format-1 file; rerun "
            "scripts/record_paper_results.py to record it afresh"
        )
    return {
        f"{protocol}_{kind}": SweepResult.from_json(sweep)
        for kind in ("latency", "traffic")
        for protocol, sweep in data[kind].items()
    }


def main() -> None:
    """Render the four paper-scale charts from the recorded sweeps."""
    data = json.loads(RESULTS.read_text())
    sweeps = build_sweeps(data)
    OUT.mkdir(parents=True, exist_ok=True)
    save_svg(boxplot_chart(sweeps["pbft_latency"],
                           title="Fig. 3a -- PBFT consensus latency (paper scale)"),
             OUT / "fig3a_pbft_latency.svg")
    save_svg(boxplot_chart(sweeps["gpbft_latency"],
                           title="Fig. 3b -- G-PBFT consensus latency (paper scale)"),
             OUT / "fig3b_gpbft_latency.svg")
    save_svg(line_chart([sweeps["pbft_latency"], sweeps["gpbft_latency"]],
                        title="Fig. 4 -- average consensus latency"),
             OUT / "fig4_latency_comparison.svg")
    save_svg(line_chart([sweeps["pbft_traffic"], sweeps["gpbft_traffic"]],
                        title="Fig. 6 -- communication cost per transaction"),
             OUT / "fig6_traffic_comparison.svg")
    for path in sorted(OUT.glob("*.svg")):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
