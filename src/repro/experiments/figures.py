"""Figure reproductions: consensus latency (3, 4) and traffic (5, 6).

Each function returns the underlying :class:`SweepResult` objects plus a
rendered text report printing the same series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.engine import Engine, PointSpec
from repro.experiments.profiles import ExperimentProfile, active_profile
from repro.experiments.runner import latency_sweep, traffic_sweep
from repro.metrics.collector import (
    SweepResult,
    render_boxplot_rows,
    render_series,
)


@dataclass
class FigureResult:
    """One reproduced figure: its data series and a text rendering."""

    figure_id: str
    series: list[SweepResult]
    text: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def _latency_pair(p: ExperimentProfile,
                  eng: Engine | None) -> tuple[SweepResult, ...]:
    """The PBFT and G-PBFT latency sweeps Figures 3 and 4 share."""
    return tuple(
        latency_sweep(protocol, p.latency_node_counts, p.reps,
                      p.proposal_period_s, p.measured_txs, p.warmup_txs,
                      p.max_endorsers, engine=eng)
        for protocol in ("pbft", "gpbft"))


def _traffic_pair(p: ExperimentProfile,
                  eng: Engine | None) -> tuple[SweepResult, ...]:
    """The PBFT and G-PBFT traffic sweeps Figures 5 and 6 share."""
    return tuple(traffic_sweep(protocol, p.traffic_node_counts,
                               p.max_endorsers, engine=eng)
                 for protocol in ("pbft", "gpbft"))


def figure3(profile: ExperimentProfile | None = None,
            engine: Engine | None = None) -> FigureResult:
    """Fig. 3: latency boxplots per group, PBFT (a) and G-PBFT (b).

    The G-PBFT series additionally repeats its largest group with a
    forced era switch inside the measurement window, reproducing the
    circled ~+0.25 s outliers the paper explains in section V-B.
    """
    p = profile or active_profile()
    eng = engine if engine is not None else Engine(jobs=1, use_cache=False)
    pbft, gpbft = _latency_pair(p, eng)
    outlier_n = p.latency_node_counts[-1]
    outlier_samples = eng.run(PointSpec.make(
        "gpbft", "latency", outlier_n, seed=7777,
        proposal_period_s=p.proposal_period_s,
        measured=p.measured_txs,
        warmup=0,
        max_endorsers=p.max_endorsers,
        era_switch_at_tx=max(0, p.measured_txs // 2),
    ))
    outliers = SweepResult(
        name="G-PBFT (era switch in window)",
        x_label="number of nodes",
        y_label="consensus latency (s)",
    )
    outliers.add(outlier_n, outlier_samples)
    text = "\n\n".join(
        [
            "Figure 3a -- PBFT consensus latency (boxplot rows)",
            render_boxplot_rows(pbft),
            "Figure 3b -- G-PBFT consensus latency (boxplot rows)",
            render_boxplot_rows(gpbft),
            "Figure 3b outlier group (forced era switch, ~+0.25 s visible in max)",
            render_boxplot_rows(outliers),
        ]
    )
    return FigureResult(figure_id="fig3", series=[pbft, gpbft, outliers], text=text)


def figure4(profile: ExperimentProfile | None = None,
            engine: Engine | None = None) -> FigureResult:
    """Fig. 4: average consensus latency, PBFT vs G-PBFT."""
    p = profile or active_profile()
    pbft, gpbft = _latency_pair(p, engine)
    n = p.latency_node_counts[-1]
    ratio = gpbft.mean_at(n) / pbft.mean_at(n)
    text = "\n\n".join(
        [
            "Figure 4 -- average consensus latency comparison",
            render_series(pbft),
            render_series(gpbft),
            (
                f"At n={n}: PBFT {pbft.mean_at(n):.2f} s vs "
                f"G-PBFT {gpbft.mean_at(n):.2f} s "
                f"(G-PBFT at {100 * ratio:.2f}% of PBFT; paper reports 2.24%)"
            ),
        ]
    )
    return FigureResult(figure_id="fig4", series=[pbft, gpbft], text=text)


def figure5(profile: ExperimentProfile | None = None,
            engine: Engine | None = None) -> FigureResult:
    """Fig. 5: single-transaction communication cost sweeps."""
    p = profile or active_profile()
    pbft, gpbft = _traffic_pair(p, engine)
    text = "\n\n".join(
        [
            "Figure 5a -- PBFT communication cost per transaction",
            render_series(pbft),
            "Figure 5b -- G-PBFT communication cost per transaction "
            f"(committee capped at {p.max_endorsers})",
            render_series(gpbft),
        ]
    )
    return FigureResult(figure_id="fig5", series=[pbft, gpbft], text=text)


def figure6(profile: ExperimentProfile | None = None,
            engine: Engine | None = None) -> FigureResult:
    """Fig. 6: communication-cost comparison at matching node counts."""
    p = profile or active_profile()
    pbft, gpbft = _traffic_pair(p, engine)
    n = p.traffic_node_counts[-1]
    ratio = gpbft.mean_at(n) / pbft.mean_at(n)
    text = "\n\n".join(
        [
            "Figure 6 -- communication cost comparison",
            render_series(pbft),
            render_series(gpbft),
            (
                f"At n={n}: PBFT {pbft.mean_at(n):.1f} KB vs "
                f"G-PBFT {gpbft.mean_at(n):.1f} KB "
                f"(G-PBFT at {100 * ratio:.2f}% of PBFT; paper reports 4.43%)"
            ),
        ]
    )
    return FigureResult(figure_id="fig6", series=[pbft, gpbft], text=text)
