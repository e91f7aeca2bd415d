"""Extension experiments beyond the paper's figures.

* :func:`throughput_experiment` -- the TPS view the paper explicitly
  skipped (section V-B): saturate both protocols and measure committed
  transactions per second versus network size.
* :func:`era_churn_experiment` -- sustained node churn: how much
  commit capacity is lost to switch periods as the churn rate grows.

Both return :class:`~repro.metrics.collector.SweepResult` objects and a
rendered report, like the figure harness.
"""

from __future__ import annotations

from repro.common.eventlog import EV_REQUEST_COMPLETED
from repro.common.rng import DeterministicRNG
from repro.experiments import scenario
from repro.experiments.engine import Engine, PointSpec
from repro.experiments.figures import FigureResult
from repro.experiments.runner import _cap_param
from repro.metrics.collector import SweepResult, render_series
from repro.metrics.throughput import throughput_from_events


def _tps_point(protocol: str, n: int, seed: int, offered_interval_s: float,
               horizon_s: float, max_endorsers: int = 40) -> float:
    """Committed tx/s after the first 20 % of *horizon_s*.

    One request every *offered_interval_s* from ``t = 1``: PBFT's four
    clients take turns, G-PBFT picks a random node each time.
    """
    host = scenario.topology(protocol, n,
                             scenario.experiment_config(seed, max_endorsers),
                             clients=4).build()
    tag = f"tps-{seed}" if protocol == "pbft" else "tps"
    rng = DeterministicRNG(seed, "tps")
    t, k = 1.0, 0
    while t < horizon_s:
        m = k if protocol == "pbft" else rng.integers(0, n)
        scenario.submit(host, protocol, tag, k, m, t)
        t += offered_interval_s
        k += 1
    scenario.run(host.sim, horizon_s)
    sample = throughput_from_events(host.events, start=horizon_s * 0.2,
                                    end=horizon_s)
    return sample.tps


def throughput_experiment(
    node_counts=(4, 10, 16, 28, 40),
    horizon_s: float = 400.0,
    engine: Engine | None = None,
) -> FigureResult:
    """Committed TPS vs network size under a fixed offered load.

    PBFT's per-transaction cost grows with n, so its committed TPS
    *falls* as the network grows; G-PBFT's committee cap (8) keeps its
    TPS at the small-committee level.  One request is offered every
    2 s; seed 0.
    """
    eng = engine if engine is not None else Engine(jobs=1, use_cache=False)
    node_counts = list(node_counts)
    offered_interval_s = 2.0
    values = eng.map([
        PointSpec.make(protocol, "tps", n, 0,
                       offered_interval_s=offered_interval_s,
                       horizon_s=horizon_s,
                       **_cap_param(protocol, 8))
        for protocol in ("pbft", "gpbft") for n in node_counts
    ])
    pbft = SweepResult("PBFT", "number of nodes", "committed tx/s")
    gpbft = SweepResult("G-PBFT", "number of nodes", "committed tx/s")
    for i, n in enumerate(node_counts):
        pbft.merge_point(n, [values[i]])
        gpbft.merge_point(n, [values[len(node_counts) + i]])
    text = "\n\n".join([
        "Extension -- committed throughput under constant offered load "
        f"({1 / offered_interval_s:.2f} tx/s offered)",
        render_series(pbft),
        render_series(gpbft),
    ])
    return FigureResult(figure_id="ext-throughput", series=[pbft, gpbft], text=text)


def _era_churn_point(interval: float, horizon_s: float,
                     offered_interval_s: float, seed: int) -> float:
    """Mean commit latency with era switches forced every *interval* s."""
    host = scenario.topology("gpbft", 10,
                             scenario.experiment_config(seed, 8)).build()

    def reschedule(d=host, period=interval):
        d.force_era_switch()
        d.sim.schedule(period, reschedule)

    host.sim.schedule(interval, reschedule)
    t, k = 1.0, 0
    while t < horizon_s:
        scenario.submit(host, "gpbft", "churn", k, 8 + k % 2, t)
        t += offered_interval_s
        k += 1
    scenario.run(host.sim, horizon_s + 120.0)
    latencies = [
        e.data["latency"]
        for e in host.events.of_kind(EV_REQUEST_COMPLETED)
        if "era-switch" not in e.data["request_id"]
    ]
    if not latencies:
        latencies = [float("inf")]
    return sum(latencies) / len(latencies)


def era_churn_experiment(engine: Engine | None = None) -> FigureResult:
    """Commit latency under sustained era churn.

    Forces composition-preserving era switches every 5, 15, 60 and
    300 s and measures the mean commit latency of one request offered
    every 3 s over 300 s (seed 0) -- the quantitative side of the
    paper's "T must be neither too small nor too large" argument
    (section III-E): frequent switches interrupt in-flight consensus
    and inflate latency.
    """
    eng = engine if engine is not None else Engine(jobs=1, use_cache=False)
    switch_intervals = [5.0, 15.0, 60.0, 300.0]
    specs = [
        PointSpec.make("gpbft", "era-churn", interval, 0,
                       horizon_s=300.0, offered_interval_s=3.0)
        for interval in switch_intervals
    ]
    values = eng.map(specs)
    result = SweepResult("G-PBFT", "era switch interval (s)", "mean latency (s)")
    for interval, mean_latency in zip(switch_intervals, values):
        result.merge_point(interval, [mean_latency])
    text = "\n\n".join([
        "Extension -- mean commit latency under sustained era churn",
        render_series(result),
    ])
    return FigureResult(figure_id="ext-era-churn", series=[result], text=text)
