"""Names, units, directions and bounds: the benchmark's vocabulary.

``BENCHMARK.json`` at the repository root is this module rendered by
:func:`benchmark_json`; ``perfbench/tests`` keeps the two equal.  Every
run prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) for whichever workload it ran, so end-to-end
metrics are the ones that exist, and are never zero, on all six
workloads; everything that belongs to some workloads only is per-layer
and reads 0 where it does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.seams import LAYER_SECONDS

#: Seconds one run measures; rounds of the workload repeat until then.
RUN_SECONDS = 12

#: Layers (``src/repro`` packages) whose share of traced wall is reported.
LAYERS = ("net", "pbft", "core", "chain", "geo", "crypto", "codec",
          "workloads", "common", "bench")

#: Offered rates of the overload ladder, requests per simulated second.
LADDER_RATES = (2, 4, 6, 7, 8, 14)

WORKLOADS: dict[str, str] = {
    "pbft_wide_n202": (
        "Flat PBFT, 202 replicas at 10 msg/s, single transactions 40 sim-s "
        "apart: wide fan-out and 202-voter quorums; net and pbft.log carry "
        "it, core/chain/geo/codec do nothing."),
    "gpbft_city_12z": (
        "12 zones x 4-replica committees at 50 msg/s on one simulator, one "
        "diurnal aggregated stream per zone: fan-out 4, thousands of "
        "requests, timer churn, bounded logs; net used the other way."),
    "gpbft_paper_n202": (
        "The paper's system: 202 nodes, 40 endorsers at 10 msg/s, geo-tagged "
        "transactions via the nearest endorser, one forced era switch: the "
        "only workload where core, chain and geo run."),
    "failover_n16": (
        "16 replicas at 50 msg/s, open-loop 0.5 req/s; primary and successor "
        "crash then recover while requests keep arriving: cascaded view "
        "change, client retries, catch-up."),
    "overload_ladder_n4": (
        "One 4-replica committee at 50 msg/s stepped through 2-14 req/s: the "
        "latency-vs-rate curve, the knee near 7 req/s and congestion collapse "
        "at 14; stands in for the single-node baseline."),
    "wire_replay": (
        "Payloads captured from n=40 PBFT and G-PBFT rounds, each encoded, "
        "decoded, signed and verified: the only place codec and uncached "
        "crypto work; net and pbft do nothing."),
}


@dataclass(frozen=True)
class Metric:
    """One reported number."""

    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed worsening

    def as_json(self) -> dict[str, object]:
        """The metric in ``BENCHMARK.json`` layout."""
        out: dict[str, object] = {
            "name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


#: Host times here are at reference speed (``perfbench/reference.py``).
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("msgs_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)


def _lower(name: str, unit: str) -> Metric:
    return Metric(name, unit, "lower")


def _higher(name: str, unit: str) -> Metric:
    return Metric(name, unit, "higher")


#: What a user of the simulated system would see; deterministic for a
#: seed, so compared exactly rather than by bound.
SIMULATED = (
    _higher("commits_per_s", "1/s"),
    _lower("commit_latency_p50_sim_s", "sim_s"),
    _lower("commit_latency_tail_sim_s", "sim_s"),
    _higher("commit_latency_tail_pct", "%"),
    _lower("kb_per_commit", "KB"),
    _lower("failed_frac", "1"),
    _lower("safety_violations", "count"),
    _lower("unavailable_sim_s", "sim_s"),
    _lower("era_switch_downtime_sim_s", "sim_s"),
    _higher("sustainable_rate_rps", "1/sim_s"),
    _higher("overload_goodput_frac", "1"),
    _lower("overload_safety_violations", "count"),
)

COUNTERS = (
    _lower("net.events", "count"),
    _lower("net.events_per_msg", "1"),
    _higher("net.events_per_s", "1/s"),
    _lower("net.msgs_sent", "count"),
    _lower("net.bytes_sent", "B"),
    _lower("net.msgs_per_commit", "1"),
    _higher("pbft.commits", "count"),
    _lower("pbft.view_changes", "count"),
    _lower("pbft.client_retries", "count"),
    _lower("core.era_switches", "count"),
    _higher("chain.blocks_applied", "count"),
    _lower("chain.height_spread", "count"),
    _lower("geo.reports_sent", "count"),
    _higher("workloads.offered", "count"),
    _higher("codec.roundtrips", "count"),
    _higher("codec.bytes", "B"),
) + tuple(_lower(f"ladder.p95_sim_s.r{rate}", "sim_s") for rate in LADDER_RATES)

TRACED = (
    tuple(_lower(name, "s") for name in LAYER_SECONDS)
    + tuple(_lower(f"{layer}.share", "1") for layer in LAYERS)
    + (
        _lower("net.us_per_msg", "us"),
        _lower("pbft.us_per_msg", "us"),
        _lower("codec.us_per_roundtrip", "us"),
        _lower("host.raw_wall_s", "s"),
        _lower("host.ref_loop_s", "s"),
        _lower("obs.on_overhead_ratio", "1"),
        _lower("verify.on_overhead_ratio", "1"),
        _higher("trace.coverage", "1"),
        _lower("trace.overhead_ratio", "1"),
        _lower("trace.unresolved_seams", "count"),
    )
)

PER_LAYER = SIMULATED + COUNTERS + TRACED

#: Per-layer metrics a run without tracing can already report.
UNTRACED = frozenset(m.name for m in SIMULATED + COUNTERS)

#: Those of them fixed by the seed: equal in every round, run and process.
#: The two left out divide a simulated count by host seconds.
DETERMINISTIC = UNTRACED - {"commits_per_s", "net.events_per_s"}


def benchmark_json() -> dict[str, object]:
    """The contract file, rendered from this module."""
    return {
        "command": ["python3", "perfbench/run.py", "run"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [m.as_json() for m in END_TO_END],
        "per_layer": [m.as_json() for m in PER_LAYER],
    }
