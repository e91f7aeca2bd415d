"""Table reproductions: II (election table), III (headline numbers),
IV (consensus-mechanism comparison)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import ElectionConfig
from repro.core.election import ElectionTable
from repro.experiments.engine import Engine, PointSpec
from repro.experiments.profiles import ExperimentProfile, active_profile
from repro.geo.coords import LatLng
from repro.geo.reports import GeoReport
from repro.metrics.collector import render_table


@dataclass
class TableResult:
    """One reproduced table: structured values plus a text rendering."""

    table_id: str
    values: dict
    text: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def table2() -> TableResult:
    """Table II: an election table accumulating a geographic timer.

    Replays the paper's example: a device at one CSC reports at
    2019-08-05 18:00:00, 18:56:04, then 00:00, 06:00, 12:00 the next
    day; the timer grows from 0 to 18:56:04.
    """
    # offsets (seconds) of the paper's five timestamps from the first
    offsets = [0.0, 56 * 60 + 4.0, 6 * 3600.0 + 56 * 60 + 4, 12 * 3600.0 + 56 * 60 + 4,
               18 * 3600.0 + 56 * 60 + 4]
    table = ElectionTable(ElectionConfig(report_interval_s=6 * 3600.0))
    device = 1
    position = LatLng(22.3193, 114.1694)
    rows = []
    for at in offsets:
        entry = table.observe(GeoReport(node=device, position=position, timestamp=at))
        rows.append(entry)
    rendered = render_table(
        ["#", "CSC (geohash)", "timestamp (s)", "geographic timer (s)"],
        [
            [str(i + 1), r.csc_geohash, f"{r.timestamp:.0f}", f"{r.geographic_timer:.0f}"]
            for i, r in enumerate(rows)
        ],
        title="Table II -- election table (timer accumulates while the CSC is unchanged)",
    )
    timers = [r.geographic_timer for r in rows]
    return TableResult(
        table_id="table2",
        values={"timers": timers, "final_timer_s": timers[-1]},
        text=rendered,
    )


#: Paper Table III reference values at n = 202.
PAPER_TABLE3 = {
    "pbft_latency_s": 251.47,
    "gpbft_latency_s": 5.64,
    "pbft_cost_kb": 8571.32,
    "gpbft_cost_kb": 380.29,
}


def table3(profile: ExperimentProfile | None = None,
           engine: Engine | None = None) -> TableResult:
    """Table III: latency and cost at the headline node count.

    The paper's point is n = 202 (``paper`` profile); the quick profile
    evaluates its own headline point with the same machinery.
    """
    p = profile or active_profile()
    eng = engine if engine is not None else Engine(jobs=1, use_cache=False)
    n = p.headline_n
    reps = p.reps
    specs = []
    for protocol in ("pbft", "gpbft"):
        for rep in range(reps):
            specs.append(PointSpec.make(
                protocol, "latency", n, 31_000 + rep,
                **p.latency_point_kwargs(protocol)))
    specs.append(PointSpec.make("pbft", "traffic", n))
    specs.append(PointSpec.make("gpbft", "traffic", n,
                                max_endorsers=p.max_endorsers))
    values = eng.map(specs)
    pbft_lat = [s for v in values[:reps] for s in v]
    gpbft_lat = [s for v in values[reps:2 * reps] for s in v]
    pbft_mean = sum(pbft_lat) / len(pbft_lat)
    gpbft_mean = sum(gpbft_lat) / len(gpbft_lat)
    pbft_kb, gpbft_kb = values[2 * reps], values[2 * reps + 1]

    values = {
        "n": n,
        "pbft_latency_s": pbft_mean,
        "gpbft_latency_s": gpbft_mean,
        "pbft_cost_kb": pbft_kb,
        "gpbft_cost_kb": gpbft_kb,
        "latency_ratio": gpbft_mean / pbft_mean,
        "cost_ratio": gpbft_kb / pbft_kb,
    }
    rendered = render_table(
        ["consensus", "average latency (s)", "average cost (KB)"],
        [
            ["PBFT", f"{pbft_mean:.2f}", f"{pbft_kb:.2f}"],
            ["G-PBFT", f"{gpbft_mean:.2f}", f"{gpbft_kb:.2f}"],
            [
                "G-PBFT / PBFT",
                f"{100 * values['latency_ratio']:.2f}% (paper: 2.24%)",
                f"{100 * values['cost_ratio']:.2f}% (paper: 4.43%)",
            ],
        ],
        title=f"Table III -- measured at n = {n} ({p.name} profile)",
    )
    return TableResult(table_id="table3", values=values, text=rendered)


def table4(engine: Engine | None = None) -> TableResult:
    """Table IV: qualitative consensus comparison with measured proxies.

    The qualitative rows are the paper's; the G-PBFT row's speed /
    scalability / overhead entries are backed by measured proxies
    produced by this harness (latency flatness past the committee cap
    and the bounded per-transaction traffic).
    """
    qualitative = [
        ["BFT", "Permissioned", "High", "Low", "High", "Low", "<33.3% Replicas"],
        ["PBFT", "Permissioned", "High", "Low", "High", "Low", "<33.3% Faulty Replicas"],
        ["dBFT", "Permissioned", "Low", "High", "High", "Low", "<33.3% Faulty Replicas"],
        ["PoW", "Permissionless", "Low", "Low", "High", "High", "<25% Computing Power"],
        ["PoS", "Permissionless", "Low", "Low", "High", "Low", "<50% Stake"],
        ["DPoS", "Permissionless", "High", "Low", "Low", "Low", "<50% Validators"],
        ["PoA", "Permissionless", "Low", "High", "Low", "Low", "<50% of Online Stake"],
        ["PoSpace", "Permissionless", "Low", "Low", "High", "Low", "<50% Space"],
        ["PoI", "Permissionless", "Low", "Low", "High", "Low", "<50% Stake"],
        ["PoB", "Permissionless", "Low", "Low", "High", "Low", "<50% Coins"],
        ["G-PBFT", "Permissionless", "High", "High", "Low", "Low", "<33.3% Endorsers"],
    ]
    # measured proxies for the G-PBFT row
    eng = engine if engine is not None else Engine(jobs=1, use_cache=False)
    small_kb, big_kb, pbft_big_kb = eng.map([
        PointSpec.make("gpbft", "traffic", 12, max_endorsers=8),
        PointSpec.make("gpbft", "traffic", 60, max_endorsers=8),
        PointSpec.make("pbft", "traffic", 60),
    ])
    values = {
        "gpbft_cost_growth": big_kb / small_kb,
        "gpbft_vs_pbft_cost": big_kb / pbft_big_kb,
    }
    rendered = render_table(
        ["Consensus", "Blockchain type", "Speed", "Scalability",
         "Network overhead", "Computing overhead", "Adversary tolerance"],
        qualitative,
        title="Table IV -- consensus comparison (G-PBFT row backed by measurements)",
    ) + (
        f"\n\nmeasured proxies: G-PBFT per-tx cost grows x{values['gpbft_cost_growth']:.2f} "
        f"from 12 to 60 nodes (committee capped), and is "
        f"{100 * values['gpbft_vs_pbft_cost']:.1f}% of PBFT's at 60 nodes"
    )
    return TableResult(table_id="table4", values=values, text=rendered)


def table4_measured() -> TableResult:
    """Table IV, measured: run PBFT/G-PBFT/dBFT/PoW/PoS on one workload.

    An extension beyond the paper: the qualitative High/Low entries are
    replaced by live latency, scalability, traffic, and hash-work
    measurements from :mod:`repro.baselines` at 8 and 32 nodes, seed 0.
    """
    from repro.baselines import measured_table4

    rows, text = measured_table4(n_small=8, n_large=32, seed=0)
    values = {row.name: {
        "latency_small_s": row.latency_small_s,
        "latency_large_s": row.latency_large_s,
        "growth": row.latency_growth,
        "kb_per_tx": row.kb_per_tx,
        "hashes_per_tx": row.hashes_per_tx,
    } for row in rows}
    return TableResult(table_id="table4-measured", values=values, text=text)
