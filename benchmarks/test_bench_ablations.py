"""Ablation benches for the design choices DESIGN.md calls out.

1. Committee-cap sweep: latency and traffic vs the max-endorser cap
   (the paper fixes 40; this shows the tradeoff curve).
2. Era-period sweep: the paper argues T must be "neither too small nor
   too large" (section III-E) -- measure throughput lost to switch
   periods as T shrinks.
3. Election-threshold sweep: stationary-hours requirement vs how long
   the committee takes to fill.
4. Sybil-defence sweep: infiltration vs attacker size, with and without
   geographic protection.
5. Latency-model ablation: the PBFT/G-PBFT gap must survive swapping the
   propagation model (it is a processing effect, not a propagation one).
"""

import pytest

from repro.common.config import (
    CommitteeConfig,
    ElectionConfig,
    EraConfig,
    GPBFTConfig,
    TopologySpec,
)
from repro.experiments.engine import PointSpec, run_point
from repro.geo.coords import LatLng, Region
from repro.net.latency import ConstantLatency, DistanceLatency, LognormalLatency
from repro.sybil import SybilStrategy

DENSE = Region.around(LatLng(22.3193, 114.1694), half_side_m=150.0)


def _fast_config(max_endorsers=40, era_period=7200.0, stationary_hours=1.0):
    return GPBFTConfig(
        election=ElectionConfig(
            stationary_hours=stationary_hours,
            report_interval_s=900.0,
            min_reports=3,
            audit_window_s=7200.0,
        ),
        era=EraConfig(period_s=era_period, switch_duration_s=0.25),
        committee=CommitteeConfig(min_endorsers=4, max_endorsers=max_endorsers),
    )


def _committee_cap_sweep():
    rows = []
    for cap in (4, 8, 12, 16, 24):
        lat = run_point(PointSpec.make(
            "gpbft", "latency", 30, seed=1, proposal_period_s=1e9,
            measured=1, warmup=0, max_endorsers=cap))[0]
        kb = run_point(PointSpec.make("gpbft", "traffic", 30, max_endorsers=cap))
        rows.append((cap, lat, kb))
    return rows


def test_ablation_committee_cap(run_once):
    rows = run_once(_committee_cap_sweep)
    print("\ncommittee cap ablation (n = 30 nodes)")
    print(f"{'cap':>4} {'latency (s)':>12} {'traffic (KB)':>13}")
    for cap, lat, kb in rows:
        print(f"{cap:>4} {lat:>12.2f} {kb:>13.1f}")
    lats = [r[1] for r in rows]
    kbs = [r[2] for r in rows]
    # bigger committee: strictly more latency and traffic
    assert lats == sorted(lats)
    assert kbs == sorted(kbs)
    # traffic grows ~quadratically in the cap
    assert kbs[-1] / kbs[0] > (24 / 4) ** 2 / 3


def _era_period_sweep():
    """Committed transactions in a fixed horizon vs era period T."""
    rows = []
    horizon = 600.0
    for period in (30.0, 120.0, 600.0):
        dep = TopologySpec.single(
            8, 6, config=_fast_config(era_period=1e12), seed=3, start_reports=False).build()
        # force composition-preserving switches every `period` seconds
        def reschedule(p=period, d=dep):
            d.force_era_switch()
            d.sim.schedule(p, reschedule)
        dep.sim.schedule(period, reschedule)
        for k in range(12):
            node = dep.nodes[6 + (k % 2)]
            dep.sim.schedule_at(1.0 + k * horizon / 12, node.submit_transaction)
        dep.run(until=horizon)
        committed = {e.data["tx_id"] for e in dep.events.of_kind("tx.committed")}
        switch_time = dep.nodes[0].era_history.total_switch_time()
        rows.append((period, len(committed), switch_time))
    return rows


def test_ablation_era_period(run_once):
    rows = run_once(_era_period_sweep)
    print("\nera period ablation (600 s horizon, 12 submissions)")
    print(f"{'T (s)':>7} {'committed':>10} {'switching (s)':>14}")
    for period, committed, switch_time in rows:
        print(f"{period:>7.0f} {committed:>10d} {switch_time:>14.2f}")
    # more frequent switches spend strictly more time switching
    switch_times = [r[2] for r in rows]
    assert switch_times == sorted(switch_times, reverse=True)
    # and never gain throughput
    assert rows[0][1] <= rows[-1][1]


def _election_threshold_sweep():
    rows = []
    for hours in (0.5, 1.0, 2.0):
        dep = TopologySpec.single(
            10, 4, config=_fast_config(stationary_hours=hours), seed=4).build()
        filled_at = None
        horizon = 6 * 7200.0
        while dep.sim.now < horizon:
            dep.run(until=dep.sim.now + 1800.0)
            if len(dep.committee) == 10:
                filled_at = dep.sim.now
                break
        rows.append((hours, filled_at))
    return rows


def test_ablation_election_threshold(run_once):
    rows = run_once(_election_threshold_sweep)
    print("\nelection threshold ablation (10 nodes, fill to 10 endorsers)")
    print(f"{'hours':>6} {'filled at (s)':>14}")
    for hours, filled_at in rows:
        print(f"{hours:>6.1f} {str(filled_at):>14}")
    times = [t for _, t in rows]
    assert all(t is not None for t in times)
    # a stricter threshold can never fill the committee sooner
    assert times == sorted(times)


def _sybil_sweep():
    rows = []
    for count in (4, 8, 16):
        for protected in (False, True):
            dep = TopologySpec.single(
                10, 4, config=_fast_config(), seed=5, sybil_protection=protected, region=DENSE,
                witness_range_m=200.0).build()
            attacker = dep.add_sybils(count, strategy=SybilStrategy.EMPTY_CELL)
            dep.run(until=3 * 7200.0 + 100)
            rows.append((count, protected,
                         attacker.committee_fraction(dep.committee)))
    return rows


def test_ablation_sybil_defence(run_once):
    rows = run_once(_sybil_sweep)
    print("\nSybil defence ablation (EMPTY_CELL strategy)")
    print(f"{'sybils':>7} {'protected':>10} {'committee fraction':>19}")
    for count, protected, frac in rows:
        print(f"{count:>7d} {str(protected):>10} {frac:>19.2%}")
    for count, protected, frac in rows:
        if protected:
            assert frac == 0.0
        elif count >= 8:
            assert frac >= 1 / 3  # unprotected: attacker takes control


def _witness_density_sweep():
    """Honest-election success vs deployment density under Sybil protection.

    The admission filter demands witness corroboration; devices without
    neighbours in observation range can never be corroborated, so the
    defence trades Sybil resistance against coverage in sparse scenes.
    """
    rows = []
    for half_side_m in (100.0, 250.0, 700.0):
        region = Region.around(LatLng(22.3193, 114.1694), half_side_m=half_side_m)
        dep = TopologySpec.single(
            12, 4, config=_fast_config(), seed=6, sybil_protection=True, region=region,
            witness_range_m=200.0).build()
        dep.run(until=3 * 7200.0 + 100)
        honest_elected = sum(1 for m in dep.committee if 4 <= m < 12)
        rows.append((2 * half_side_m, honest_elected))
    return rows


def test_ablation_witness_density(run_once):
    rows = run_once(_witness_density_sweep)
    print("\nwitness density ablation (8 honest candidates, 200 m range)")
    print(f"{'region side (m)':>16} {'honest elected':>15}")
    for side, elected in rows:
        print(f"{side:>16.0f} {elected:>15d}/8")
    elected_counts = [e for _, e in rows]
    # dense scenes elect everyone; sparse scenes strand unwitnessed devices
    assert elected_counts[0] == 8
    assert elected_counts[-1] < elected_counts[0]
    # coverage decays monotonically with sparsity
    assert elected_counts == sorted(elected_counts, reverse=True)


def _latency_model_sweep():
    from repro.pbft import RawOperation

    from repro.common.rng import DeterministicRNG

    placement = DeterministicRNG(11, "ablation-placement")
    positions = {i: DENSE.sample(placement) for i in range(64)}
    results = []
    models = {
        "constant": ConstantLatency(0.01),
        "lognormal": LognormalLatency(0.01, sigma=0.5),
        "distance": DistanceLatency(positions, per_hop_s=0.005),
    }
    for name, model in models.items():
        def latency_for(n, model=model):
            cluster = TopologySpec.cluster(n, 1).build()
            cluster.network.latency = model
            rid = cluster.submit(RawOperation("probe", size_bytes=200))
            cluster.run(until=10_000)
            return cluster.any_client.completed[rid]

        gap = latency_for(32) / latency_for(8)
        results.append((name, gap))
    return results


def test_ablation_latency_model(run_once):
    rows = run_once(_latency_model_sweep)
    print("\nlatency-model ablation: PBFT n=32 vs n=8 latency ratio")
    for name, gap in rows:
        print(f"  {name:<10} x{gap:.2f}")
    # the committee-size gap is a processing effect: it must survive
    # every propagation model at roughly the same magnitude
    for name, gap in rows:
        assert gap > 2.0, f"{name}: expected >2x gap, got {gap:.2f}"
