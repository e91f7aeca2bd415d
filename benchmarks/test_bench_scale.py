"""Scale points: deployments larger than any figure sweep reaches.

The two 64-node points run under every profile.  The thousand-replica
round and the million-request day run only by hand, under
``GPBFT_BENCH_PROFILE=paper`` (about 30 s and 8 min); docs/performance.md
("Scale records") holds their last values.  Both note the simulator's
event count and the process's peak RSS in ``benchmark.extra_info``: a
high-water mark of the whole process, so select one point with ``-k``.
"""

import resource

import pytest

from repro.common.config import TopologySpec
from repro.experiments.engine import PointSpec, run_point
from repro.experiments.profiles import active_profile
from repro.experiments.scenario import last_event_count
from repro.workloads.profiles import (
    GATEWAY_CLASS, INFRA_CLASS, SENSOR_CLASS, FleetMix)


def _hier_2zone():
    hier = TopologySpec.zoned(2, 32, seed=1, start_reports=False).build()
    hier.submit_xzone(0, dst_zone=1)
    hier.run_for(30.0)
    return hier


def test_hier_2zone_n64(run_once):
    """An inter-zone transaction commits through the checkpoint layer."""
    assert run_once(_hier_2zone).committed_xzone(1)


def _hetero_fleet():
    mix = FleetMix.of((INFRA_CLASS, 8), (GATEWAY_CLASS, 16), (SENSOR_CLASS, 40))
    dep = TopologySpec.single(64, 8, seed=1, start_reports=False,
                              profiles=mix).build()
    for node_id in (60, 61, 62, 63):
        dep.submit_from(node_id)
    dep.run(until=60.0)
    return dep


def test_hetero_n64(run_once):
    """A mixed fleet commits under per-node rates and duty cycles."""
    assert run_once(_hetero_fleet).completed_latencies()


paper_only = pytest.mark.skipif(active_profile().name != "paper",
                                reason="run by hand: GPBFT_BENCH_PROFILE=paper")


@pytest.fixture()
def run_heavy_point(run_once, benchmark):
    """Run one engine point; note its event count and peak RSS."""

    def _run(spec):
        value = run_once(run_point, spec)
        benchmark.extra_info["sim_events"] = last_event_count()
        # ru_maxrss is in KiB on Linux
        benchmark.extra_info["peak_rss_mb"] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
        return value

    return _run


@paper_only
def test_pbft_traffic_n1000(run_heavy_point):
    """One transaction through 1000 replicas; raises unless it commits."""
    assert run_heavy_point(PointSpec.make("pbft", "traffic", 1000)) > 0.0


@paper_only
def test_agg_day_1M(run_heavy_point):
    """A diurnal day over 12 aggregated zones, every log bounded."""
    out = run_heavy_point(PointSpec.make(
        "gpbft", "agg", 1_050_000, zones=12, duration_s=86_400.0,
        profile="diurnal"))
    assert out["completed"] >= 1_000_000, out
