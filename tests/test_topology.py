"""The TopologySpec API: validation, build dispatch, and the
hierarchical (multi-zone) layer.

``TopologySpec.*().build()`` is the only way to build a host; these
tests pin the contract:

* each spec shape builds its host class;
* a multi-zone spec builds a hierarchical deployment whose top-level
  committee orders inter-zone transactions through zone checkpoints,
  and the cross-shard prefix monitor catches a planted bypass.
"""

import pytest

from repro.common.config import (
    GPBFTConfig,
    TopologySpec,
    VerifyConfig,
    ZONE_ID_STRIDE,
    ZoneSpec,
)
from repro.common.errors import ConfigurationError
from repro.common.eventlog import (
    EV_XZONE_COMMITTED,
    EV_XZONE_DELIVERED,
    EV_XZONE_ORDERED,
)
from repro.core.deployment import GPBFTDeployment
from repro.core.hierarchy import HierarchicalDeployment, top_seats
from repro.geo.coords import LatLng, Region
from repro.pbft.cluster import PBFTCluster
from repro.pbft.faults import XZoneBypassFaults
from repro.verify import InvariantViolation

REGION = Region.around(LatLng(22.3193, 114.1694), half_side_m=500.0)


def _monitored() -> GPBFTConfig:
    base = GPBFTConfig()
    return base.replace(verify=VerifyConfig(monitors=True))


class TestSpecValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(protocol="raft")

    def test_pbft_takes_no_zones(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(protocol="pbft",
                         zones=(ZoneSpec(name="z0", n_nodes=4),))

    def test_gpbft_needs_a_zone(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(protocol="gpbft", zones=())

    def test_zone_names_must_be_unique(self):
        zones = (ZoneSpec(name="z", n_nodes=4, region=REGION),
                 ZoneSpec(name="z", n_nodes=4, region=REGION,
                          id_base=ZONE_ID_STRIDE))
        with pytest.raises(ConfigurationError):
            TopologySpec(zones=zones)

    def test_zone_id_ranges_must_not_overlap(self):
        zones = (ZoneSpec(name="a", n_nodes=8, region=REGION),
                 ZoneSpec(name="b", n_nodes=4, region=REGION, id_base=4))
        with pytest.raises(ConfigurationError):
            TopologySpec(zones=zones)

    def test_multi_zone_needs_regions(self):
        zones = (ZoneSpec(name="a", n_nodes=4),
                 ZoneSpec(name="b", n_nodes=4, id_base=ZONE_ID_STRIDE))
        with pytest.raises(ConfigurationError):
            TopologySpec(zones=zones)

    def test_zoned_builder_shape(self):
        spec = TopologySpec.zoned(3, 5)
        assert spec.n_zones == 3
        assert top_seats(spec.n_zones) == 4  # max(4, n_zones)
        assert [z.id_base for z in spec.zones] == \
            [0, ZONE_ID_STRIDE, 2 * ZONE_ID_STRIDE]
        assert len({z.name for z in spec.zones}) == 3
        assert all(z.region is not None for z in spec.zones)

    def test_zone_of_node_uses_id_ranges(self):
        spec = TopologySpec.zoned(2, 6)
        assert spec.zone_of_node(0) == 0
        assert spec.zone_of_node(ZONE_ID_STRIDE + 5) == 1
        with pytest.raises(ConfigurationError):
            spec.zone_of_node(ZONE_ID_STRIDE + 6)

    def test_single_zone_seed_is_the_spec_seed(self):
        # bit-identity depends on the degenerate spec not perturbing
        # the seed the legacy constructor would have used
        assert TopologySpec.single(8, seed=7).zone_seed(0) == 7
        multi = TopologySpec.zoned(2, 6, seed=7)
        assert multi.zone_seed(0) != multi.zone_seed(1)


class TestBuildDispatch:
    def test_single_builds_gpbft_deployment(self):
        host = TopologySpec.single(6, 4, seed=1, start_reports=False).build()
        assert isinstance(host, GPBFTDeployment)
        assert sorted(host.nodes) == list(range(6))

    def test_cluster_builds_pbft_cluster(self):
        host = TopologySpec.cluster(n_replicas=4, n_clients=2).build()
        assert isinstance(host, PBFTCluster)
        assert len(host.replicas) == 4 and len(host.clients) == 2

    def test_zoned_builds_hierarchical_deployment(self):
        host = TopologySpec.zoned(2, 5, seed=1).build()
        assert isinstance(host, HierarchicalDeployment)
        assert len(host.zones) == 2
        assert sorted(host.nodes) == \
            list(range(5)) + list(range(ZONE_ID_STRIDE, ZONE_ID_STRIDE + 5))


class TestHierarchicalDeployment:
    def test_two_zones_commit_an_inter_zone_tx(self):
        spec = TopologySpec.zoned(2, 6, config=_monitored(), seed=1,
                                  start_reports=False)
        hier = spec.build()
        tx_id = hier.submit_xzone(0, dst_zone=1)
        hier.run_for(40.0)
        assert hier.events.count(EV_XZONE_ORDERED) >= 1
        assert tx_id in hier.committed_xzone(1)
        assert hier.ledgers_consistent()
        hier.monitors.check_final()  # zero violations on the clean run

    def test_bypass_fault_trips_cross_shard_monitor(self):
        spec = TopologySpec.zoned(2, 6, config=_monitored(), seed=1,
                                  start_reports=False)
        hier = spec.build(faults={0: XZoneBypassFaults()})
        hier.submit_xzone(0, dst_zone=1)
        with pytest.raises(InvariantViolation) as exc:
            hier.run_for(40.0)
        assert exc.value.monitor == "cross-shard-prefix"

    def test_xzone_commit_events_name_both_zones(self):
        spec = TopologySpec.zoned(2, 6, config=_monitored(), seed=2,
                                  start_reports=False)
        hier = spec.build()
        hier.submit_xzone(ZONE_ID_STRIDE, dst_zone=0)  # zone 1 -> zone 0
        hier.run_for(40.0)
        events = [e for e in hier.events if e.kind == EV_XZONE_COMMITTED]
        assert events and all(e.data["src_zone"] == 1 and e.data["zone"] == 0
                              for e in events)

    def test_duplicate_delivery_after_commit_is_ignored(self):
        spec = TopologySpec.zoned(2, 6, config=_monitored(), seed=1,
                                  start_reports=False)
        hier = spec.build()
        first = hier.submit_xzone(0, dst_zone=1)
        env = hier.gateways[0]._outbound[first]
        hier.submit_xzone(1, dst_zone=1)
        hier.run_for(40.0)
        commit_order = [e.data["tx_id"] for e in hier.events
                        if e.kind == EV_XZONE_COMMITTED
                        and e.data["zone"] == 1]
        assert len(commit_order) == 2
        assert hier.committed_xzone(1) == commit_order
        delivered = hier.events.count(EV_XZONE_DELIVERED)
        hier.gateways[1].receive(env)  # a late duplicate of a committed tx
        hier.run_for(40.0)
        assert hier.events.count(EV_XZONE_DELIVERED) == delivered
        assert hier.committed_xzone(1) == commit_order
        hier.monitors.check_final()
