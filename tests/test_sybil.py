"""Tests: Sybil attack models and the geographic defences (repro.sybil)."""

import pytest

from repro.common.config import (
    CommitteeConfig,
    ElectionConfig,
    EraConfig,
    GPBFTConfig,
    TopologySpec,
)
from repro.common.errors import ConsensusError
from repro.common.rng import DeterministicRNG
from repro.geo.coords import LatLng, Region
from repro.geo.reports import GeoReport
from repro.geo.verification import LocationAuditor
from repro.sybil import (
    GroundTruthWitnessOracle,
    ReportAdmission,
    SybilAttacker,
    SybilStrategy,
)

HK = LatLng(22.3193, 114.1694)
DENSE = Region.around(HK, 150.0)

FAST = GPBFTConfig(
    election=ElectionConfig(
        stationary_hours=1.0, report_interval_s=900.0, min_reports=3,
        audit_window_s=7200.0,
    ),
    era=EraConfig(period_s=7200.0, switch_duration_s=0.25),
    committee=CommitteeConfig(min_endorsers=4, max_endorsers=40),
)


def protected_deployment(seed=7):
    return TopologySpec.single(
        10, 4, config=FAST, seed=seed, sybil_protection=True, region=DENSE,
        witness_range_m=200.0).build()


class TestAttackerModel:
    def test_spawn_assigns_claims_per_strategy(self):
        attacker = SybilAttacker(HK, DENSE, SybilStrategy.OWN_CELL,
                                 DeterministicRNG(1))
        ids = attacker.spawn_identities([100, 101])
        assert all(i.claimed_position == HK for i in ids)

    def test_clone_cell_needs_honest_positions(self):
        attacker = SybilAttacker(HK, DENSE, SybilStrategy.CLONE_CELL)
        with pytest.raises(ConsensusError):
            attacker.spawn_identities([100])
        ids = attacker.spawn_identities([100], {1: HK.offset_m(50, 0)})
        assert ids[0].claimed_position == HK.offset_m(50, 0)

    def test_fabricated_reports_claim_fake_spot(self):
        attacker = SybilAttacker(HK, DENSE, SybilStrategy.EMPTY_CELL,
                                 DeterministicRNG(2))
        identity = attacker.spawn_identities([100])[0]
        report = attacker.fabricate_report(identity, now=5.0)
        assert report.node == 100
        assert report.position == identity.claimed_position

    def test_control_threshold_is_one_third(self):
        attacker = SybilAttacker(HK, DENSE)
        attacker.spawn_identities([100, 101])
        assert not attacker.controls_consensus([1, 2, 3, 4, 100])
        assert attacker.controls_consensus([1, 2, 100, 101])


class TestAdmissionFilter:
    def _admission(self, positions, **kwargs):
        oracle = GroundTruthWitnessOracle(positions, witness_range_m=200.0)
        auditor = LocationAuditor(witness_range_m=200.0, min_witnesses=1,
                                  round_seconds=900.0)
        return ReportAdmission(auditor, oracle, **kwargs)

    def test_truthful_report_with_neighbors_accepted(self):
        positions = {1: HK, 2: HK.offset_m(50, 0)}
        admission = self._admission(positions)
        assert admission.admit(GeoReport(node=1, position=HK, timestamp=0.0))
        assert admission.stats.accepted == 1

    def test_far_fabricated_claim_rejected(self):
        positions = {1: HK, 2: HK.offset_m(50, 0), 99: HK.offset_m(10, 10)}
        admission = self._admission(positions)
        fake_spot = HK.offset_m(120.0, 0)  # >30 m from node 99's true spot
        assert not admission.admit(GeoReport(node=99, position=fake_spot, timestamp=0.0))

    def test_repeat_offender_flagged(self):
        positions = {1: HK, 2: HK.offset_m(50, 0), 99: HK.offset_m(10, 10)}
        admission = self._admission(positions, flag_threshold=2)
        fake = HK.offset_m(150.0, 0)
        for t in (0.0, 100.0):
            admission.admit(GeoReport(node=99, position=fake, timestamp=t))
        assert 99 in admission.flagged
        # even a truthful report is now refused
        truthful = HK.offset_m(10, 10)
        assert not admission.admit(GeoReport(node=99, position=truthful, timestamp=200.0))

    def test_cell_tenancy_blocks_second_identity(self):
        # two ids, one physical spot (OWN_CELL): second claim bounces
        positions = {1: HK, 2: HK.offset_m(50, 0), 100: HK, 101: HK}
        admission = self._admission(positions)
        assert admission.admit(GeoReport(node=100, position=HK, timestamp=0.0))
        assert not admission.admit(GeoReport(node=101, position=HK, timestamp=10.0))

    def test_tenancy_expires_after_round(self):
        positions = {1: HK, 2: HK.offset_m(50, 0), 100: HK, 101: HK}
        admission = self._admission(positions)
        assert admission.admit(GeoReport(node=100, position=HK, timestamp=0.0))
        assert admission.admit(GeoReport(node=101, position=HK, timestamp=2000.0))

    def test_clone_cannot_grief_true_occupant(self):
        # clone (node 99, physically elsewhere) claims node 1's cell first;
        # the true occupant must still be admitted
        positions = {1: HK, 2: HK.offset_m(50, 0), 99: HK.offset_m(140, 0)}
        admission = self._admission(positions)
        assert not admission.admit(GeoReport(node=99, position=HK, timestamp=0.0))
        assert admission.admit(GeoReport(node=1, position=HK, timestamp=1.0))


class TestEndToEndAttack:
    @pytest.mark.parametrize("strategy,max_infiltrated", [
        (SybilStrategy.EMPTY_CELL, 0),
        (SybilStrategy.CLONE_CELL, 0),
        (SybilStrategy.OWN_CELL, 1),  # the physically-present identity
    ])
    def test_protected_deployment_bounds_attack(self, strategy, max_infiltrated):
        dep = protected_deployment()
        attacker = dep.add_sybils(8, strategy=strategy)
        dep.run(until=3 * 7200.0 + 100)
        committee = dep.committee
        sybil_members = {i.node_id for i in attacker.identities} & set(committee)
        assert len(sybil_members) <= max_infiltrated
        assert not attacker.controls_consensus(committee)
        # honest fixed devices must still be electable
        honest = [m for m in committee if m < 10]
        assert len(honest) == 10

    def test_unprotected_deployment_is_taken_over(self):
        dep = TopologySpec.single(
            10, 4, config=FAST, seed=7, sybil_protection=False, region=DENSE).build()
        attacker = dep.add_sybils(12, strategy=SybilStrategy.EMPTY_CELL)
        dep.run(until=3 * 7200.0 + 100)
        assert attacker.controls_consensus(dep.committee)

    def test_ledger_stays_consistent_under_attack(self):
        dep = protected_deployment(seed=9)
        dep.add_sybils(6, strategy=SybilStrategy.EMPTY_CELL)
        dep.run(until=2 * 7200.0 + 100)
        rid = dep.submit_from(9)
        dep.run(until=dep.sim.now + 120)
        assert rid in dep.nodes[9].client.completed
        assert dep.ledgers_consistent()

    def test_sybil_nodes_are_built_like_every_other_node(self):
        from repro.obs import Observability

        obs = Observability()
        dep = TopologySpec.single(
            10, 4, config=FAST, seed=7, sybil_protection=True, region=DENSE,
            mode="block", block_interval_s=2.0).build(obs=obs)
        attacker = dep.add_sybils(3, strategy=SybilStrategy.EMPTY_CELL)
        for identity in attacker.identities:
            node = dep.nodes[identity.node_id]
            assert node.block_interval_s == 2.0 and node.obs is obs  # gpb: allow GPB004 -- the spec value handed through unchanged, never computed
            assert node.admission is not None
            assert node.position == identity.claimed_position
            assert dep.directory[identity.node_id] == identity.true_position
