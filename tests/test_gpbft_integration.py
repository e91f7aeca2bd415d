"""Integration tests: the full G-PBFT protocol over a deployment.

Covers transaction flow, election-driven era switches, eviction, the
no-commit-during-switch invariant, committee announcements to devices,
chain sync for new endorsers, and block-production mode.
"""

import itertools

import pytest

from repro.common.config import (
    CommitteeConfig,
    ElectionConfig,
    EraConfig,
    GPBFTConfig,
    TopologySpec,
)
from repro.geo.coords import LatLng
from repro.common.eventlog import EV_BLOCK_COMMITTED, EV_GPBFT_HALTED_BELOW_MINIMUM, EV_TX_COMMITTED


def fast_config(max_endorsers=40, min_endorsers=4, era_period=7200.0):
    return GPBFTConfig(
        election=ElectionConfig(
            stationary_hours=1.0,
            report_interval_s=900.0,
            min_reports=3,
            audit_window_s=7200.0,
        ),
        era=EraConfig(period_s=era_period, switch_duration_s=0.25),
        committee=CommitteeConfig(
            min_endorsers=min_endorsers, max_endorsers=max_endorsers
        ),
    )


class TestTransactionFlow:
    def test_device_transaction_commits_on_all_ledgers(self):
        dep = TopologySpec.single(12, 4, seed=1).build()
        rid = dep.submit_from(10)
        dep.run(until=120)
        assert rid in dep.nodes[10].client.completed
        assert dep.ledgers_consistent()
        for endorser in dep.endorsers:
            assert endorser.ledger.height == 1

    def test_endorser_can_submit_too(self):
        dep = TopologySpec.single(6, 6, seed=2).build()
        rid = dep.submit_from(3)
        dep.run(until=120)
        assert rid in dep.nodes[3].client.completed

    def test_latency_flat_beyond_committee_cap(self):
        def mean_latency(n_nodes):
            dep = TopologySpec.single(
                n_nodes, config=fast_config(max_endorsers=8), seed=3, start_reports=False).build()
            rids = [dep.submit_from(i) for i in range(min(3, n_nodes))]
            dep.run(until=600)
            lats = dep.completed_latencies()
            assert len(lats) == len(rids)
            return sum(lats.values()) / len(lats)

        small = mean_latency(8)
        large = mean_latency(40)
        # 5x the nodes, committee capped at 8: latency must stay flat
        assert large < small * 1.5

    def test_transactions_feed_election_table(self):
        dep = TopologySpec.single(10, 4, seed=4).build()
        dep.submit_from(9)
        dep.run(until=120)
        endorser = dep.nodes[0]
        assert endorser.election_table.history(9) is not None

    def test_geo_reports_populate_tables(self):
        dep = TopologySpec.single(8, 4, config=fast_config(), seed=5).build()
        dep.run(until=3 * 900.0 + 10)
        endorser = dep.nodes[0]
        assert sum(endorser.election_table.history(i) is not None
                   for i in dep.nodes) >= 6


class TestEraSwitches:
    def test_devices_elected_after_stationarity(self):
        dep = TopologySpec.single(10, 4, config=fast_config(), seed=6).build()
        dep.run(until=2 * 7200.0 + 200)
        assert dep.nodes[0].era >= 1
        assert len(dep.committee) == 10
        assert dep.ledgers_consistent()

    def test_new_endorsers_chain_synced(self):
        dep = TopologySpec.single(8, 4, config=fast_config(), seed=7).build()
        rid = dep.submit_from(7)
        dep.run(until=120)
        height_before = dep.nodes[0].ledger.height
        assert height_before >= 1
        dep.run(until=2 * 7200.0 + 200)
        for node in dep.endorsers:
            assert node.ledger.height >= height_before

    def test_moved_endorser_evicted(self):
        dep = TopologySpec.single(8, 5, config=fast_config(max_endorsers=5), seed=8).build()
        mover = dep.nodes[2]
        def wander():
            mover.move_to(LatLng(mover.position.lat + 0.001, mover.position.lng))
            dep.sim.schedule(900.0, wander)
        wander()
        dep.run(until=3 * 7200.0 + 200)
        assert not dep.nodes[2].is_member
        assert dep.ledgers_consistent()

    def test_silent_endorser_evicted_for_sparse_reports(self):
        # GPS outage: an endorser that stops reporting fails Algorithm 1's
        # Len(G) < n test and is evicted at the next audit
        dep = TopologySpec.single(8, 5, config=fast_config(max_endorsers=5), seed=42).build()
        silent = dep.nodes[3]
        def stop_reporting():
            if silent._report_timer is not None:
                silent._report_timer.cancel()
                silent._report_timer = None
        dep.sim.schedule(100.0, stop_reporting)
        dep.run(until=2 * 7200.0 + 7200.0 + 300.0)
        assert not dep.nodes[3].is_member
        assert dep.ledgers_consistent()

    def test_committee_never_exceeds_max(self):
        dep = TopologySpec.single(12, 4, config=fast_config(max_endorsers=6), seed=9).build()
        dep.run(until=3 * 7200.0 + 200)
        assert len(dep.committee) == 6

    def test_devices_learn_new_committee(self):
        dep = TopologySpec.single(14, 4, config=fast_config(max_endorsers=6), seed=10).build()
        dep.run(until=2 * 7200.0 + 200)
        committee = dep.committee
        for _, node in sorted(dep.nodes.items()):
            assert node.committee == committee

    def test_forced_switch_preserves_consistency(self):
        dep = TopologySpec.single(10, 6, seed=11, start_reports=False).build()
        dep.submit_from(8)
        dep.run(until=60)
        dep.force_era_switch()
        dep.run(until=120)
        assert dep.nodes[0].era == 1
        rid = dep.submit_from(9)
        dep.run(until=dep.sim.now + 120)
        assert rid in dep.nodes[9].client.completed
        assert dep.ledgers_consistent()

    def test_no_commit_during_switch_period(self):
        dep = TopologySpec.single(8, 6, seed=12, start_reports=False).build()
        dep.force_era_switch()
        dep.run(until=300)
        node = dep.nodes[0]
        periods = node.era_history.switch_periods()
        assert len(periods) == 1
        start, end = periods[0]
        assert end - start == pytest.approx(0.25)
        for event in dep.events.of_kind(EV_TX_COMMITTED):
            assert not (start <= event.at < end)

    def test_in_flight_tx_survives_switch(self):
        dep = TopologySpec.single(12, 8, seed=13, start_reports=False).build()
        # submit, then force the switch while consensus is in flight
        rid = dep.submit_from(10)
        dep.sim.schedule(1.0, dep.force_era_switch)
        dep.run(until=600)
        assert rid in dep.nodes[10].client.completed
        assert dep.ledgers_consistent()

    def test_era_history_records_switch(self):
        dep = TopologySpec.single(6, 6, seed=14, start_reports=False).build()
        dep.force_era_switch()
        dep.run(until=120)
        record = dep.nodes[0].era_history.current
        assert record.era == 1
        assert record.started_at - record.switch_started_at == pytest.approx(0.25)


class TestMinimumHalt:
    def test_below_minimum_halts_and_recovers(self):
        # min 6 endorsers; two of six go mobile and are evicted, dropping
        # the committee to 4 < min: the system must halt new transactions
        # (paper III-C) and recover once fresh candidates are elected
        config = fast_config(max_endorsers=8, min_endorsers=6)
        dep = TopologySpec.single(8, 6, config=config, seed=40).build()
        moving = {4, 5, 6, 7}

        def keep_moving(node_id: int) -> None:
            node = dep.nodes[node_id]

            def loop() -> None:
                if node_id not in moving:
                    return
                node.move_to(LatLng(node.position.lat + 0.001, node.position.lng))
                dep.sim.schedule(900.0, loop)

            loop()

        # endorsers 4, 5 go mobile (evicted); devices 6, 7 also move so
        # nothing refills the committee yet
        for node_id in sorted(moving):
            keep_moving(node_id)
        dep.run(until=2 * 7200.0 + 300.0)
        node0 = dep.nodes[0]
        assert len(dep.committee) == 4
        assert node0.halted_below_minimum
        assert dep.events.of_kind(EV_GPBFT_HALTED_BELOW_MINIMUM)

        # transactions are refused (buffered) while halted
        rid = dep.submit_from(6)
        dep.run(until=dep.sim.now + 60.0)
        assert rid not in dep.nodes[6].client.completed

        # recovery: devices 6 and 7 settle down, qualify, and get elected
        moving.clear()
        dep.run(until=dep.sim.now + 3 * 7200.0 + 300.0)
        assert len(dep.committee) >= 6
        assert not dep.nodes[0].halted_below_minimum
        dep.run(until=dep.sim.now + 200.0)
        assert rid in dep.nodes[6].client.completed
        assert dep.ledgers_consistent()


class TestBlockMode:
    def test_blocks_batch_transactions(self):
        dep = TopologySpec.single(12, 4, seed=15, mode="block", block_interval_s=2.0).build()
        for i in range(6, 12):
            dep.submit_from(i)
        dep.run(until=300)
        endorser = dep.nodes[0]
        assert endorser.ledger.height >= 1
        assert dep.ledgers_consistent()
        total_txs = sum(
            len(endorser.ledger.block_at(h).transactions)
            for h in range(1, endorser.ledger.height + 1)
        )
        assert total_txs == 6

    def test_producer_rewarded_70_30(self):
        dep = TopologySpec.single(8, 4, seed=16, mode="block", block_interval_s=2.0).build()
        dep.submit_from(6)
        dep.run(until=300)
        endorser = dep.nodes[0]
        events = dep.events.of_kind(EV_BLOCK_COMMITTED)
        assert events
        producer = events[0].data["producer"]
        fee = 1.0  # default fee of auto-generated transactions
        assert endorser.incentive.balance(producer) == pytest.approx(0.7 * fee)

    def test_mempool_drained_after_commit(self):
        dep = TopologySpec.single(8, 4, seed=17, mode="block", block_interval_s=2.0).build()
        for i in range(4, 8):
            dep.submit_from(i)
        dep.run(until=300)
        for endorser in dep.endorsers:
            assert len(endorser.mempool) == 0

    def test_unknown_mode_rejected(self):
        # the spec validates the mode before any node is built
        from repro.common.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            TopologySpec.single(6, 4, mode="bogus").build()


class TestDeploymentValidation:
    def test_too_few_endorsers(self):
        from repro.common.errors import ConsensusError
        with pytest.raises(ConsensusError):
            TopologySpec.single(10, 2).build()

    def test_more_endorsers_than_nodes(self):
        from repro.common.errors import ConsensusError
        with pytest.raises(ConsensusError):
            TopologySpec.single(4, 8).build()

    def test_default_committee_is_min_n_and_cap(self):
        dep = TopologySpec.single(10, config=fast_config(max_endorsers=6)).build()
        assert len(dep.committee) == 6
        dep = TopologySpec.single(5, config=fast_config(max_endorsers=6)).build()
        assert len(dep.committee) == 5


class TestCombinedConditions:
    def test_era_switch_under_message_loss(self):
        from dataclasses import replace

        config = fast_config()
        config = config.replace(network=replace(config.network, seed=60))
        dep = TopologySpec.single(10, 6, config=config, seed=60, start_reports=False).build()
        dep.network.set_drop_probability(0.03)
        rid1 = dep.submit_from(8)
        dep.sim.schedule(1.0, dep.force_era_switch)
        dep.run(until=3000)
        rid2 = dep.submit_from(9)
        dep.run(until=dep.sim.now + 3000)
        done = dep.completed_latencies()
        assert rid1 in done and rid2 in done
        assert dep.nodes[0].era == 1
        assert dep.ledgers_consistent()

    def test_back_to_back_era_switches(self):
        dep = TopologySpec.single(8, 6, seed=61, start_reports=False).build()
        for k in range(3):
            dep.sim.schedule(1.0 + 30.0 * k, dep.force_era_switch)
        rid = dep.submit_from(7)
        dep.run(until=600)
        assert dep.nodes[0].era == 3
        assert rid in dep.nodes[7].client.completed
        assert dep.ledgers_consistent()
        # the era history is intact through all three switches
        records = dep.nodes[0].era_history.records
        assert [r.era for r in records] == [0, 1, 2, 3]

    def test_churn_with_continuous_load(self):
        # transactions keep flowing while the committee grows via audits
        config = fast_config(max_endorsers=8)
        dep = TopologySpec.single(10, 4, config=config, seed=62).build()
        submitted = []

        ticks = itertools.count()

        def submit_loop():
            node = dep.nodes[8 + (next(ticks) % 2)]
            submitted.append(node.submit_transaction())
            dep.sim.schedule(600.0, submit_loop)

        submit_loop()
        dep.run(until=2 * 7200.0 + 600.0)
        done = dep.completed_latencies()
        # all but possibly the last in-flight submission committed
        assert len([r for r in submitted if r in done]) >= len(submitted) - 1
        assert len(dep.committee) == 8  # audits grew the committee
        assert dep.ledgers_consistent()
