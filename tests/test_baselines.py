"""Tests: PoW, PoS, and dBFT baseline models (repro.baselines)."""

import pytest

from repro.baselines.dbft import DBFTConfig, DBFTNetwork, elect_delegates
from repro.baselines.pos import PoSConfig, PoSNetwork, slot_leader
from repro.baselines.pow import PoWConfig, PoWNetwork
from repro.common.errors import ConfigurationError
from repro.common.eventlog import EV_POS_BLOCK, EV_POW_MINED


class TestPoW:
    def test_blocks_are_mined_at_roughly_the_target_rate(self):
        net = PoWNetwork(n_miners=5, config=PoWConfig(block_interval_s=20.0), seed=1)
        net.run(until=2000.0)
        mined = net.events.count(EV_POW_MINED)
        assert 60 < mined < 140  # ~100 expected

    def test_transactions_confirm_after_k_blocks(self):
        config = PoWConfig(block_interval_s=10.0, confirmations=3)
        net = PoWNetwork(n_miners=4, config=config, seed=2)
        net.submit_tx("tx-a")
        net.run(until=600.0)
        latencies = net.commit_latencies()
        assert "tx-a" in latencies
        # needs >= confirmations blocks: at least ~2 block intervals
        assert latencies["tx-a"] > config.block_interval_s

    def test_chains_converge_across_miners(self):
        net = PoWNetwork(n_miners=6, config=PoWConfig(block_interval_s=5.0), seed=3)
        for k in range(5):
            net.submit_tx(f"tx-{k}")
        net.run(until=500.0)
        # all miners agree on a long common prefix
        chains = [tuple(b.digest for b in m.chain())
                  for _, m in sorted(net.miners.items())]
        shortest = min(len(c) for c in chains)
        assert shortest > 10
        prefix_len = shortest - 3  # tips may differ transiently
        assert len({c[:prefix_len] for c in chains}) == 1

    def test_orphan_rate_grows_when_blocks_outpace_propagation(self):
        # blocks every 0.2 s vs ~15 ms propagation: frequent near-ties
        # fork the chain; at 60 s intervals forks are rare
        fast = PoWNetwork(n_miners=8, config=PoWConfig(block_interval_s=0.2), seed=9)
        fast.run(until=120.0)
        slow = PoWNetwork(n_miners=8, config=PoWConfig(block_interval_s=60.0), seed=9)
        slow.run(until=12_000.0)
        fast_rate = fast.orphans / max(1, fast.events.count(EV_POW_MINED))
        slow_rate = slow.orphans / max(1, slow.events.count(EV_POW_MINED))
        assert fast_rate > slow_rate

    def test_hash_work_grows_with_time_and_miners(self):
        small = PoWNetwork(n_miners=2, seed=4)
        small.run(until=100.0)
        big = PoWNetwork(n_miners=8, seed=4)
        big.run(until=100.0)
        assert big.hash_work() == pytest.approx(4 * small.hash_work())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PoWNetwork(n_miners=0)
        with pytest.raises(ConfigurationError):
            PoWConfig(block_interval_s=0)
        with pytest.raises(ConfigurationError):
            PoWConfig(confirmations=0)


class TestPoS:
    def test_leader_is_deterministic_and_stake_weighted(self):
        stakes = {0: 100.0, 1: 1.0, 2: 1.0}
        assert slot_leader(stakes, 5) == slot_leader(stakes, 5)
        wins = sum(slot_leader(stakes, s) == 0 for s in range(200))
        assert wins > 150

    def test_leader_validation(self):
        with pytest.raises(ConfigurationError):
            slot_leader({}, 0)
        with pytest.raises(ConfigurationError):
            slot_leader({0: 0.0}, 0)

    def test_commit_latency_is_confirmation_bound(self):
        config = PoSConfig(slot_interval_s=10.0, confirmations=2)
        net = PoSNetwork(n_validators=5, config=config, seed=5)
        net.submit_tx("tx-a")
        net.run(until=300.0)
        latencies = net.commit_latencies()
        assert "tx-a" in latencies
        # inclusion in the next slot + one extra confirmation slot
        assert latencies["tx-a"] >= config.slot_interval_s
        assert latencies["tx-a"] <= 4 * config.slot_interval_s

    def test_stake_must_cover_validator_set(self):
        with pytest.raises(ConfigurationError):
            PoSNetwork(n_validators=3, stakes={0: 1.0})

    def test_blocks_every_slot(self):
        net = PoSNetwork(n_validators=4, config=PoSConfig(slot_interval_s=5.0), seed=6)
        net.run(until=100.0)
        assert net.events.count(EV_POS_BLOCK) == 20


class TestDBFT:
    def test_delegate_election_by_stake(self):
        stakes = {0: 10.0, 1: 5.0, 2: 1.0, 3: 1.0}
        votes = {0: 100, 1: 101, 2: 102, 3: 103}
        delegates = elect_delegates(stakes, votes, 2)
        assert delegates == (100, 101)  # most stake behind them

    def test_election_needs_enough_candidates(self):
        with pytest.raises(ConfigurationError):
            elect_delegates({0: 1.0}, {0: 7}, 3)

    def test_blocks_paced_at_interval(self):
        net = DBFTNetwork(n_validators=20,
                          config=DBFTConfig(n_delegates=4, block_interval_s=10.0),
                          seed=7)
        for k in range(4):
            net.submit_tx(f"tx-{k}")
        net.run(until=120.0)
        latencies = net.commit_latencies()
        assert len(latencies) == 4
        # latency floor is the block interval (the paper's "Low speed")
        assert min(latencies.values()) >= 1.0
        assert max(latencies.values()) >= 5.0

    def test_committee_size_is_delegate_count_not_n(self):
        net = DBFTNetwork(n_validators=50,
                          config=DBFTConfig(n_delegates=7), seed=8)
        assert len(net.delegates) == 7

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DBFTNetwork(n_validators=3, config=DBFTConfig(n_delegates=7))
        with pytest.raises(ConfigurationError):
            DBFTConfig(n_delegates=3)


class TestMeasuredTable4:
    def test_rows_tell_the_papers_story(self):
        from repro.baselines import measured_table4

        rows, text = measured_table4(n_small=8, n_large=24, seed=1)
        by_name = {r.name: r for r in rows}
        assert "Table IV" in text

        # PBFT: fast at small n, poor scalability
        assert by_name["PBFT"].latency_growth > 1.8
        # G-PBFT: fast and flat
        assert by_name["G-PBFT"].latency_large_s < 5.0
        assert by_name["G-PBFT"].latency_growth < 1.5
        # dBFT: scalable but slow (block-interval floor)
        assert by_name["dBFT"].latency_growth < 1.5
        assert by_name["dBFT"].latency_large_s > by_name["G-PBFT"].latency_large_s
        # PoW: slowest and the only one burning hashes
        assert by_name["PoW"].latency_large_s > by_name["PoS"].latency_large_s
        assert by_name["PoW"].hashes_per_tx > 0
        assert all(r.hashes_per_tx == 0 for r in rows if r.name != "PoW")
        # network overhead: G-PBFT and dBFT are the cheap committee designs
        assert by_name["G-PBFT"].kb_per_tx < by_name["PBFT"].kb_per_tx / 4
