"""Tests: PoW, PoS, and dBFT baseline models (repro.baselines)."""

import pytest

from repro.baselines import dbft, pos, pow as pow_model
from repro.baselines.dbft import DBFTNetwork, elect_delegates
from repro.baselines.pos import PoSNetwork, slot_leader
from repro.baselines.pow import PoWNetwork
from repro.common.errors import ConfigurationError
from repro.common.eventlog import EV_POS_BLOCK, EV_POW_MINED
from repro.net.latency import ConstantLatency


class TestPoW:
    def test_blocks_are_mined_at_roughly_the_target_rate(self):
        net = PoWNetwork(n_miners=5, seed=1)
        net.run(until=100 * pow_model.BLOCK_INTERVAL_S)
        mined = net.events.count(EV_POW_MINED)
        assert 60 < mined < 140  # ~100 expected

    def test_transactions_confirm_after_k_blocks(self):
        net = PoWNetwork(n_miners=4, seed=2)
        net.submit_tx("tx-a")
        net.run(until=20 * pow_model.BLOCK_INTERVAL_S)
        latencies = net.commit_latencies()
        assert "tx-a" in latencies
        # needs >= confirmations blocks: at least ~2 block intervals
        assert latencies["tx-a"] > pow_model.BLOCK_INTERVAL_S

    def test_chains_converge_across_miners(self):
        net = PoWNetwork(n_miners=6, seed=3)
        for k in range(5):
            net.submit_tx(f"tx-{k}")
        net.run(until=100 * pow_model.BLOCK_INTERVAL_S)
        # all miners agree on a long common prefix
        chains = [tuple(b.digest for b in m.chain())
                  for _, m in sorted(net.miners.items())]
        shortest = min(len(c) for c in chains)
        assert shortest > 10
        prefix_len = shortest - 3  # tips may differ transiently
        assert len({c[:prefix_len] for c in chains}) == 1

    def test_orphan_rate_grows_when_blocks_outpace_propagation(self):
        # propagation as long as a block interval: frequent near-ties
        # fork the chain; at the default ~15 ms forks are rare
        lagged = PoWNetwork(n_miners=8, seed=9)
        lagged.network.latency = ConstantLatency(pow_model.BLOCK_INTERVAL_S)
        prompt = PoWNetwork(n_miners=8, seed=9)
        for net in (lagged, prompt):
            net.run(until=200 * pow_model.BLOCK_INTERVAL_S)
        lagged_rate = lagged.orphans / max(1, lagged.events.count(EV_POW_MINED))
        prompt_rate = prompt.orphans / max(1, prompt.events.count(EV_POW_MINED))
        assert lagged_rate > prompt_rate

    def test_hash_work_grows_with_time_and_miners(self):
        small = PoWNetwork(n_miners=2, seed=4)
        small.run(until=100.0)
        big = PoWNetwork(n_miners=8, seed=4)
        big.run(until=100.0)
        assert big.hash_work() == pytest.approx(4 * small.hash_work())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PoWNetwork(n_miners=0)


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
        net = PoSNetwork(n_validators=5, seed=5)
        net.submit_tx("tx-a")
        net.run(until=20 * pos.SLOT_INTERVAL_S)
        latencies = net.commit_latencies()
        assert "tx-a" in latencies
        # inclusion in the next slot + one extra confirmation slot
        assert latencies["tx-a"] >= pos.SLOT_INTERVAL_S
        assert latencies["tx-a"] <= 4 * pos.SLOT_INTERVAL_S

    def test_stake_must_cover_validator_set(self):
        with pytest.raises(ConfigurationError):
            PoSNetwork(n_validators=3, stakes={0: 1.0})

    def test_blocks_every_slot(self):
        net = PoSNetwork(n_validators=4, seed=6)
        net.run(until=20 * pos.SLOT_INTERVAL_S)
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
        net = DBFTNetwork(n_validators=20, seed=7)
        for k in range(4):
            net.submit_tx(f"tx-{k}")
        net.run(until=8 * dbft.BLOCK_INTERVAL_S)
        latencies = net.commit_latencies()
        assert len(latencies) == 4
        # latency floor is the block interval (the paper's "Low speed")
        assert min(latencies.values()) >= dbft.BLOCK_INTERVAL_S

    def test_committee_size_is_delegate_count_not_n(self):
        net = DBFTNetwork(n_validators=50, seed=8)
        assert len(net.delegates) == dbft.N_DELEGATES == 7

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DBFTNetwork(n_validators=dbft.N_DELEGATES - 1)


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
