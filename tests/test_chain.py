"""Unit tests: transactions, blocks, genesis, ledger, mempool, state."""

import pytest

from repro.common.config import CommitteeConfig, TopologySpec
from repro.common.errors import (
    ChainError,
    ForkError,
    MembershipError,
    ValidationError,
)
from repro.chain.block import Block, BlockHeader
from repro.chain import genesis as genesis_module
from repro.chain.genesis import build_genesis
from repro.chain.ledger import Ledger
from repro.chain.mempool import Mempool
from repro.chain.state import LedgerState
from repro.chain.transaction import NormalTransaction
from repro.crypto.hashing import digest_concat
from repro.crypto.merkle import MerkleTree
from repro.geo.coords import LatLng
from repro.geo.reports import GeoReport

HK = LatLng(22.3193, 114.1694)


def geo(node=1, at=0.0):
    return GeoReport(node=node, position=HK, timestamp=at)


def tx(sender=1, nonce=0, fee=1.0, key="k", value="v"):
    return NormalTransaction(sender=sender, nonce=nonce, fee=fee, geo=geo(sender),
                             key=key, value=value)


def make_genesis(n=4):
    return build_genesis({i: HK.offset_m(float(i) * 10, 0.0) for i in range(n)})


class TestTransactions:
    def test_tx_id_is_content_derived(self):
        assert tx().tx_id == tx().tx_id
        assert tx().tx_id != tx(nonce=1).tx_id

    def test_size_includes_geo_and_signature(self):
        t = tx()
        # header 40 + payload 64 + geo 32 + signature 64
        assert t.size_bytes == 200

    def test_validation(self):
        with pytest.raises(ValidationError):
            NormalTransaction(sender=-1, nonce=0, fee=0.0, geo=geo())
        with pytest.raises(ValidationError):
            NormalTransaction(sender=1, nonce=0, fee=-1.0, geo=geo())


class TestBlocks:
    def test_assemble_computes_merkle_root(self):
        txs = [tx(nonce=i) for i in range(3)]
        block = Block.assemble(1, b"\x00" * 32, 0, 0, 1, 0, 1.0, txs)
        expected = MerkleTree([t.signing_bytes() for t in txs]).root
        assert block.header.tx_root == expected

    def test_mismatched_root_rejected(self):
        txs = [tx()]
        header = BlockHeader(height=1, parent=b"\x00" * 32, era=0, view=0, seq=1,
                             proposer=0, timestamp=1.0, tx_root=b"\x11" * 32)
        with pytest.raises(ValidationError):
            Block(header, tuple(txs))

    def test_digest_changes_with_content(self):
        a = Block.assemble(1, b"\x00" * 32, 0, 0, 1, 0, 1.0, [tx()])
        b = Block.assemble(1, b"\x00" * 32, 0, 0, 1, 0, 1.0, [tx(nonce=9)])
        assert a.digest() != b.digest()

    def test_total_fees(self):
        block = Block.assemble(1, b"\x00" * 32, 0, 0, 1, 0, 1.0,
                               [tx(nonce=i, fee=2.5) for i in range(4)])
        assert block.total_fees == pytest.approx(10.0)

    def test_header_validation(self):
        with pytest.raises(ValidationError):
            BlockHeader(height=-1, parent=b"\x00" * 32, era=0, view=0, seq=0,
                        proposer=0, timestamp=0.0, tx_root=b"\x00" * 32)
        with pytest.raises(ValidationError):
            BlockHeader(height=0, parent=b"short", era=0, view=0, seq=0,
                        proposer=0, timestamp=0.0, tx_root=b"\x00" * 32)


class TestGenesis:
    def test_endorser_ids_sorted(self):
        gen = make_genesis(5)
        assert gen.endorser_ids == (0, 1, 2, 3, 4)

    def test_block_zero(self):
        block = make_genesis().block()
        assert block.header.height == 0
        assert len(block) == 0

    def test_digest_covers_policy(self):
        a = build_genesis({i: HK for i in range(4)},
                          policy=CommitteeConfig(max_endorsers=40))
        b = build_genesis({i: HK for i in range(4)},
                          policy=CommitteeConfig(max_endorsers=30))
        assert a.digest() != b.digest()

    def test_too_few_endorsers_rejected(self):
        with pytest.raises(MembershipError):
            build_genesis({0: HK, 1: HK, 2: HK})

    def test_blacklisted_member_rejected(self):
        with pytest.raises(MembershipError):
            build_genesis({i: HK for i in range(4)},
                          policy=CommitteeConfig(blacklist=frozenset({2})))

    @staticmethod
    def _digests_per_build(monkeypatch, n):
        calls = []

        def counting(*parts):
            calls.append(parts)
            return digest_concat(*parts)

        monkeypatch.setattr(genesis_module, "digest_concat", counting)
        dep = TopologySpec.single(n, 4).build()
        return len(calls), dep

    def test_a_deployment_seals_its_genesis_once(self, monkeypatch):
        # one digest per build, not one per node's ledger
        small, _ = self._digests_per_build(monkeypatch, 12)
        wide, dep = self._digests_per_build(monkeypatch, 60)
        assert small == wide == 1
        blocks = {id(node.ledger.block_at(0)) for node in dep.nodes.values()}
        assert blocks == {id(dep.genesis.block())}
        assert dep.genesis.block().header.parent == dep.genesis.digest()

    def test_every_build_derives_its_own_genesis(self, monkeypatch):
        # a process-wide cache would make the second build free
        first, a = self._digests_per_build(monkeypatch, 12)
        second, b = self._digests_per_build(monkeypatch, 12)
        assert first == second == 1
        assert a.genesis.block() is not b.genesis.block()
        assert a.genesis.block().digest() == b.genesis.block().digest()


class TestLedger:
    def _block_on(self, ledger, txs, proposer=0):
        return Block.assemble(
            height=ledger.height + 1, parent=ledger.head.digest(), era=0, view=0,
            seq=ledger.height + 1, proposer=proposer, timestamp=float(ledger.height + 1),
            transactions=txs,
        )

    def test_append_and_state(self):
        ledger = Ledger(make_genesis())
        ledger.append(self._block_on(ledger, [tx(key="temp", value="25C")]))
        assert ledger.height == 1
        assert ledger.state.get("temp") == "25C"
        assert ledger.contains_tx(tx(key="temp", value="25C").tx_id)

    def test_idempotent_reappend(self):
        ledger = Ledger(make_genesis())
        block = self._block_on(ledger, [tx()])
        ledger.append(block)
        ledger.append(block)  # no error
        assert ledger.height == 1

    def test_fork_detected_and_attributed(self):
        ledger = Ledger(make_genesis())
        parent = ledger.head.digest()
        ledger.append(self._block_on(ledger, [tx()]))
        evil = Block.assemble(1, parent, 0, 0, 1, proposer=3, timestamp=9.0,
                              transactions=[tx(nonce=5)])
        with pytest.raises(ForkError):
            ledger.append(evil)

    def test_height_gap_rejected(self):
        ledger = Ledger(make_genesis())
        skip = Block.assemble(5, ledger.head.digest(), 0, 0, 5, 0, 1.0, [])
        with pytest.raises(ChainError):
            ledger.append(skip)

    def test_bad_parent_rejected(self):
        ledger = Ledger(make_genesis())
        bad = Block.assemble(1, b"\x42" * 32, 0, 0, 1, 0, 1.0, [])
        with pytest.raises(ChainError):
            ledger.append(bad)

    def test_block_at_bounds(self):
        ledger = Ledger(make_genesis())
        with pytest.raises(ChainError):
            ledger.block_at(1)
        assert ledger.block_at(0).header.height == 0


class TestLedgerState:
    def test_replay_protection(self):
        state = LedgerState()
        t = tx()
        assert state.apply_transaction(t) is True
        assert state.apply_transaction(t) is False
        assert state.transactions_applied == 1

    def test_root_evolves_deterministically(self):
        s1, s2 = LedgerState(), LedgerState()
        t = tx()
        s1.apply_transaction(t)
        s2.apply_transaction(t)
        assert s1.root == s2.root
        s1.apply_transaction(tx(nonce=1))
        assert s1.root != s2.root

    def test_transaction_applies_once_and_advances_the_root(self):
        state = LedgerState()
        for nonce in range(2):
            t = tx(nonce=nonce)
            before = state.root
            assert state.apply_transaction(t)
            assert state.applied(t.tx_id)
            assert state.root == digest_concat(before, t.signing_bytes())
            assert not state.apply_transaction(t)
            assert state.root == digest_concat(before, t.signing_bytes())
        assert state.transactions_applied == 2


class TestMempool:
    def test_fifo_batching(self):
        pool = Mempool()
        txs = [tx(nonce=i) for i in range(5)]
        for t in txs:
            pool.add(t)
        batch = pool.take_batch(3)
        assert [b.nonce for b in batch] == [0, 1, 2]
        assert len(pool) == 2

    def test_dedup(self):
        pool = Mempool()
        t = tx()
        assert pool.add(t) is True
        assert pool.add(t) is False
        assert len(pool) == 1

    def test_capacity_evicts_oldest(self):
        pool = Mempool(capacity=3)
        for i in range(5):
            pool.add(tx(nonce=i))
        assert len(pool) == 3
        assert pool.evicted == 2
        assert [t.nonce for t in pool.peek_batch(10)] == [2, 3, 4]

    def test_fee_priority(self):
        pool = Mempool(fee_priority=True)
        pool.add(tx(nonce=0, fee=1.0))
        pool.add(tx(nonce=1, fee=9.0))
        pool.add(tx(nonce=2, fee=5.0))
        assert [t.fee for t in pool.peek_batch(2)] == [9.0, 5.0]

    def test_remove_committed(self):
        pool = Mempool()
        txs = [tx(nonce=i) for i in range(4)]
        for t in txs:
            pool.add(t)
        assert pool.remove_committed(txs[:2]) == 2
        assert len(pool) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValidationError):
            Mempool(capacity=0)


class TestMempoolOverflowPolicies:
    def test_reject_new_keeps_residents(self):
        pool = Mempool(capacity=2, policy="reject-new")
        assert pool.add(tx(nonce=0)) and pool.add(tx(nonce=1))
        assert pool.add(tx(nonce=2)) is False
        assert pool.rejected == 1 and pool.evicted == 0
        assert [t.nonce for t in pool.peek_batch(10)] == [0, 1]

    def test_evict_oldest_counts_both_ways(self):
        pool = Mempool(capacity=2, policy="evict-oldest")
        for i in range(4):
            assert pool.add(tx(nonce=i)) is True
        assert pool.evicted == 2 and pool.rejected == 0
        assert [t.nonce for t in pool.peek_batch(10)] == [2, 3]

    def test_evict_lowest_fee_prefers_paying_newcomer(self):
        pool = Mempool(capacity=2, policy="evict-lowest-fee")
        pool.add(tx(nonce=0, fee=5.0))
        pool.add(tx(nonce=1, fee=1.0))
        assert pool.add(tx(nonce=2, fee=3.0)) is True  # evicts fee=1.0
        assert pool.evicted == 1
        assert sorted(t.fee for t in pool.peek_batch(10)) == [3.0, 5.0]
        # a newcomer cheaper than every resident is refused instead
        assert pool.add(tx(nonce=3, fee=0.5)) is False
        assert pool.rejected == 1

    def test_evict_lowest_fee_tie_break_is_deterministic(self):
        """Equal fees break on tx_id, independent of arrival order."""
        a, b, c = (tx(nonce=i, fee=2.0) for i in range(3))
        survivors = []
        for first, second in ((a, b), (b, a)):
            pool = Mempool(capacity=2, policy="evict-lowest-fee")
            pool.add(first)
            pool.add(second)
            pool.add(c)
            survivors.append(sorted(t.tx_id for t in pool.peek_batch(10)))
        assert survivors[0] == survivors[1]
        # the incoming tx only displaces a victim it strictly outranks
        pool = Mempool(capacity=1, policy="evict-lowest-fee")
        pool.add(a)
        assert pool.add(tx(nonce=0, fee=2.0)) is False  # identical == dup

    def test_cap_boundary_never_exceeded(self):
        for policy in ("evict-oldest", "reject-new", "evict-lowest-fee"):
            pool = Mempool(capacity=3, policy=policy)
            for i in range(10):
                pool.add(tx(nonce=i, fee=float(i)))
            assert len(pool) == 3, policy
            assert pool.evicted + pool.rejected == 7, policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            Mempool(policy="drop-random")
