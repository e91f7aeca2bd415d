"""Unit tests: ids, quorum arithmetic, RNG, and event log (repro.common)."""

import copy
import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.eventlog import (
    EV_BLOCK_COMMITTED,
    EV_PBFT_ASSIGNED,
    EV_PBFT_CHECKPOINT_STABLE,
    EV_PBFT_STATE_TRANSFER,
    EV_TX_COMMITTED,
    EV_TX_SUBMITTED,
    Event,
    EventLog,
)
from repro.common.errors import QuorumError
from repro.common.quorum import (
    max_faulty,
    primary_for_view,
    quorum_size,
    tolerated_faults,
    weak_certificate_size,
)
from repro.common.rng import DeterministicRNG


def _shuffled(rng):
    items = list(range(8))
    rng.shuffle(items)
    return items


#: Every single draw of DeterministicRNG but doubles(), by name.
_DRAWS = {
    "random": lambda rng: rng.random(),
    "uniform": lambda rng: rng.uniform(2.0, 5.0),
    "integers": lambda rng: rng.integers(0, 2**31),
    "exponential": lambda rng: rng.exponential(2.0),
    "lognormal": lambda rng: rng.lognormal(0.0, 0.5),
    "choice": lambda rng: rng.choice("abcdef"),
    "shuffle": _shuffled,
    "weighted_index": lambda rng: rng.weighted_index([1.0, 2.0, 3.0]),
}


class TestIds:
    def test_primary_rotates_round_robin(self):
        assert [primary_for_view(v, 4) for v in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_primary_rejects_empty_committee(self):
        with pytest.raises(ValueError):
            primary_for_view(0, 0)

    def test_primary_rejects_negative_view(self):
        with pytest.raises(ValueError):
            primary_for_view(-1, 4)


#: (n, f) for n = 3f+1, 3f+2 and 3f+3, every n up to 202
QUORUM_TABLE = [(3 * f + k, f) for f in range(68) for k in (1, 2, 3) if 3 * f + k <= 202]


class TestQuorum:
    def test_the_table_covers_every_committee_size(self):
        assert [n for n, _ in QUORUM_TABLE] == list(range(1, 203))

    @pytest.mark.parametrize("k", [1, 2, 3], ids=["3f+1", "3f+2", "3f+3"])
    def test_fault_bounds(self, k):
        for n, f in QUORUM_TABLE:
            if n != 3 * f + k:
                continue
            assert tolerated_faults(n) == f
            if n < 4:
                with pytest.raises(QuorumError):
                    max_faulty(n)
            else:
                assert max_faulty(n) == f

    def test_thresholds(self):
        for _, f in QUORUM_TABLE:
            assert quorum_size(f) == 2 * f + 1
            assert weak_certificate_size(f) == f + 1

    @pytest.mark.parametrize("function, bad", [
        (max_faulty, 3), (tolerated_faults, 0), (tolerated_faults, -1),
        (quorum_size, -1), (weak_certificate_size, -1),
    ], ids=["max_faulty-n3", "tolerated_faults-n0", "tolerated_faults-n-1",
            "quorum_size-f-1", "weak_certificate_size-f-1"])
    def test_out_of_range_inputs_raise(self, function, bad):
        with pytest.raises(QuorumError):
            function(bad)

    def test_two_quorums_at_3f_plus_1_share_f_plus_1_members(self):
        # two q-sets out of n overlap in at least 2q - n members, and
        # some pair in exactly that many.  At n = 3f+2 and 3f+3 that is
        # f and f-1, short of f+1: quorum_size reads f, not n
        for n, f in QUORUM_TABLE:
            if n == 3 * f + 1:
                assert 2 * quorum_size(f) - n == weak_certificate_size(f)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
    def test_two_quorums_share_f_plus_1_members_at_every_committee_size(self):
        # at n = 6, f = 1: two quorums of 3 can be disjoint; the
        # threshold that holds everywhere is ceil((n + f + 1) / 2)
        short = [n for n in range(4, 203)
                 if 2 * quorum_size(max_faulty(n)) - n < max_faulty(n) + 1]
        assert short == []


class TestDeterministicRNG:
    def test_same_seed_same_stream(self):
        a = DeterministicRNG(42, "x")
        b = DeterministicRNG(42, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_labels_differ(self):
        a = DeterministicRNG(42, "x")
        b = DeterministicRNG(42, "y")
        assert a.random() != b.random()

    def test_fork_is_stable_and_independent(self):
        parent = DeterministicRNG(1)
        child1 = parent.fork("net")
        # drawing from the parent must not disturb the child stream
        parent.random()
        child2 = DeterministicRNG(1).fork("net")
        assert child1.random() == child2.random()

    def test_vector_draw_is_the_scalar_draws_and_leaves_the_same_state(self):
        # the network draws a multicast's jitter in one call; the run is
        # bit-identical to per-copy draws only while this holds
        vector, scalar = DeterministicRNG(9, "network"), DeterministicRNG(9, "network")
        for k in (1, 3, 201, 300):
            assert vector.doubles(k) == [scalar.random() for _ in range(k)]
        assert vector.random() == scalar.random()
        assert vector.exponential(1.0) == scalar.exponential(1.0)

    def test_resync_restores_the_half_word_integers_caches(self):
        # a bounded integers() draw caches half a 64-bit word; rewinding
        # a block with advance() alone would throw it away
        buffered, reference = DeterministicRNG(3, "x"), DeterministicRNG(3, "x")
        assert buffered.integers(0, 2**31) == reference.integers(0, 2**31)
        assert buffered.doubles(2) == [reference.random(), reference.random()]
        assert buffered.integers(0, 2**31) == reference.integers(0, 2**31)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(ops=st.lists(st.one_of(
        st.integers(min_value=0, max_value=600),
        st.sampled_from(sorted(_DRAWS))), max_size=30))
    def test_any_interleaving_equals_the_unbuffered_stream(self, ops):
        # ints are doubles(k) calls, k up to beyond one block; the
        # reference never calls doubles(), so it never buffers
        buffered, reference = DeterministicRNG(11, "mix"), DeterministicRNG(11, "mix")
        for op in ops:
            if isinstance(op, int):
                assert buffered.doubles(op) == [reference.random() for _ in range(op)]
            else:
                assert _DRAWS[op](buffered) == _DRAWS[op](reference), op
        for draw in ("integers", "random", "exponential"):
            assert _DRAWS[draw](buffered) == _DRAWS[draw](reference), draw

    def test_uniform_bounds(self):
        rng = DeterministicRNG(3)
        for _ in range(100):
            x = rng.uniform(2.0, 5.0)
            assert 2.0 <= x < 5.0

    def test_weighted_index_prefers_heavy_weight(self):
        rng = DeterministicRNG(4)
        picks = [rng.weighted_index([0.0, 0.0, 100.0]) for _ in range(50)]
        assert all(p == 2 for p in picks)

    def test_weighted_index_zero_weights_uniform(self):
        rng = DeterministicRNG(5)
        picks = {rng.weighted_index([0.0, 0.0, 0.0]) for _ in range(200)}
        assert picks == {0, 1, 2}

    def test_weighted_index_rejects_bad_input(self):
        rng = DeterministicRNG(6)
        with pytest.raises(ValueError):
            rng.weighted_index([])
        with pytest.raises(ValueError):
            rng.weighted_index([1.0, -0.5])

    def test_choice_returns_member(self):
        rng = DeterministicRNG(7)
        assert rng.choice(["a", "b", "c"]) in ("a", "b", "c")


class TestEventLog:
    def test_append_and_query(self):
        log = EventLog()
        log.record(1.0, "a", node=1)
        log.record(2.0, EV_TX_COMMITTED, 2, "t7", 3, b"d")
        assert len(log) == 2
        assert log.of_kind(EV_TX_COMMITTED)[0].data == {
            "tx_id": "t7", "height": 3, "digest": b"d"}
        assert log.of_kind("a")[-1].at == 1.0

    def test_a_reader_cannot_change_what_the_log_holds(self):
        # the log stores each row's values and builds a data dict per
        # read, so no two reads (nor a subscriber) share one
        log = EventLog()
        delivered = []
        log.subscribe(EV_PBFT_CHECKPOINT_STABLE, delivered.append)
        assert log.record(1.0, EV_PBFT_CHECKPOINT_STABLE, 0, 1) is None
        log.record(2.0, "a")
        for read in (delivered[0], log.tail(2)[0], log.of_kind(EV_PBFT_CHECKPOINT_STABLE)[0],
                     next(iter(log))):
            assert read.data == {"seq": 1}
            read.data["seq"] = 99
        assert log.tail(1)[0].data == {} and log.tail(1)[0].data is not log.tail(1)[0].data
        assert [e.data for e in log] == [{"seq": 1}, {}]

    def test_a_row_that_misses_a_declared_field_fails_its_read(self):
        log = EventLog()
        log.record(1.0, EV_PBFT_ASSIGNED, 0, 4, 0)
        with pytest.raises(ValueError, match="'pbft.assigned' declares the fields "
                           r"\('seq', 'view', 'request_id'\), a row holds 2 values"):
            log.of_kind(EV_PBFT_ASSIGNED)

    def test_count_is_maintained(self):
        log = EventLog()
        for i in range(5):
            log.record(float(i), "tick")
        log.record(5.0, "tock")
        assert log.count("tick") == 5
        assert log.count("tock") == 1
        assert log.count("absent") == 0

    def test_rejects_time_regression(self):
        log = EventLog()
        log.record(5.0, "a")
        with pytest.raises(ValueError):
            log.record(1.0, "b")

    def test_of_kind_and_where(self):
        log = EventLog()
        log.record(1.0, "x", node=1)
        log.record(2.0, "y", node=2)
        log.record(3.0, "x", node=3)
        assert [e.node for e in log.of_kind("x")] == [1, 3]
        assert [e.node for e in log if e.node > 1] == [2, 3]

    def test_event_builds_by_keyword_and_round_trips(self):
        event = Event(at=1.5, kind="a")
        assert (event.at, event.kind, event.node, event.data) == (1.5, "a", -1, {})
        assert Event(at=1.5, kind="a").data is not event.data
        assert event == Event(1.5, "a", -1, {})
        log = EventLog()
        log.record(2.0, EV_PBFT_STATE_TRANSFER, 3, 4)
        recorded = log.tail(1)[0]
        assert recorded == Event(at=2.0, kind=EV_PBFT_STATE_TRANSFER, node=3, data={"seq": 4})
        assert repr(recorded) == ("Event(at=2.0, kind='pbft.state_transfer', node=3, "
                                  "data={'seq': 4})")
        for twin in (pickle.loads(pickle.dumps(recorded)), copy.copy(recorded),
                     copy.deepcopy(recorded), eval(repr(recorded))):
            assert twin == recorded and type(twin) is Event

    def test_a_record_reaches_only_its_kind_in_subscription_order(self):
        log = EventLog()
        seen = []
        log.subscribe(EV_TX_COMMITTED, lambda e: seen.append(("first", e.kind, len(log))))
        log.subscribe(EV_BLOCK_COMMITTED, lambda e: seen.append(("other", e.kind, len(log))))
        log.subscribe(EV_TX_COMMITTED, lambda e: seen.append(("second", e.kind, len(log))))
        log.record(1.0, EV_TX_COMMITTED, 0, "t1", 1, b"")
        log.record(2.0, EV_TX_SUBMITTED, 0, "t2")
        log.record(3.0, EV_TX_COMMITTED, 0, "t2", 2, b"")
        # each callback runs after its event is stored; the unread kind
        # and the other kind's callback are never involved
        assert seen == [("first", EV_TX_COMMITTED, 1), ("second", EV_TX_COMMITTED, 1),
                        ("first", EV_TX_COMMITTED, 3), ("second", EV_TX_COMMITTED, 3)]

    def test_subscribing_to_an_unknown_kind_names_it(self):
        log = EventLog()
        with pytest.raises(ValueError, match="'no.such.kind'"):
            log.subscribe("no.such.kind", lambda e: None)
        assert log._subscribers == {}

    def test_records_add_no_object_the_collector_tracks(self):
        # the log keeps columns of atomic rows, not Event tuples (a tuple
        # holding a dict is always tracked): the collector untracks each
        # row at its first pass, so 10 000 events cost it nothing
        log = EventLog()
        gc.collect()
        before = len(gc.get_objects())
        for i in range(10_000):
            log.record(float(i), EV_PBFT_ASSIGNED, i % 4, i, 0, f"r{i}")
        gc.collect()
        assert len(gc.get_objects()) - before < 50
        assert len(log) == 10_000 and log.count(EV_PBFT_ASSIGNED) == 10_000

    def test_ring_tail_and_of_kind_read_the_columns(self):
        even, odd = EV_PBFT_CHECKPOINT_STABLE, EV_PBFT_STATE_TRANSFER
        log = EventLog(capacity=4)
        for i in range(11):
            log.record(float(i), even if i % 2 == 0 else odd, i, i)
        # trimmed to the newest 4 when it passed 8, then two more appended
        assert [e.node for e in log] == [5, 6, 7, 8, 9, 10]
        assert log.tail(3) == [Event(8.0, even, 8, {"seq": 8}),
                               Event(9.0, odd, 9, {"seq": 9}),
                               Event(10.0, even, 10, {"seq": 10})]
        assert all(type(e) is Event for e in log.tail(100))
        assert len(log.tail(100)) == 6 and log.tail(0) == log.tail(-1) == []
        assert [e.at for e in log.of_kind(odd)] == [5.0, 7.0, 9.0]
        assert log.of_kind("absent") == []
        assert log.count(even) == 6 and log.total_appended == 11
