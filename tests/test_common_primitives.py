"""Unit tests: ids, RNG, and event log (repro.common)."""

# gpb: allow-file GPB004 -- exact asserts on deterministic primitive outputs (seeded RNG draws round-trip bit-identically)

import copy
import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.eventlog import (
    EV_BLOCK_COMMITTED,
    EV_TX_COMMITTED,
    EV_TX_SUBMITTED,
    Event,
    EventLog,
)
from repro.common.quorum import primary_for_view
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
        log.record(2.0, "b", node=2, extra=7)
        assert len(log) == 2
        assert log.of_kind("b")[0].data["extra"] == 7
        assert log.of_kind("a")[-1].at == 1.0

    def test_records_never_share_a_data_dict(self):
        # record() keeps the **data dict of its call instead of copying
        # it; that is only sound while every call gets a dict of its own
        log = EventLog()
        shared = {"seq": 1}
        first = log.record(1.0, "a", **shared)
        second = log.record(2.0, "a", **shared)
        bare = log.record(3.0, "a"), log.record(4.0, "a")
        first.data["seq"] = 99
        assert second.data == shared == {"seq": 1}
        assert first.data is not second.data and first.data is not shared
        assert bare[0].data == {} and bare[0].data is not bare[1].data

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
        recorded = EventLog().record(2.0, "b", node=3, seq=4)
        assert recorded == Event(at=2.0, kind="b", node=3, data={"seq": 4})
        assert repr(recorded) == "Event(at=2.0, kind='b', node=3, data={'seq': 4})"
        for twin in (pickle.loads(pickle.dumps(recorded)), copy.copy(recorded),
                     copy.deepcopy(recorded), eval(repr(recorded))):
            assert twin == recorded and type(twin) is Event

    def test_a_record_reaches_only_its_kind_in_subscription_order(self):
        log = EventLog()
        seen = []
        log.subscribe(EV_TX_COMMITTED, lambda e: seen.append(("first", e.kind, len(log))))
        log.subscribe(EV_BLOCK_COMMITTED, lambda e: seen.append(("other", e.kind, len(log))))
        log.subscribe(EV_TX_COMMITTED, lambda e: seen.append(("second", e.kind, len(log))))
        log.record(1.0, EV_TX_COMMITTED)
        log.record(2.0, EV_TX_SUBMITTED)
        log.record(3.0, EV_TX_COMMITTED)
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
        # the log keeps columns, not Event tuples (a tuple holding a dict
        # is always tracked): 10 000 atomic events cost the collector nothing
        log = EventLog()
        gc.collect()
        before = len(gc.get_objects())
        for i in range(10_000):
            log.record(float(i), "tick", node=i % 4, seq=i, request_id=f"r{i}")
        gc.collect()
        assert len(gc.get_objects()) - before < 50
        assert len(log) == 10_000 and log.count("tick") == 10_000

    def test_ring_tail_and_of_kind_read_the_columns(self):
        log = EventLog(capacity=4)
        for i in range(11):
            log.record(float(i), "even" if i % 2 == 0 else "odd", node=i, seq=i)
        # trimmed to the newest 4 when it passed 8, then two more appended
        assert [e.node for e in log] == [5, 6, 7, 8, 9, 10]
        assert log.tail(3) == [Event(8.0, "even", 8, {"seq": 8}),
                               Event(9.0, "odd", 9, {"seq": 9}),
                               Event(10.0, "even", 10, {"seq": 10})]
        assert all(type(e) is Event for e in log.tail(100))
        assert len(log.tail(100)) == 6 and log.tail(0) == log.tail(-1) == []
        assert [e.at for e in log.of_kind("odd")] == [5.0, 7.0, 9.0]
        assert log.of_kind("absent") == []
        assert log.count("even") == 6 and log.total_appended == 11
