"""Property-based tests (hypothesis) for the observability instruments.

Two contracts the whole layer leans on:

* hierarchy -- a labeled child feeds its parent, so a counter's total
  always equals the sum of its children (plus direct increments);
* one name, one instrument -- the registry's sketches are get-or-create
  and never share a name with a counter or gauge;
* determinism -- registry and instrument snapshots are sorted at every
  level, so the same operations snapshot identically no matter the
  order instruments or labels were first touched in.

The v2 pieces ride the same properties: the quantile sketch must be
insertion-order independent (two seeded runs fold latencies in
arbitrary interleavings yet must emit bit-identical frames) and head
-sampling decisions must be pure functions of the request id.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, strategies as st

from repro.obs.core import Observability
from repro.obs.instruments import Counter, Registry
from repro.obs.obsconfig import ObsConfig
from repro.obs.sampling import sample_key
from repro.obs.spans import ObservabilityError
from repro.obs.timeseries import QuantileSketch

# strategies -----------------------------------------------------------------

label_strategy = st.sampled_from(["preprepare", "prepare", "commit", "reply", "gossip"])

inc_list = st.lists(
    st.tuples(label_strategy, st.integers(min_value=0, max_value=10_000)),
    max_size=60,
)

obs_list = st.lists(
    st.tuples(
        label_strategy,
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
    ),
    max_size=60,
)

value_list = st.lists(
    st.floats(min_value=1e-6, max_value=1e5,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=80,
)


class TestCounterHierarchy:
    @given(incs=inc_list)
    def test_total_equals_sum_of_children(self, incs):
        counter = Counter("net.messages_sent")
        for label, amount in incs:
            counter.child(label).inc(amount)
        snap = counter.snapshot()
        assert snap["total"] == sum(amount for _, amount in incs)
        assert snap["total"] == sum(snap.get("children", {}).values())

    @given(incs=inc_list,
           direct=st.lists(st.integers(min_value=0, max_value=100), max_size=10))
    def test_direct_increments_stack_on_child_totals(self, incs, direct):
        counter = Counter("net.messages_sent")
        for label, amount in incs:
            counter.child(label).inc(amount)
        for amount in direct:
            counter.inc(amount)
        snap = counter.snapshot()
        assert snap["total"] == (
            sum(snap.get("children", {}).values()) + sum(direct))


class TestSketchRegistry:
    @given(observations=obs_list)
    def test_sketch_is_get_or_create_per_name(self, observations):
        registry = Registry()
        for label, value in observations:
            registry.sketch(label).observe(value)
        sketches = registry.snapshot()["sketches"]
        assert sorted(sketches) == sorted({label for label, _ in observations})
        for label, summary in sketches.items():
            values = [v for name, v in observations if name == label]
            assert registry.sketch(label).count == summary["count"] == len(values)
            assert math.isclose(summary["sum"], sum(values),
                                rel_tol=1e-9, abs_tol=1e-8)

    @given(name=label_strategy,
           other=st.sampled_from(["counter", "gauge"]),
           sketch_first=st.booleans())
    def test_a_sketch_name_never_names_another_kind(self, name, other,
                                                    sketch_first):
        registry = Registry()
        first, second = ((registry.sketch, getattr(registry, other))
                         if sketch_first else
                         (getattr(registry, other), registry.sketch))
        first(name)
        with pytest.raises(ObservabilityError, match="already exists"):
            second(name)


class TestSnapshotDeterminism:
    @given(order=st.permutations(["era_switches", "view_changes",
                                  "geo_reports", "bytes_sent"]),
           incs=inc_list)
    def test_registry_snapshot_ignores_instrument_creation_order(
            self, order, incs):
        reference = Registry()
        shuffled = Registry()
        for name in sorted(order):
            reference.counter(name)
        for name in order:
            shuffled.counter(name)
        for registry in (reference, shuffled):
            for label, amount in incs:
                registry.counter("bytes_sent").child(label).inc(amount)
        # byte-equality, not just dict equality: exports hash these
        assert (json.dumps(reference.snapshot())
                == json.dumps(shuffled.snapshot()))

    @given(order=st.permutations(["a", "b", "c", "d", "e"]))
    def test_child_snapshot_ignores_label_first_touch_order(self, order):
        reference = Counter("msgs")
        shuffled = Counter("msgs")
        for label in sorted(order):
            reference.child(label)
        for label in order:
            shuffled.child(label)
        for counter in (reference, shuffled):
            for k, label in enumerate(sorted(order)):
                counter.child(label).inc(k + 1)
        assert json.dumps(reference.snapshot()) == json.dumps(shuffled.snapshot())


class TestSketchProperties:
    @given(values=value_list, order=st.randoms(use_true_random=False))
    def test_summary_is_insertion_order_independent(self, values, order):
        shuffled = list(values)
        order.shuffle(shuffled)
        a, b = QuantileSketch(), QuantileSketch()
        for v in values:
            a.observe(v)
        for v in shuffled:
            b.observe(v)
        # the running float sum folds in insertion order, so it is only
        # close, not equal, across permutations; everything else --
        # count, min, max, every quantile -- must match exactly
        sa, sb = a.summary(), b.summary()
        assert math.isclose(sa.pop("sum"), sb.pop("sum"), rel_tol=1e-12)
        assert json.dumps(sa) == json.dumps(sb)

    @given(values=value_list)
    def test_quantiles_are_monotone_and_bracket_the_data(self, values):
        sketch = QuantileSketch()
        for v in values:
            sketch.observe(v)
        qs = [sketch.quantile(q) for q in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0)]
        assert qs == sorted(qs)
        # each estimate is a bucket's upper edge: at most ~10% above
        # the true max, never below the true min (or the sketch floor)
        assert qs[-1] <= max(max(values), 1e-4) * 1.1 + 1e-9
        assert qs[0] >= min(min(values), 1e-4) * 0.999_999_999

    @given(values=value_list)
    def test_exact_moments_survive_the_sketch(self, values):
        sketch = QuantileSketch()
        for v in values:
            sketch.observe(v)
        assert sketch.count == len(values)
        assert math.isclose(sketch.total, sum(values), rel_tol=1e-9)
        assert sketch.min == min(values)
        assert sketch.max == max(values)


class TestSamplingProperties:
    @given(rid=st.text(min_size=1, max_size=40))
    def test_sample_key_is_a_stable_unit_interval_hash(self, rid):
        key = sample_key(rid)
        assert 0.0 <= key < 1.0
        assert key == sample_key(rid)

    @given(rid=st.text(min_size=1, max_size=40),
           low=st.floats(min_value=0.0, max_value=1.0),
           high=st.floats(min_value=0.0, max_value=1.0))
    def test_sampling_is_monotone_in_the_rate(self, rid, low, high):
        if low > high:
            low, high = high, low
        if Observability(ObsConfig(sample_rate=low))._traced(rid):
            assert Observability(ObsConfig(sample_rate=high))._traced(rid)
