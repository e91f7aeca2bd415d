"""Tests: the parallel sweep engine, point specs, and the result cache.

The engine's contract is determinism: ``jobs=N`` must be bit-identical
to ``jobs=1``, and a cached value bit-identical to a recomputed one,
because every point derives all randomness from ``DeterministicRNG``.
"""

import json

import pytest

import repro
from repro.common.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.engine import Engine, PointSpec, run_point
from repro.experiments.runner import latency_sweep, traffic_sweep
from repro.metrics.collector import SweepResult

#: Small-but-real latency point params shared across tests.
LAT = dict(proposal_period_s=600.0, measured=2, warmup=1)


class TestPointSpec:
    def test_round_trips_through_json(self):
        spec = PointSpec.make("gpbft", "latency", 8, 3, max_endorsers=8, **LAT)
        clone = PointSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert clone == spec
        assert hash(clone) == hash(spec)

    def test_none_params_dropped(self):
        spec = PointSpec.make("gpbft", "latency", 8, 3, era_switch_at_tx=None)
        assert "era_switch_at_tx" not in spec.kwargs()

    def test_rejects_unknown_protocol_and_kind(self):
        with pytest.raises(ConfigurationError):
            PointSpec.make("raft", "latency", 4)
        with pytest.raises(ConfigurationError):
            PointSpec.make("pbft", "altitude", 4)

    def test_cache_key_stable_for_equal_specs(self):
        a = PointSpec.make("pbft", "traffic", 10, 0)
        b = PointSpec.make("pbft", "traffic", 10, 0)
        assert a.cache_key() == b.cache_key()

    def test_cache_key_changes_with_profile_fields(self):
        base = PointSpec.make("pbft", "latency", 4, 1, **LAT)
        bumped = PointSpec.make("pbft", "latency", 4, 1,
                                **{**LAT, "measured": 3})
        assert base.cache_key() != bumped.cache_key()

    def test_cache_key_changes_with_version(self, monkeypatch):
        spec = PointSpec.make("pbft", "traffic", 10, 0)
        before = spec.cache_key()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert spec.cache_key() != before


class TestRunPoint:
    def test_dispatch_matches_point_impl(self):
        # the spec dispatch must hit the same implementation (and value)
        # as calling the point function directly
        spec = PointSpec.make("pbft", "latency", 4, 7, **LAT)
        direct = runner._latency_point("pbft", 4, 7, 600.0, 2, 1)
        assert run_point(spec) == direct

    def test_traffic_dispatch(self):
        spec = PointSpec.make("gpbft", "traffic", 10, 0, max_endorsers=8)
        kb = run_point(spec)
        assert isinstance(kb, float) and kb > 0

    def test_unknown_pair_rejected(self):
        bad = PointSpec.make("pbft", "era-churn", 5.0)
        with pytest.raises(ConfigurationError):
            run_point(bad)

    def test_deprecated_wrappers_removed(self):
        # the pre-PR1 quartet completed its one release of compatibility
        for name in ("pbft_latency_point", "gpbft_latency_point",
                     "pbft_traffic_point", "gpbft_traffic_point"):
            assert not hasattr(runner, name)


class TestEngineCache:
    def _spec(self):
        return PointSpec.make("pbft", "traffic", 6, 0)

    def test_cache_hit_skips_execution(self, tmp_path):
        engine = Engine(jobs=1, cache_dir=tmp_path)
        first = engine.run(self._spec())
        assert engine.telemetry.points_executed == 1
        again = engine.run(self._spec())
        assert again == first
        assert engine.telemetry.cache_hits == 1
        assert engine.telemetry.points_executed == 1  # nothing re-ran

    def test_cache_survives_new_engine(self, tmp_path):
        value = Engine(jobs=1, cache_dir=tmp_path).run(self._spec())
        second = Engine(jobs=1, cache_dir=tmp_path)
        assert second.run(self._spec()) == value
        assert second.telemetry.cache_hits == 1
        assert second.telemetry.points_executed == 0

    def test_no_cache_mode_writes_nothing(self, tmp_path):
        engine = Engine(jobs=1, cache_dir=tmp_path, use_cache=False)
        engine.run(self._spec())
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_cache_file_recomputed(self, tmp_path):
        engine = Engine(jobs=1, cache_dir=tmp_path)
        path = tmp_path / f"{self._spec().cache_key()}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        value = engine.run(self._spec())
        assert value > 0
        assert engine.telemetry.cache_misses == 1

    @pytest.mark.parametrize("entry", [
        b'{"spec": {}}',
        b"[1, 2]",
        b'{"value": 123.0, "version": "0.0.0", "spec": {"protocol": "gpbft"}}',
        b'{"events": 1, "spec": {"kind": "traf',
        b"\xff\xfe",
    ], ids=["no-value", "not-a-dict", "foreign-spec-and-version", "truncated",
            "not-utf8"])
    def test_bad_cache_entry_is_a_miss_and_overwritten(self, tmp_path, entry):
        spec = self._spec()
        path = tmp_path / f"{spec.cache_key()}.json"
        path.write_bytes(entry)
        engine = Engine(jobs=1, cache_dir=tmp_path)
        assert engine.run(spec) == run_point(spec)
        assert (engine.telemetry.cache_misses, engine.telemetry.cache_hits) == (1, 0)
        rewritten = json.loads(path.read_text())
        assert rewritten["spec"] == spec.to_json()
        assert rewritten["version"] == repro.__version__

    def test_duplicate_specs_computed_once(self, tmp_path):
        engine = Engine(jobs=1, cache_dir=tmp_path)
        values = engine.map([self._spec(), self._spec()])
        assert values[0] == values[1]
        assert engine.telemetry.points_executed == 1

    def test_telemetry_records_wall_and_events(self, tmp_path):
        engine = Engine(jobs=1, cache_dir=tmp_path)
        engine.run(self._spec())
        (run,) = engine.telemetry.runs
        assert run.wall_s > 0 and run.events > 0 and not run.cached

    def test_rejects_zero_jobs(self):
        with pytest.raises(ConfigurationError):
            Engine(jobs=0)


class TestSerialParallelIdentity:
    def test_latency_sweep_bit_identical(self):
        serial = latency_sweep("gpbft", [4, 8], 1, 600.0, 2, 1, 8,
                               engine=Engine(jobs=1, use_cache=False))
        parallel = latency_sweep("gpbft", [4, 8], 1, 600.0, 2, 1, 8,
                                 engine=Engine(jobs=2, use_cache=False))
        assert serial.to_json() == parallel.to_json()

    @pytest.mark.sweep_smoke
    def test_traffic_sweep_bit_identical(self):
        serial = traffic_sweep("pbft", [4, 7],
                               engine=Engine(jobs=1, use_cache=False))
        parallel = traffic_sweep("pbft", [4, 7],
                                 engine=Engine(jobs=2, use_cache=False))
        assert serial.to_json() == parallel.to_json()

    def test_cached_value_identical_to_computed(self, tmp_path):
        spec = PointSpec.make("pbft", "latency", 4, 5, **LAT)
        engine = Engine(jobs=1, cache_dir=tmp_path)
        computed = engine.run(spec)
        assert Engine(jobs=1, cache_dir=tmp_path).run(spec) == computed


class TestSweepResultJson:
    def _sweep(self):
        sweep = SweepResult("PBFT", "number of nodes", "latency (s)")
        sweep.add(4, [1.0, 1.5])
        sweep.add(10, [2.0])
        return sweep

    def test_round_trip(self):
        sweep = self._sweep()
        clone = SweepResult.from_json(json.loads(json.dumps(sweep.to_json())))
        assert clone == sweep

    def test_merge_point_tolerates_out_of_order(self):
        sweep = SweepResult("X", "n", "y")
        sweep.merge_point(10, [2.0])
        sweep.merge_point(4, [1.0])
        sweep.merge_point(7, [1.5])
        assert sweep.xs == [4.0, 7.0, 10.0]

    def test_merge_point_rejects_duplicate_x(self):
        sweep = self._sweep()
        with pytest.raises(ConfigurationError):
            sweep.merge_point(4, [9.9])

    def test_add_still_rejects_descending(self):
        sweep = self._sweep()
        with pytest.raises(ConfigurationError):
            sweep.add(4, [1.0])
