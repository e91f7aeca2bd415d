"""Unit tests: configuration validation (repro.common.config)."""

import dataclasses

import numpy as np
import pytest

from repro.common.config import (
    CommitteeConfig,
    ElectionConfig,
    EraConfig,
    GPBFTConfig,
    NetworkConfig,
    PBFTConfig,
    TopologySpec,
    ZoneSpec,
)
from repro.common.errors import ConfigurationError


class TestNetworkConfig:
    def test_defaults_are_valid(self):
        cfg = NetworkConfig()
        assert cfg.processing_rate > 0

    def test_rejects_nonpositive_processing_rate(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(processing_rate=0.0)
        with pytest.raises(ConfigurationError):
            NetworkConfig(processing_rate=-1.0)

    @pytest.mark.parametrize("field", ["processing_rate"])
    def test_rejects_a_non_finite_float(self, field):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
                NetworkConfig(**{field: value})

    def test_is_frozen(self):
        cfg = NetworkConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.processing_rate = 5.0  # type: ignore[misc]


class TestPBFTConfig:
    def test_watermark_must_cover_checkpoint_interval(self):
        with pytest.raises(ConfigurationError):
            PBFTConfig(checkpoint_interval=100, watermark_window=50)

    def test_rejects_nonpositive_timeouts(self):
        with pytest.raises(ConfigurationError):
            PBFTConfig(view_change_timeout_s=0)
        with pytest.raises(ConfigurationError):
            PBFTConfig(request_retry_timeout_s=-1)

    @pytest.mark.parametrize("field", [
        "view_change_timeout_s", "request_retry_timeout_s", "retry_backoff_factor"])
    def test_rejects_an_infinite_timer_setting(self, field):
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
            PBFTConfig(**{field: float("inf")})


class TestTopologySpec:
    @pytest.mark.parametrize("field", ["block_interval_s", "witness_range_m"])
    def test_rejects_an_infinite_float(self, field):
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
            TopologySpec.single(4, **{field: float("inf")})

    @pytest.mark.parametrize("build, field", [
        (lambda v: TopologySpec.single(v, 4), "n_nodes"),
        (lambda v: TopologySpec.single(10, v), "n_endorsers"),
        (lambda v: TopologySpec.single(10, 4, seed=v), "seed"),
        (lambda v: TopologySpec.cluster(v), "n_replicas"),
        (lambda v: TopologySpec.cluster(5, n_clients=v), "n_clients"),
        (lambda v: TopologySpec.cluster(event_capacity=v), "event_capacity"),
        (lambda v: TopologySpec.zoned(v, 8), "n_zones"),
        (lambda v: TopologySpec.zoned(2, v), "n_nodes"),
        (lambda v: TopologySpec(zones=(ZoneSpec("z0", 8, id_base=v),)), "id_base"),
    ])
    @pytest.mark.parametrize("value", [True, 300.0, 10.5, "300"])
    def test_a_size_that_is_not_an_integer_is_refused_by_name(self, build, field, value):
        # each used to die later with a raw TypeError, or (a bool) be
        # read as 1 and refused for a reason that is not the real one
        with pytest.raises(ConfigurationError, match=f"^{field} must be an integer"):
            build(value)

    def test_a_numpy_integer_is_a_size(self):
        spec = TopologySpec.single(np.int64(12), np.int32(4), seed=np.int64(3))
        assert spec.deployment_zone().n_nodes == 12
        assert TopologySpec.zoned(np.int64(2), 8).n_zones == 2
        assert TopologySpec.cluster(np.int16(4), event_capacity=np.int64(300)).n_replicas == 4


class TestCommitteeConfig:
    def test_paper_defaults(self):
        cfg = CommitteeConfig()
        assert cfg.min_endorsers == 4
        assert cfg.max_endorsers == 40

    def test_minimum_is_pbft_floor(self):
        with pytest.raises(ConfigurationError):
            CommitteeConfig(min_endorsers=3)

    def test_max_below_min_rejected(self):
        with pytest.raises(ConfigurationError):
            CommitteeConfig(min_endorsers=10, max_endorsers=5)

    def test_black_white_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            CommitteeConfig(blacklist=frozenset({7}), whitelist=frozenset({7}))


class TestElectionConfig:
    def test_paper_defaults(self):
        cfg = ElectionConfig()
        assert cfg.stationary_hours == 72.0

    def test_rejects_nonpositive_thresholds(self):
        with pytest.raises(ConfigurationError):
            ElectionConfig(stationary_hours=0)
        with pytest.raises(ConfigurationError):
            ElectionConfig(min_reports=0)


class TestEraConfig:
    def test_paper_switch_duration(self):
        assert EraConfig().switch_duration_s == pytest.approx(0.25)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ConfigurationError):
            EraConfig(period_s=0)


@pytest.mark.parametrize("section, field", [
    (EraConfig, "period_s"), (EraConfig, "switch_duration_s"),
    (ElectionConfig, "report_interval_s")])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_a_non_finite_era_or_report_period_is_refused(section, field, value):
    # an infinite era timer re-armed at inf + inf: a run spent its whole
    # event cap with the clock at inf
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
        section(**{field: value})


class TestGPBFTConfig:
    def test_replace_swaps_sections(self):
        cfg = GPBFTConfig()
        new = cfg.replace(committee=CommitteeConfig(max_endorsers=20))
        assert new.committee.max_endorsers == 20
        assert cfg.committee.max_endorsers == 40  # original untouched
        assert new.network == cfg.network
