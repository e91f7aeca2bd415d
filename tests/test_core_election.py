"""Unit tests: election table, Algorithm 1, committee, incentive, eras."""

import pytest

from repro.common.config import CommitteeConfig, ElectionConfig
from repro.common.errors import ConsensusError, EraSwitchError, GeoError, MembershipError
from repro.core.authentication import authenticate_geographic
from repro.core.committee import CommitteeManager
from repro.core.election import ElectionTable
from repro.core.era import EraHistory
from repro.core.incentive import IncentiveEngine, select_producer
from repro.geo.coords import LatLng
from repro.geo.csc import CSC_PRECISION
from repro.geo.reports import GeoReport

HK = LatLng(22.3193, 114.1694)

FAST = ElectionConfig(
    stationary_hours=2.0, report_interval_s=600.0, min_reports=3,
    audit_window_s=3600.0,
)


def feed(table, node, positions_times):
    for pos, t in positions_times:
        table.observe(GeoReport(node=node, position=pos, timestamp=t))


def feed_stationary(table, node, start=0.0, count=20, step=600.0, pos=HK):
    feed(table, node, [(pos, start + i * step) for i in range(count)])


class TestElectionTable:
    def test_timer_accumulates_while_stationary(self):
        table = ElectionTable(FAST)
        feed_stationary(table, 1, count=10)
        assert table.geographic_timer(1, 9 * 600.0) == pytest.approx(9 * 600.0)

    def test_timer_resets_on_move(self):
        table = ElectionTable(FAST)
        feed(table, 1, [(HK, 0.0), (HK, 600.0), (HK.offset_m(300, 0), 1200.0),
                        (HK.offset_m(300, 0), 1800.0)])
        assert table.geographic_timer(1, 1800.0) == pytest.approx(600.0)

    def test_timer_zero_for_unknown_node(self):
        assert ElectionTable(FAST).geographic_timer(42, 100.0) == 0.0

    def test_incentive_reset(self):
        table = ElectionTable(FAST)
        feed_stationary(table, 1, count=10)
        now = 9 * 600.0
        table.reset_timer(1, now)
        assert table.geographic_timer(1, now) == 0.0
        assert table.geographic_timer(1, now + 600.0) == pytest.approx(600.0)

    def test_reset_unknown_node_rejected(self):
        with pytest.raises(GeoError):
            ElectionTable(FAST).reset_timer(5, 0.0)

    def test_eligibility_threshold(self):
        table = ElectionTable(FAST)
        feed_stationary(table, 1, count=20)  # stationary for 19*600 s > 2 h
        now = 19 * 600.0
        assert table.eligible_candidates(now) == [1]
        assert table.eligible_candidates(now, exclude={1}) == []

    def test_eligibility_requires_recent_reports(self):
        table = ElectionTable(FAST)
        # long-stationary but silent within the audit window
        feed_stationary(table, 1, count=20)
        much_later = 19 * 600.0 + 2 * 3600.0 + 1.0
        assert table.eligible_candidates(much_later) == []

    def test_mobile_node_never_eligible(self):
        table = ElectionTable(FAST)
        feed(table, 2, [(HK.offset_m(100.0 * i, 0), i * 600.0) for i in range(20)])
        assert table.eligible_candidates(19 * 600.0) == []

    def test_rows_render_like_table2(self):
        table = ElectionTable(FAST)
        feed_stationary(table, 1, count=4)
        text = table.render(1)
        assert "CSC" in text and "Geographic Timer" in text
        assert len(text.splitlines()) == 5

    def test_prune_drops_old_reports(self):
        table = ElectionTable(FAST)
        feed_stationary(table, 1, count=30)
        removed = table.prune(now=29 * 600.0, keep_s=5 * 600.0)
        assert removed > 0
        assert len(table.history(1)) <= 6

    def test_a_report_is_encoded_once_however_many_tables_observe_it(self, monkeypatch):
        # every endorser's table sees the same report object (one multicast
        # payload), and each stationarity walk asks for its cell again
        import repro.geo.reports as reports

        encoded = []

        def counting(position, precision):
            encoded.append(precision)
            return real(position, precision)

        real = reports.geohash_encode
        monkeypatch.setattr(reports, "geohash_encode", counting)
        tables = [ElectionTable(FAST) for _ in range(40)]
        first = GeoReport(node=1, position=HK, timestamp=0.0)
        second = GeoReport(node=1, position=HK, timestamp=600.0)
        for report in (first, second):
            for table in tables:
                table.observe(report)
        assert encoded == [CSC_PRECISION] * 2
        assert tables[-1].geographic_timer(1, 600.0) == 600.0
        assert first.geohash() == real(HK, CSC_PRECISION)
        assert first == GeoReport(node=1, position=HK, timestamp=0.0)  # memo not compared


class TestAlgorithm1:
    def test_stationary_endorser_revalidated(self):
        table = ElectionTable(FAST)
        feed_stationary(table, 1, count=10)
        result = authenticate_geographic(table, [1], [], now=9 * 600.0, config=FAST)
        assert result.valid_endorsers == (1,)

    def test_sparse_reporter_invalidated(self):
        table = ElectionTable(FAST)
        feed(table, 1, [(HK, 0.0)])
        result = authenticate_geographic(table, [1], [], now=600.0, config=FAST)
        assert result.invalid_endorsers == (1,)
        assert "reports in window" in result.reasons[1]

    def test_moved_endorser_invalidated(self):
        table = ElectionTable(FAST)
        feed(table, 1, [(HK, 0.0), (HK, 600.0), (HK.offset_m(500, 0), 1200.0),
                        (HK.offset_m(500, 0), 1800.0)])
        result = authenticate_geographic(table, [1], [], now=1800.0, config=FAST)
        assert result.invalid_endorsers == (1,)
        assert "location changed" in result.reasons[1]

    def test_candidate_qualification(self):
        table = ElectionTable(FAST)
        feed_stationary(table, 5, count=10)
        result = authenticate_geographic(table, [], [5], now=9 * 600.0, config=FAST)
        assert result.qualified_candidates == (5,)

    def test_moving_candidate_skipped(self):
        table = ElectionTable(FAST)
        feed(table, 5, [(HK.offset_m(100.0 * i, 0), i * 600.0) for i in range(10)])
        result = authenticate_geographic(table, [], [5], now=9 * 600.0, config=FAST)
        assert result.qualified_candidates == ()

    def test_member_not_requalified_as_candidate(self):
        table = ElectionTable(FAST)
        feed_stationary(table, 1, count=10)
        result = authenticate_geographic(table, [1], [1], now=9 * 600.0, config=FAST)
        assert result.qualified_candidates == ()
        assert result.valid_endorsers == (1,)


class TestCommitteeManager:
    def test_initial_bounds_checked(self):
        with pytest.raises(MembershipError):
            CommitteeManager([0, 1, 2])  # below PBFT floor
        with pytest.raises(MembershipError):
            CommitteeManager(range(50), CommitteeConfig(max_endorsers=40))
        with pytest.raises(MembershipError):
            CommitteeManager([0, 1, 2, 3], CommitteeConfig(blacklist=frozenset({3})))

    def test_plan_and_apply_additions(self):
        cm = CommitteeManager([0, 1, 2, 3])
        delta = cm.plan_delta(qualified=[7, 8], invalid=[])
        assert delta.added == (7, 8) and delta.removed == ()
        # the next era's committee is a valid one under the same policy
        CommitteeManager((0, 1, 2, 3) + delta.added, cm.policy)

    def test_capacity_respected(self):
        cm = CommitteeManager([0, 1, 2, 3], CommitteeConfig(max_endorsers=5))
        delta = cm.plan_delta(qualified=[7, 8, 9], invalid=[])
        assert delta.added == (7,)
        assert "maximum" in delta.rejected[8]

    def test_blacklisted_rejected(self):
        cm = CommitteeManager([0, 1, 2, 3],
                              CommitteeConfig(blacklist=frozenset({9})))
        delta = cm.plan_delta(qualified=[9], invalid=[])
        assert delta.added == ()
        assert delta.rejected[9] == "blacklisted"

    def test_whitelist_priority_at_capacity(self):
        cm = CommitteeManager([0, 1, 2, 3],
                              CommitteeConfig(max_endorsers=5,
                                              whitelist=frozenset({9})))
        delta = cm.plan_delta(qualified=[7, 9], invalid=[])
        assert delta.added == (9,)

    def test_eviction_never_breaks_pbft_floor(self):
        cm = CommitteeManager([0, 1, 2, 3, 4])
        delta = cm.plan_delta(qualified=[], invalid=[0, 1, 2])
        assert len(delta.removed) == 1  # 5 - floor(4) = 1 removable
        assert "PBFT floor" in delta.rejected[1]

    def test_eviction_with_replacement(self):
        cm = CommitteeManager([0, 1, 2, 3, 4])
        delta = cm.plan_delta(qualified=[9], invalid=[2])
        assert delta.removed == (2,) and delta.added == (9,)


class TestIncentive:
    def test_paper_split_70_30(self):
        engine = IncentiveEngine()
        engine.on_block(1, producer=0, endorsers=[0, 1, 2, 3], total_fee=10.0)
        assert engine.balance(0) == pytest.approx(7.0)
        for e in (1, 2, 3):
            assert engine.balance(e) == pytest.approx(1.0)
        assert sum(engine.balances.values()) == pytest.approx(10.0)

    def test_excluded_producer_forfeits(self):
        engine = IncentiveEngine()
        engine.exclude(0)
        event = engine.on_block(1, producer=0, endorsers=[0, 1, 2, 3], total_fee=10.0)
        assert event.producer_reward == 0.0
        assert engine.balance(0) == 0.0
        assert engine.balance(1) == pytest.approx(1.0)

    def test_excluded_endorser_share_burned(self):
        engine = IncentiveEngine()
        engine.exclude(3)
        engine.on_block(1, producer=0, endorsers=[0, 1, 2, 3], total_fee=10.0)
        assert engine.balance(3) == 0.0
        assert engine.balance(1) == pytest.approx(1.0)  # not redistributed
        assert sum(engine.balances.values()) == pytest.approx(9.0)

    def test_reinstate(self):
        engine = IncentiveEngine()
        engine.exclude(1)
        engine.reinstate(1)
        engine.on_block(1, producer=0, endorsers=[0, 1], total_fee=10.0)
        assert engine.balance(1) == pytest.approx(3.0)

    def test_negative_fee_rejected(self):
        with pytest.raises(ConsensusError):
            IncentiveEngine().on_block(1, 0, [0, 1], -1.0)


class TestSelectProducer:
    def test_deterministic_across_calls(self):
        timers = {0: 10.0, 1: 55.0, 2: 3.0}
        assert select_producer(timers, 2, 7) == select_producer(timers, 2, 7)

    def test_heavy_timer_wins_most_lotteries(self):
        timers = {0: 1000.0, 1: 1.0, 2: 1.0}
        wins = sum(select_producer(timers, 1, h) == 0 for h in range(100))
        assert wins > 80

    def test_zero_timers_fall_back_to_uniform(self):
        timers = {0: 0.0, 1: 0.0, 2: 0.0}
        picks = {select_producer(timers, 1, h) for h in range(100)}
        assert picks == {0, 1, 2}

    def test_validation(self):
        with pytest.raises(ConsensusError):
            select_producer({}, 0, 0)
        with pytest.raises(ConsensusError):
            select_producer({0: -1.0}, 0, 0)


class TestEraHistory:
    def test_timeline(self):
        hist = EraHistory([0, 1, 2, 3])
        assert hist.current.era == 0
        hist.begin_switch(10.0)
        assert hist.switch_periods() == []
        record = hist.complete_switch(10.25, [0, 1, 2, 3, 7])
        assert record.era == 1
        assert hist.switch_periods() == [(10.0, 10.25)]
        assert hist.total_switch_time() == pytest.approx(0.25)

    def test_double_begin_rejected(self):
        hist = EraHistory([0, 1, 2, 3])
        hist.begin_switch(1.0)
        with pytest.raises(EraSwitchError):
            hist.begin_switch(2.0)

    def test_complete_without_begin_rejected(self):
        with pytest.raises(EraSwitchError):
            EraHistory([0, 1, 2, 3]).complete_switch(1.0, [0, 1, 2, 3])

    def test_time_regression_rejected(self):
        hist = EraHistory([0, 1, 2, 3])
        hist.begin_switch(5.0)
        with pytest.raises(EraSwitchError):
            hist.complete_switch(4.0, [0, 1, 2, 3])
