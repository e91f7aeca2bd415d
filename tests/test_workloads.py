"""Tests: fleets, mobility, arrivals, scenarios (repro.workloads)."""

import importlib.util
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.geo.coords import LatLng, Region
from repro.net.simulator import Simulator
from repro.workloads.arrivals import ConstantRateArrivals, PoissonArrivals
from repro.workloads.mobility import (
    MobilityDriver,
    RandomWaypointModel,
)
from repro.common.eventlog import (
    EV_PBFT_VIEW_CHANGE, EV_REQUEST_COMPLETED, EV_REQUEST_SUBMITTED,
)
from repro.workloads.scenarios import (
    asset_tracking_scenario,
    grid_positions,
    smart_city_scenario,
)

HK = LatLng(22.3193, 114.1694)
REGION = Region.around(HK, 400.0)


class TestFleet:
    def test_grid_inside_region(self):
        for pos in grid_positions(REGION, 25):
            assert REGION.south <= pos.lat <= REGION.north
            assert REGION.west <= pos.lng <= REGION.east

    def test_grid_count_and_distinctness(self):
        positions = grid_positions(REGION, 10)
        assert len(positions) == 10
        assert len({(p.lat, p.lng) for p in positions}) == 10


class TestMobility:
    def test_random_waypoint_moves_within_speed_budget(self):
        model = RandomWaypointModel(REGION, speed_min_mps=2.0, speed_max_mps=5.0,
                                    pause_s=0.0)
        rng = DeterministicRNG(3)
        pos = REGION.center
        new_pos = model.step(pos, 30.0, rng)
        assert pos.distance_to(new_pos) <= 5.0 * 30.0 + 1.0

    def test_driver_moves_node(self):
        class FakeNode:
            def __init__(self):
                self.position = REGION.center
                self.moves = 0
            def move_to(self, p):
                self.position = p
                self.moves += 1

        sim = Simulator()
        node = FakeNode()
        driver = MobilityDriver(node, RandomWaypointModel(REGION, pause_s=0.0),
                                sim, DeterministicRNG(4), interval_s=10.0)
        driver.start()
        sim.run(until=100.0)
        assert node.moves >= 5
        driver.stop()
        before = node.moves
        sim.run(until=200.0)
        assert node.moves == before

    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(REGION, speed_min_mps=0.0)
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(REGION, speed_min_mps=5.0, speed_max_mps=1.0)


class TestArrivals:
    def test_constant_rate_count(self):
        sim = Simulator()
        fired = []
        arrivals = ConstantRateArrivals(sim, lambda: fired.append(sim.now),
                                        DeterministicRNG(5), period_s=10.0)
        arrivals.start(limit=5, phase=0.0)
        sim.run(until=1000.0)
        assert len(fired) == 5
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        assert all(g == pytest.approx(10.0) for g in gaps)

    def test_unbounded_until_stop(self):
        sim = Simulator()
        fired = []
        arrivals = ConstantRateArrivals(sim, lambda: fired.append(1),
                                        DeterministicRNG(6), period_s=1.0)
        arrivals.start(phase=0.0)
        sim.run(until=10.5)
        arrivals.stop()
        sim.run(until=20.0)
        assert len(fired) == 11

    def test_poisson_mean_rate(self):
        sim = Simulator()
        fired = []
        arrivals = PoissonArrivals(sim, lambda: fired.append(1),
                                   DeterministicRNG(7), mean_period_s=2.0)
        arrivals.start(phase=0.0)
        sim.run(until=2000.0)
        # ~1000 expected; allow generous tolerance
        assert 800 < len(fired) < 1200

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            ConstantRateArrivals(sim, lambda: None, DeterministicRNG(8), period_s=0.0)
        with pytest.raises(ConfigurationError):
            PoissonArrivals(sim, lambda: None, DeterministicRNG(9), mean_period_s=-1.0)


class TestScenarios:
    def test_smart_city_builds_and_runs(self):
        scenario = smart_city_scenario(n_lamps=6, n_vehicles=4, tx_period_s=20.0, seed=1)
        scenario.start(tx_limit_per_node=2)
        scenario.run(120.0)
        dep = scenario.deployment
        assert dep.ledgers_consistent()
        committed = dep.events.count(EV_REQUEST_COMPLETED)
        assert committed >= 4  # vehicles got transactions through

    def test_smart_city_vehicles_actually_move(self):
        scenario = smart_city_scenario(n_lamps=6, n_vehicles=2, seed=2)
        start_positions = {d.node.node_id: d.node.position for d in scenario.mobility}
        scenario.start()
        scenario.run(300.0)
        moved = sum(
            1 for d in scenario.mobility
            if d.node.position != start_positions[d.node.node_id]
        )
        assert moved == 2

    def test_asset_tracking_records_positions_on_chain(self):
        scenario = asset_tracking_scenario(n_readers=6, n_assets=4, seed=4)
        scenario.start()
        scenario.run(240.0)
        dep = scenario.deployment
        assert dep.events.count(EV_REQUEST_COMPLETED) > 0
        assert dep.ledgers_consistent()
        ledger = dep.nodes[0].ledger
        tracked = [a for a in range(6, 10) if ledger.state.get(f"asset{a}")]
        assert tracked  # at least one asset sighted and committed

    def test_asset_tracking_assets_move(self):
        scenario = asset_tracking_scenario(n_readers=6, n_assets=3, seed=5)
        starts = {d.node.node_id: d.node.position for d in scenario.mobility}
        scenario.start()
        scenario.run(300.0)
        assert any(d.node.position != starts[d.node.node_id]
                   for d in scenario.mobility)

    def test_the_shipped_asset_demo_runs_inside_capacity(self):
        path = Path(__file__).resolve().parents[1] / "examples" / "asset_tracking.py"
        spec = importlib.util.spec_from_file_location("asset_tracking_demo", path)
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        scenario = asset_tracking_scenario(**demo.CONFIG)
        scenario.start()
        scenario.run(demo.DURATION_S)
        events = scenario.deployment.events
        assert events.count(EV_PBFT_VIEW_CHANGE) == 0
        submitted = events.count(EV_REQUEST_SUBMITTED)
        assert submitted > 0
        assert events.count(EV_REQUEST_COMPLETED) >= 0.95 * submitted

    def test_too_few_infrastructure_rejected(self):
        with pytest.raises(ConfigurationError):
            smart_city_scenario(n_lamps=3)
        with pytest.raises(ConfigurationError):
            asset_tracking_scenario(n_readers=3)


class TestArrivalEdgeCases:
    def test_zero_limit_never_submits(self):
        sim = Simulator()
        fired = []
        arrivals = ConstantRateArrivals(sim, lambda: fired.append(1),
                                        DeterministicRNG(10), period_s=1.0)
        arrivals.start(limit=0, phase=0.0)
        sim.run(until=100.0)
        assert fired == []
        assert arrivals.submitted == 0

    def test_stop_before_first_fire(self):
        sim = Simulator()
        fired = []
        arrivals = PoissonArrivals(sim, lambda: fired.append(1),
                                   DeterministicRNG(11), mean_period_s=5.0)
        arrivals.start(phase=3.0)
        arrivals.stop()
        sim.run(until=100.0)
        assert fired == []

    def test_extreme_poisson_rates(self):
        # a near-saturating rate still terminates and fires a lot ...
        sim = Simulator()
        fast: list[int] = []
        PoissonArrivals(sim, lambda: fast.append(1), DeterministicRNG(12),
                        mean_period_s=1e-3).start(phase=0.0)
        sim.run(until=1.0)
        assert 500 < len(fast) < 2000
        # ... while a glacial rate fires nothing within the horizon
        sim2 = Simulator()
        slow: list[int] = []
        PoissonArrivals(sim2, lambda: slow.append(1), DeterministicRNG(12),
                        mean_period_s=1e9).start(phase=1e9)
        sim2.run(until=1000.0)
        assert slow == []

    def test_colocated_streams_are_independent(self):
        """Adding a second arrival process never perturbs the first."""
        def run(with_second):
            sim = Simulator()
            root = DeterministicRNG(13, "arrivals")
            times: list[float] = []
            PoissonArrivals(sim, lambda: times.append(sim.now),
                            root.fork("a"), mean_period_s=7.0).start()
            if with_second:
                PoissonArrivals(sim, lambda: None,
                                root.fork("b"), mean_period_s=3.0).start()
            sim.run(until=500.0)
            return times

        assert run(False) == run(True)


class TestMobilityEdgeCases:
    def test_degenerate_region_pins_the_walker(self):
        region = Region.around(HK, 0.01)
        model = RandomWaypointModel(region, speed_min_mps=1.0,
                                    speed_max_mps=2.0, pause_s=0.0)
        rng = DeterministicRNG(14)
        pos = region.center
        for _ in range(50):
            pos = model.step(pos, 10.0, rng)
            assert region.south <= pos.lat <= region.north
            assert region.west <= pos.lng <= region.east
            assert pos.distance_to(region.center) < 0.1

    def test_single_waypoint_reached_then_pauses(self):
        region = Region.around(HK, 300.0)
        model = RandomWaypointModel(region, speed_min_mps=5.0,
                                    speed_max_mps=5.0, pause_s=1e9)
        rng = DeterministicRNG(15)
        pos = region.center
        # a huge dt guarantees the first waypoint is reached, after
        # which the enormous pause freezes the walker in place
        pos = model.step(pos, 1e6, rng)
        frozen = model.step(pos, 1000.0, rng)
        assert (frozen.lat, frozen.lng) == (pos.lat, pos.lng)

    def test_step_with_zero_dt_is_a_no_op(self):
        region = Region.around(HK, 300.0)
        model = RandomWaypointModel(region)
        rng = DeterministicRNG(16)
        pos = model.step(region.center, 0.0, rng)
        assert (pos.lat, pos.lng) == (region.center.lat, region.center.lng)

    def test_colocated_drivers_are_independent(self):
        """A second mobile node never changes the first node's path."""
        class FakeNode:
            def __init__(self):
                self.position = HK
                self.trace = []

            def move_to(self, pos):
                self.position = pos
                self.trace.append((pos.lat, pos.lng))

        def run(with_second):
            sim = Simulator()
            root = DeterministicRNG(17, "mob")
            region = Region.around(HK, 400.0)
            first = FakeNode()
            MobilityDriver(first, RandomWaypointModel(region), sim,
                           root.fork("a"), interval_s=10.0).start()
            if with_second:
                MobilityDriver(FakeNode(), RandomWaypointModel(region), sim,
                               root.fork("b"), interval_s=10.0).start()
            sim.run(until=300.0)
            return first.trace

        trace = run(False)
        assert trace  # the walker actually moved
        assert trace == run(True)
