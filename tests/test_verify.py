"""Tests for ``repro.verify``: monitors, explorer, shrinking and replay.

The centrepiece is a *mutation self-test*: a deliberate quorum bug is
injected through the fault model and the schedule explorer must (a)
find it within a bounded seed budget, (b) shrink the failing schedule
to a minimal one that still trips the same monitor, and (c) write an
artifact that :func:`repro.verify.replay.replay_artifact` reproduces
bit-for-bit (identical event-schedule fingerprint).  If the explorer
ever loses the ability to catch a planted safety bug, these tests --
not a production incident -- are where that regression surfaces.
"""

import json
from types import SimpleNamespace

import pytest

from repro.common.errors import ConfigurationError
from repro.common.eventlog import (
    EV_PBFT_ENTERED_VIEW,
    EV_PBFT_EXECUTED,
    EV_TX_COMMITTED,
    EVENT_KINDS,
    EventLog,
    event_to_json,
)
from repro.experiments.engine import Engine
from repro.verify import InvariantViolation, MonitorHarness
from repro.verify.cli import main as verify_main
from repro.verify import explorer
from repro.verify.explorer import (
    Perturbation,
    DelayWindowLatency,
    Schedule,
    explore,
    generate_schedule,
    run_schedule,
    shrink_schedule,
    write_artifact,
)
from repro.verify.invariants import (
    ExactlyOnceMonitor,
    Monitor,
    QuorumCertificateMonitor,
    ViewChangeMonotonicityMonitor,
    default_monitors,
)
from repro.verify.replay import load_artifact, replay_artifact

QUORUM_BUG = ((1, "quorum_undercount"),)

#: Checkpoint-bypass bug planted in zone 0 of a hierarchical run: the
#: gateway ships inter-zone envelopes straight to the destination,
#: skipping the top-level committee (fault keys are zone indices).
XZONE_BUG = ((0, "xzone_bypass"),)


def _clean(seed=3, **kw):
    return Schedule(protocol="pbft", n=4, seed=seed, submissions=3,
                    horizon_s=60.0, **kw)


def _zoned(seed=3, **kw):
    return Schedule(protocol="gpbft", n=8, zones=2, seed=seed,
                    submissions=4, horizon_s=60.0, **kw)


class TestScheduleModel:
    def test_json_roundtrip(self):
        schedule = Schedule(
            protocol="gpbft", n=6, seed=9, submissions=4, horizon_s=120.0,
            era_switch_at=30.0,
            perturbations=(Perturbation(op="crash", at=5.0, until=20.0,
                                        node=1),),
            faults=QUORUM_BUG,
        )
        assert Schedule.from_json(schedule.to_json()) == schedule
        # canonical form is stable and parseable
        assert json.loads(schedule.canonical_json()) == schedule.to_json()

    def test_validation_rejects_bad_schedules(self):
        with pytest.raises(ConfigurationError):
            Schedule(protocol="pbft", n=4, seed=0, era_switch_at=10.0)
        with pytest.raises(ConfigurationError):
            Schedule(protocol="pbft", n=4, seed=0,
                     faults=((0, "no-such-fault"),))
        with pytest.raises(ConfigurationError):
            Perturbation(op="warp", at=1.0)

    @pytest.mark.parametrize("fields,message", [
        (dict(at=float("nan"), until=2.0), "perturbation at must be finite"),
        (dict(at=1.0, until=float("inf")), "perturbation until must be finite"),
        (dict(at=1.0, until=2.0, extra_s=float("nan")),
         "perturbation extra_s must be finite"),
        (dict(at=1.0, until=2.0, extra_s=-0.5), "perturbation extra_s must be >= 0"),
        (dict(at=1.0, until=2.0, p=1.5), r"perturbation p must be in \[0, 1\]"),
        (dict(at=1.0, until=2.0, p=float("nan")), r"perturbation p must be in \[0, 1\]"),
    ])
    def test_perturbation_rejects_non_finite_and_out_of_range(self, fields, message):
        with pytest.raises(ConfigurationError, match=message):
            Perturbation(op="delay", **fields)

    def test_generate_is_deterministic_and_valid(self):
        for protocol, n in (("pbft", 4), ("gpbft", 6)):
            one = generate_schedule(protocol, n, seed=11)
            two = generate_schedule(protocol, n, seed=11)
            assert one == two
            assert generate_schedule(protocol, n, seed=12) != one

    def test_zoned_schedule_json_roundtrip(self):
        schedule = _zoned(faults=XZONE_BUG)
        assert schedule.zones == 2
        restored = Schedule.from_json(schedule.to_json())
        assert restored == schedule
        # legacy artifacts without a zones field stay loadable
        legacy = dict(_clean().to_json())
        legacy.pop("zones", None)
        assert Schedule.from_json(legacy).zones == 1

    def test_zoned_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            Schedule(protocol="pbft", n=8, seed=0, zones=2)
        with pytest.raises(ConfigurationError):
            Schedule(protocol="gpbft", n=10, seed=0, zones=3)  # 10 % 3 != 0
        with pytest.raises(ConfigurationError):
            Schedule(protocol="gpbft", n=6, seed=0, zones=2)  # zones of 3

    def test_generate_zoned_is_deterministic(self):
        one = generate_schedule("gpbft", 8, seed=11, zones=2)
        assert one == generate_schedule("gpbft", 8, seed=11, zones=2)
        assert one.zones == 2


class TestRunSchedule:
    def test_clean_schedule_passes_and_is_deterministic(self):
        first = run_schedule(_clean()).result
        second = run_schedule(_clean()).result
        assert first.ok and second.ok
        assert first.fingerprint == second.fingerprint
        assert first.executed >= 3

    def test_planted_quorum_bug_trips_the_certificate_monitor(self):
        outcome = run_schedule(_clean(faults=QUORUM_BUG))
        assert not outcome.result.ok
        violation = outcome.result.violation
        assert violation["monitor"] == "quorum-certificate"
        assert violation["trace"], "violation must carry its trace window"

    @pytest.mark.parametrize("planted", [False, True])
    def test_planted_forgotten_execution_trips_the_exactly_once_monitor(self, planted):
        from repro.pbft.messages import ClientRequest, RawOperation
        from tests.test_exactly_once import small_cluster

        cluster = small_cluster(seed=0, checkpoint_interval=1000, watermark_window=4000)
        MonitorHarness(cluster, monitors=[ExactlyOnceMonitor()])
        cluster.sim.run(until=30.0)
        client = cluster.any_client
        op = RawOperation(op_id="late-retry")
        rid = client.submit(op)
        cluster.sim.run(until=40.0)
        assert rid in client.completed
        if planted:
            # every replica forgets what it executed, as checkpoint GC does
            for replica in cluster.replicas.values():
                replica._executed_requests.clear()
                replica._assigned.clear()
        retry = ClientRequest(client=client.node_id, timestamp=30.0, op=op)
        assert retry.request_id == rid
        cluster.network.multicast(client.node_id, sorted(cluster.replicas), retry)
        if not planted:
            cluster.sim.run(until=50.0)  # answered from the executed table
            return
        with pytest.raises(InvariantViolation) as exc:
            cluster.sim.run(until=50.0)
        assert exc.value.monitor == "exactly-once"
        assert f"executed {rid!r} at seq=" in exc.value.message

    def test_clean_zoned_schedule_passes_and_is_deterministic(self):
        first = run_schedule(_zoned()).result
        second = run_schedule(_zoned()).result
        assert first.ok and second.ok
        assert first.fingerprint == second.fingerprint

    def test_planted_bypass_trips_the_cross_shard_monitor(self):
        outcome = run_schedule(_zoned(faults=XZONE_BUG))
        assert not outcome.result.ok
        violation = outcome.result.violation
        assert violation["monitor"] == "cross-shard-prefix"
        assert "never ordered" in violation["message"]


class TestPerturbationsAreNetworkFaults:
    """Every perturbation acts through the network's own fault state or
    its latency model; nothing replaces ``network.send``."""

    def _faulted_net(self, *perturbations):
        from repro.net.latency import ConstantLatency
        from repro.net.network import SimulatedNetwork
        from repro.net.simulator import Simulator

        sim = Simulator()
        net = SimulatedNetwork(sim, latency=ConstantLatency(0.01))
        got = []
        for node in range(5):
            net.register(node, lambda p, node=node: got.append((node, sim.now)))
        explorer._apply_perturbations(_clean(perturbations=perturbations),
                                      SimpleNamespace(sim=sim, network=net))
        return sim, net, got

    def test_a_certain_drop_window_loses_every_copy_of_a_multicast(self):
        from repro.net.message import RawPayload

        sim, net, got = self._faulted_net(
            Perturbation(op="drop", at=0.5, until=1.0, p=1.0))
        sim.schedule_at(0.7, net.multicast, 0, range(5), RawPayload("k", 10))
        sim.run()
        # charged and counted as dropped, like any other network loss
        assert got == []
        assert (net.stats.messages_sent, net.stats.messages_dropped) == (4, 4)
        sim.schedule_at(2.0, net.multicast, 0, range(5), RawPayload("k", 10))
        sim.run()
        assert sorted(dst for dst, _ in got) == [1, 2, 3, 4]  # window over
        assert net.stats.messages_dropped == 4

    def test_a_certain_delay_window_holds_each_copy_back_extra_s(
            self, monkeypatch):
        from repro.net.message import RawPayload

        arrivals = {}
        for window in ((), (Perturbation(op="delay", at=0.0, until=1.0,
                                         p=1.0, extra_s=0.25),)):
            sim, net, got = self._faulted_net(*window)
            calls, sample_many = [], net.latency.sample_many

            def spy(src, dsts, rng):
                calls.append(dsts)
                return sample_many(src, dsts, rng)

            monkeypatch.setattr(net.latency, "sample_many", spy)
            sim.schedule_at(0.5, net.multicast, 0, range(5), RawPayload("k", 10))
            sim.run()
            assert calls == [[1, 2, 3, 4]]  # one pass for the fan-out
            arrivals[bool(window)] = dict(got)
        assert isinstance(net.latency, DelayWindowLatency)
        assert arrivals[True] == pytest.approx(
            {dst: at + 0.25 for dst, at in arrivals[False].items()})

    @pytest.mark.parametrize("schedule,pinned", [
        (_clean(), ("33aa4e9a1ba14b02", 115, 12)),
        (_clean(seed=5, perturbations=(
            Perturbation(op="crash", at=0.5, until=20.0, node=0),
            Perturbation(op="partition", at=1.2, until=6.0, nodes=(1, 2)))),
         ("81ae5b5685286f5c", 7, 0)),
        (Schedule(protocol="gpbft", n=8, seed=4, submissions=3,
                  horizon_s=90.0, era_switch_at=10.0),
         ("c3f8fa233fd1e6d8", 713, 40)),
        (_zoned(), ("a87500875a183c0d", 349, 8)),
    ], ids=["pbft", "pbft-crash-partition", "gpbft-era-switch", "zoned"])
    def test_schedules_without_drop_or_delay_keep_their_fingerprints(
            self, schedule, pinned):
        # recorded when drop and delay windows still replaced ``send``:
        # making them network faults moved none of these
        result = run_schedule(schedule).result
        assert result.ok
        assert (result.fingerprint, result.events, result.executed) == pinned

    @pytest.mark.parametrize("perturbation", [
        Perturbation(op="crash", at=2.0, until=10.0, node=1),
        Perturbation(op="partition", at=2.0, until=10.0, nodes=(0, 1)),
        Perturbation(op="drop", at=2.0, until=10.0, p=0.3),
        Perturbation(op="delay", at=2.0, until=10.0, p=0.5, extra_s=0.4),
    ], ids=lambda p: p.op)
    def test_no_perturbation_replaces_send(self, perturbation):
        host = run_schedule(_clean(perturbations=(perturbation,))).host
        assert "send" not in vars(host.network)
        assert isinstance(host.network.latency, DelayWindowLatency) == (
            perturbation.op == "delay")


class TestMonitorHarness:
    def _host(self):
        return SimpleNamespace(events=EventLog(), mode="per_tx",
                               replicas={}, nodes={})

    def test_view_monotonicity_fires_on_regression(self):
        host = self._host()
        MonitorHarness(host, monitors=[ViewChangeMonotonicityMonitor()])
        host.events.record(1.0, EV_PBFT_ENTERED_VIEW, 0, view=2)
        with pytest.raises(InvariantViolation) as exc:
            host.events.record(2.0, EV_PBFT_ENTERED_VIEW, 0, view=2)
        violation = exc.value
        assert violation.monitor == "view-monotonicity"
        # the trace window ends with the offending event, serializably
        trace = violation.to_json()["trace"]
        assert trace[-1] == event_to_json(violation.event)

    def test_epochs_have_independent_view_timelines(self):
        host = self._host()
        MonitorHarness(host, monitors=[ViewChangeMonotonicityMonitor()])
        host.events.record(1.0, EV_PBFT_ENTERED_VIEW, 0, view=5, epoch=0)
        # same node re-entering view 1 in the next epoch is legal
        host.events.record(2.0, EV_PBFT_ENTERED_VIEW, 0, view=1, epoch=1)

    def test_a_monitor_sees_exactly_its_kinds(self):
        class Probe(Monitor):
            name = "probe"
            kinds = (EV_TX_COMMITTED, EV_PBFT_ENTERED_VIEW)

            def __init__(self):
                self.seen = []

            def on_event(self, harness, event):
                self.seen.append(event.kind)

        host = self._host()
        probe = Probe()
        MonitorHarness(host, monitors=[probe])
        for at, kind in enumerate(sorted(EVENT_KINDS)):
            host.events.record(float(at), kind, 0)
        assert probe.seen == sorted(Probe.kinds)

    def test_the_certificate_monitor_names_a_counted_non_member(self):
        from repro.pbft.log import MessageLog, roster
        from repro.pbft.messages import Commit, Prepare

        # a log whose roster admits id 9, which the replica's committee
        # does not hold: the monitor decodes the masks and names it
        digest = b"\x05" * 32
        log = MessageLog(roster((0, 1, 2, 3, 9)), 1)
        for sender in (1, 2, 9):
            log.add_prepare(Prepare(view=0, seq=1, digest=digest, sender=sender))
            log.add_commit(Commit(view=0, seq=1, digest=digest, sender=sender))
        host = self._host()
        host.replicas[1] = SimpleNamespace(f=1, epoch=0, committee=(0, 1, 2, 3), log=log)
        MonitorHarness(host, monitors=[QuorumCertificateMonitor()])
        with pytest.raises(InvariantViolation) as exc:
            host.events.record(1.0, EV_PBFT_EXECUTED, 1, seq=1, view=0, epoch=0,
                               prepares=3, commits=3)
        assert exc.value.monitor == "quorum-certificate"
        assert "non-members [9] at seq=1" in str(exc.value)

    def test_default_panel_includes_cross_shard_prefix(self):
        assert [m.name for m in default_monitors()] == [
            "prefix-consistency", "quorum-certificate", "view-monotonicity",
            "era-atomicity", "sybil-cap", "cross-shard-prefix"]
        host = self._host()
        harness = MonitorHarness(host)
        # every kind a default monitor declares is subscribed, nothing else
        assert set(host.events._subscribers) == {
            kind for monitor in harness.monitors for kind in monitor.kinds}


class TestMutationSelfTest:
    """The explorer must find and shrink a planted quorum bug."""

    SEED_BUDGET = 4

    def test_explorer_finds_and_shrinks_the_planted_bug(self, tmp_path):
        report = explore(
            protocol="pbft", n=4, seeds=range(self.SEED_BUDGET),
            submissions=3, horizon_s=60.0, faults=QUORUM_BUG,
            engine=Engine(jobs=1, use_cache=False), out_dir=tmp_path,
            shrink_budget=24,
        )
        assert not report.ok
        assert report.failures, (
            f"planted quorum bug escaped {self.SEED_BUDGET} seeds"
        )
        assert report.minimal is not None
        # shrinking must never grow the schedule, and the minimal
        # schedule must keep the injected fault (removing it heals the
        # run, so greedy shrinking cannot drop it)
        original = report.failures[0][0]
        minimal = report.minimal
        assert minimal.submissions <= original.submissions
        assert len(minimal.perturbations) <= len(original.perturbations)
        assert QUORUM_BUG[0] in minimal.faults
        assert 0 < report.shrink_runs <= 24
        assert len(report.artifacts) == len(report.failures)
        for path in report.artifacts:
            assert path.exists()

    def test_explorer_finds_and_shrinks_the_planted_bypass(self, tmp_path):
        report = explore(
            protocol="gpbft", n=8, zones=2, seeds=range(2),
            submissions=4, horizon_s=60.0, faults=XZONE_BUG,
            engine=Engine(jobs=1, use_cache=False), out_dir=tmp_path,
            shrink_budget=12,
        )
        assert not report.ok
        assert report.failures, "planted checkpoint bypass escaped"
        monitor = report.failures[0][1].violation["monitor"]
        assert monitor == "cross-shard-prefix"
        minimal = report.minimal
        assert minimal is not None
        assert minimal.zones == 2  # shrinking cannot flatten the topology
        assert XZONE_BUG[0] in minimal.faults
        # the minimal schedule must still reproduce the same violation
        verdict = run_schedule(minimal).result
        assert not verdict.ok
        assert verdict.violation["monitor"] == "cross-shard-prefix"

    def test_minimal_schedule_still_trips_the_same_monitor(self, tmp_path):
        schedule = _clean(faults=QUORUM_BUG)
        outcome = run_schedule(schedule)
        monitor = outcome.result.violation["monitor"]
        minimal, runs = shrink_schedule(schedule, monitor, budget=24)
        verdict = run_schedule(minimal).result
        assert not verdict.ok
        assert verdict.violation["monitor"] == monitor
        assert runs <= 24


class TestReplay:
    def _artifact(self, tmp_path):
        schedule = _clean(seed=5, faults=QUORUM_BUG)
        outcome = run_schedule(schedule)
        monitor = outcome.result.violation["monitor"]
        minimal, runs = shrink_schedule(schedule, monitor, budget=16)
        path = tmp_path / "artifact.json"
        write_artifact(path, schedule, outcome.result, minimal,
                       run_schedule(minimal).result, runs)
        return path

    def test_artifact_replays_deterministically(self, tmp_path):
        path = self._artifact(tmp_path)
        replay = replay_artifact(path)
        assert replay.reproduced
        expected_monitor = replay.expected.violation["monitor"]
        assert expected_monitor == replay.actual.violation["monitor"]
        summary = replay.summary()
        assert "reproduced" in summary.lower()
        assert expected_monitor in summary
        # the summary ends with the events the monitor saw before it fired
        trace = replay.actual.violation["trace"]
        lines = summary.splitlines()
        assert lines[-len(trace) - 1] == "trace window (oldest first):"
        assert [line.split()[2] for line in lines[-len(trace):]] == [
            event["kind"] for event in trace]

    def test_artifact_is_loadable_and_versioned(self, tmp_path):
        artifact = load_artifact(self._artifact(tmp_path))
        assert artifact["format"] == "repro.verify/schedule-artifact"
        assert Schedule.from_json(artifact["minimal"]["schedule"])

    def test_corrupt_artifact_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ConfigurationError):
            load_artifact(path)


class TestVerifyCLI:
    ARGS = ["--protocol", "pbft", "--n", "4", "--seeds", "2",
            "--submissions", "2", "--horizon", "45"]

    def test_clean_exploration_exits_zero(self, tmp_path, capsys):
        code = verify_main(self.ARGS + ["--out", str(tmp_path)])
        assert code == 0
        assert "0 violation" in capsys.readouterr().out

    def test_violations_exit_one_and_write_artifacts(self, tmp_path, capsys):
        code = verify_main(self.ARGS + ["--out", str(tmp_path),
                                        "--fault", "1:quorum_undercount",
                                        "--shrink-budget", "16"])
        assert code == 1
        assert list(tmp_path.glob("violation-*.json"))
        assert "quorum-certificate" in capsys.readouterr().out

    def test_replay_exit_codes(self, tmp_path, capsys):
        verify_main(self.ARGS + ["--out", str(tmp_path),
                                 "--fault", "1:quorum_undercount",
                                 "--shrink-budget", "16"])
        artifact = sorted(tmp_path.glob("violation-*.json"))[0]
        assert verify_main(["--replay", str(artifact)]) == 0
        assert "reproduced" in capsys.readouterr().out.lower()

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(SystemExit):
            verify_main(self.ARGS + ["--fault", "not-a-fault"])
