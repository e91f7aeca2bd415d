"""Every event kind recorded or queried is one the vocabulary knows.

:data:`repro.common.eventlog.EVENT_KINDS` is the vocabulary the
monitors, metrics and observability layer read.  These tests run every
topology and mode -- single, cluster, zoned, hierarchy, block mode, an
era switch, an audit, a Sybil admission, a state transfer and the three
baselines -- with every invariant monitor and every observability
feature on wherever a host takes them, and check four things:

* after each case, every key of every :class:`EventLog`'s per-kind
  counts is a registered kind (the counts are exact at any capacity);
* every kind passed to :meth:`EventLog.count` or
  :meth:`EventLog.of_kind` while the cases run is a registered kind;
* every row recorded while the cases run holds one value per field its
  kind declares (:data:`~repro.common.eventlog.FIELDS`), so a value
  dropped or added at a call site fails even where nothing reads it,
  and holds no mutable value (a row must hash), so no reader can
  change what the log holds through a ``data`` dict's value;
* every registered kind is recorded by some case, or is listed in
  :data:`UNREACHED` with the reason.

No kind may declare a field name twice.

A raw literal equal to a current constant is no fault at runtime; if
the constant later drifts, the literal's reader queries a kind nothing
records, and the second check catches it then.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import dbft, pos, pow as pow_baseline
from repro.chain.block import Block
from repro.common.config import (
    CommitteeConfig,
    ElectionConfig,
    EraConfig,
    GPBFTConfig,
    PBFTConfig,
    ZONE_ID_STRIDE,
    TopologySpec,
    VerifyConfig,
)
from repro.common.eventlog import (
    EV_BLOCK_PROPOSED,
    EV_DBFT_COMMITTED,
    EV_POS_BLOCK,
    EV_REQUEST_COMPLETED,
    EVENT_KINDS,
    FIELDS,
    EventLog,
)
from repro.core import node as gpbft_node
from repro.core.messages import BlockProposalOperation
from repro.experiments import runner
from repro.geo.coords import LatLng
from repro.metrics import throughput
from repro.metrics.throughput import throughput_from_events
from repro.obs import Observability
from repro.obs.obsconfig import ObsConfig
from repro.pbft.faults import CrashFaults
from repro.pbft.messages import RawOperation
from repro.sybil.attacker import SybilStrategy

#: Registered kinds no case records, with the reason.
UNREACHED: dict[str, str] = {}


def _monitored(**sections) -> GPBFTConfig:
    """Every invariant monitor on."""
    return GPBFTConfig(verify=VerifyConfig(monitors=True), **sections)


def _obs() -> Observability:
    """Every observability feature on: windows, spans and the recorder."""
    return Observability(ObsConfig(window_s=30.0, timeseries=True,
                                   flight_recorder=True))


def _measure(host) -> None:
    """Read the host's log the way the metrics do."""
    list(host.events.of_kind(EV_REQUEST_COMPLETED))
    throughput_from_events(host.events, 0.0, host.sim.now + 1.0)


def _election(era_period_s: float = 1_800.0, **committee) -> GPBFTConfig:
    """Fast geography: devices qualify within an hour of reports."""
    return _monitored(
        election=ElectionConfig(stationary_hours=0.25, report_interval_s=300.0,
                                min_reports=3, audit_window_s=1_800.0),
        era=EraConfig(period_s=era_period_s, switch_duration_s=0.25),
        committee=CommitteeConfig(**committee))


def case_cluster() -> None:
    """Flat PBFT: a replica sleeps through two checkpoints and catches
    up by state transfer, then the primary crashes: a view change."""
    faults = {0: CrashFaults(), 3: CrashFaults()}
    config = _monitored(pbft=PBFTConfig(checkpoint_interval=4,
                                        watermark_window=32,
                                        view_change_timeout_s=30.0,
                                        request_retry_timeout_s=60.0))
    cluster = TopologySpec.cluster(4, 1, config=config).build(
        obs=_obs(), faults=faults)
    faults[3].crash()
    for i in range(12):
        cluster.submit(RawOperation(f"missed-{i}"))
    cluster.run(until=300)
    faults[3].recover()
    for i in range(8):
        cluster.submit(RawOperation(f"after-{i}"))
    cluster.run(until=900)
    faults[0].crash()
    cluster.submit(RawOperation("after-crash"))
    cluster.run(until=2_000)
    cluster.monitors.check_final()
    _measure(cluster)


def case_single() -> None:
    """The paper's deployment in tx mode: devices report, get elected at
    an audit and switch era; a wandering endorser is evicted, and so is
    a crashed primary, which learns it from the survivors."""
    primary = CrashFaults()
    dep = TopologySpec.single(8, 5, config=_election(max_endorsers=6),
                              seed=8).build(obs=_obs(), faults={0: primary})
    dep.sim.schedule(600.0, primary.crash)
    mover = dep.nodes[2]

    def wander() -> None:
        mover.move_to(LatLng(mover.position.lat + 0.001, mover.position.lng))
        dep.sim.schedule(300.0, wander)

    wander()
    for node in (6, 7):
        dep.submit_from(node)
    dep.run(until=3 * 1_800.0 + 100)
    dep.force_era_switch()
    dep.submit_from(7)
    dep.run(until=dep.sim.now + 120)
    dep.monitors.check_final()
    _measure(dep)


def case_halt() -> None:
    """Evictions drop the committee below its minimum: commits halt."""
    dep = TopologySpec.single(8, 6, config=_election(max_endorsers=8,
                                                     min_endorsers=6),
                              seed=40).build(obs=_obs())

    def wander(node_id: int) -> None:
        node = dep.nodes[node_id]
        node.move_to(LatLng(node.position.lat + 0.001, node.position.lng))
        dep.sim.schedule(300.0, wander, node_id)

    for node_id in (4, 5, 6, 7):
        wander(node_id)
    dep.run(until=3 * 1_800.0 + 100)
    dep.monitors.check_final()


def case_block() -> None:
    """Block mode: producers pack the mempool into proposed blocks, and
    a forged proposal off the agreed chain is rejected."""
    dep = TopologySpec.single(8, 4, config=_monitored(), mode="block",
                              seed=3, start_reports=False).build(obs=_obs())
    for node in range(4, 8):
        dep.submit_from(node)
    dep.run(until=120)
    forger = dep.nodes[3]
    forged = Block.assemble(height=forger.ledger.height + 1, parent=bytes(32),
                            era=forger.era, view=0, seq=0, proposer=3,
                            timestamp=dep.sim.now, transactions=[])
    forger.client.submit(BlockProposalOperation(block=forged, producer=3))
    dep.run(until=240)
    dep.monitors.check_final()
    _measure(dep)


def case_sybil() -> None:
    """The report-admission filter refuses a Sybil swarm's reports."""
    dep = TopologySpec.single(8, 4, config=_election(max_endorsers=8),
                              seed=5, sybil_protection=True).build(obs=_obs())
    dep.add_sybils(3, strategy=SybilStrategy.CLONE_CELL)
    dep.run(until=1_000)
    dep.monitors.check_final()


def case_hierarchy() -> None:
    """Two zones and a top committee order an inter-zone transaction."""
    hier = TopologySpec.zoned(2, 6, config=_monitored(), seed=1,
                              start_reports=False).build(obs=_obs())
    hier.submit_xzone(0, dst_zone=1)
    hier.submit_xzone(ZONE_ID_STRIDE, dst_zone=0)
    hier.submit_from(1)
    hier.run_for(60.0)
    hier.monitors.check_final()
    _measure(hier)


def case_points() -> None:
    """The engine's latency and traffic points and the day's agg path."""
    runner._latency_point("gpbft", 6, 0, 10.0, measured=2, warmup=1,
                          era_switch_at_tx=1)
    runner._latency_point("pbft", 4, 0, 10.0, measured=2, warmup=1)
    runner._traffic_point("gpbft", 6)
    runner._gpbft_agg_point(40, 0, zones=2, duration_s=60.0,
                            drain_slack_s=600.0, obs=_obs())


def case_baselines() -> None:
    """PoW, PoS and dBFT each commit a transaction."""
    for net in (pow_baseline.PoWNetwork(n_miners=4, seed=1),
                pos.PoSNetwork(n_validators=4, seed=1),
                dbft.DBFTNetwork(n_validators=8, seed=1)):
        net.submit_tx("tx-a")
        net.run(until=600.0)
        list(net.events.of_kind(EV_REQUEST_COMPLETED))


CASES = {case.__name__[len("case_"):]: case for case in (
    case_cluster, case_single, case_halt, case_block, case_sybil,
    case_hierarchy, case_points, case_baselines)}


@dataclasses.dataclass
class Seen:
    """Kinds recorded and queried while the cases ran, per case; the
    ``(kind, length)`` of each row whose length is not its kind's field
    count and the kinds of rows that do not hash, per case that recorded
    one."""

    recorded: dict[str, set[str]] = dataclasses.field(default_factory=dict)
    queried: dict[str, set[str]] = dataclasses.field(default_factory=dict)
    misshapen: dict[str, list[tuple[str, int]]] = dataclasses.field(
        default_factory=dict)
    mutable: dict[str, list[str]] = dataclasses.field(default_factory=dict)


def run_cases(monkeypatch, cases=CASES) -> Seen:
    """Run *cases*, watching every log they build and every query."""
    seen = Seen()
    logs: list[EventLog] = []
    queried: set[str] = set()
    misshapen: set[tuple[str, int]] = set()
    mutable: set[str] = set()
    init, count, of_kind = EventLog.__init__, EventLog.count, EventLog.of_kind
    record = EventLog.record

    def watched_init(log, *args, **kwargs):
        init(log, *args, **kwargs)
        logs.append(log)

    def watched_count(log, kind):
        queried.add(kind)
        return count(log, kind)

    def watched_of_kind(log, kind):
        queried.add(kind)
        return of_kind(log, kind)

    def watched_record(log, at, kind, node=-1, *values):
        if len(values) != len(FIELDS.get(kind, ())):
            misshapen.add((kind, len(values)))
        try:
            hash(values)
        except TypeError:
            mutable.add(kind)
        record(log, at, kind, node, *values)

    monkeypatch.setattr(EventLog, "__init__", watched_init)
    monkeypatch.setattr(EventLog, "count", watched_count)
    monkeypatch.setattr(EventLog, "of_kind", watched_of_kind)
    monkeypatch.setattr(EventLog, "record", watched_record)
    for name, case in cases.items():
        logs.clear()
        queried.clear()
        misshapen.clear()
        mutable.clear()
        case()
        seen.recorded[name] = {kind for log in logs for kind in log._counts}
        seen.queried[name] = set(queried)
        if misshapen:
            seen.misshapen[name] = sorted(misshapen)
        if mutable:
            seen.mutable[name] = sorted(mutable)
    return seen


@pytest.fixture(scope="module")
def seen():
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield run_cases(monkeypatch)


def unknown(per_case: dict[str, set[str]], vocabulary=EVENT_KINDS) -> dict:
    """case -> the kinds it used that *vocabulary* does not hold."""
    return {case: sorted(kinds - vocabulary)
            for case, kinds in per_case.items() if kinds - vocabulary}


def test_every_recorded_kind_is_registered(seen):
    assert unknown(seen.recorded) == {}


def test_every_queried_kind_is_registered(seen):
    assert unknown(seen.queried) == {}


def test_every_recorded_row_holds_its_kinds_fields(seen):
    assert seen.misshapen == {}
    assert seen.mutable == {}


def duplicated(table=FIELDS) -> dict[str, list[str]]:
    """kind -> the field names *table* declares for it more than once."""
    return {kind: sorted({f for f in fields if fields.count(f) > 1})
            for kind, fields in table.items() if len(set(fields)) < len(fields)}


def test_no_kind_declares_a_field_twice():
    assert duplicated() == {}
    assert duplicated({"k": ("seq", "view", "seq")}) == {"k": ["seq"]}


def test_a_dropped_value_fails_the_check(monkeypatch):
    # nothing reads block.proposed in this case, so only the row check
    # sees the proposer's height go missing
    record = gpbft_node.GPBFTNode._record

    def dropping(node, kind, *values):
        record(node, kind, *(values[1:] if kind == EV_BLOCK_PROPOSED else values))

    monkeypatch.setattr(gpbft_node.GPBFTNode, "_record", dropping)
    seen = run_cases(monkeypatch, {"block": case_block})
    assert seen.misshapen == {"block": [(EV_BLOCK_PROPOSED, 1)]}


def test_every_registered_kind_is_recorded_by_some_case(seen):
    recorded = {kind for kinds in seen.recorded.values() for kind in kinds}
    assert sorted(EVENT_KINDS - recorded - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) & recorded) == [], "listed but recorded"


@pytest.mark.parametrize("module, name, typo, check", [
    (gpbft_node, "EV_TX_COMMITTED", "tx.comitted", "recorded"),
    (throughput, "EV_REQUEST_SUBMITTED", "request.submit", "queried"),
], ids=["typo-recorded", "typo-queried"])
def test_a_typod_kind_fails_the_check(monkeypatch, module, name, typo, check):
    monkeypatch.setattr(module, name, typo)
    seen = run_cases(monkeypatch, {"block": case_block})
    assert unknown(getattr(seen, check)) == {"block": [typo]}


def test_kinds_recorded_but_never_registered_fail_the_check(monkeypatch):
    # the baselines recorded these two before they were registered
    seen = run_cases(monkeypatch, {"baselines": case_baselines})
    vocabulary = EVENT_KINDS - {EV_DBFT_COMMITTED, EV_POS_BLOCK}
    assert unknown(seen.recorded, vocabulary) == {
        "baselines": [EV_DBFT_COMMITTED, EV_POS_BLOCK]}
