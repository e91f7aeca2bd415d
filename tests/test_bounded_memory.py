"""Memory stays flat as the horizon grows.

Each case runs at a horizon H and again at 2H with the same offered
rate, then walks every container reachable from the hosts it built and
from its :class:`~repro.obs.Observability` facade.  The walk goes
through each object's ``vars``/``__slots__`` and keys each container by
``Owner.attr`` (``Owner.attr[]`` for a container nested in one).  Every
key is held to one of three contracts:

* **window** -- each container stays inside its stated window at both
  horizons (:data:`WINDOWS`; a ``deque(maxlen=...)`` states its own);
* **product** -- the key's total grows by exactly its unit between H
  and 2H (:data:`PRODUCTS`: one ledger block per commit, ...);
* **everything else** -- its total is no larger at 2H than at H.

The roster cache (:func:`repro.pbft.log.roster`) is module state no
host reaches, so it is walked on its own and held to
:data:`~repro.pbft.log.ROSTER_BOUND`.

Those walks come after a drain, so the network's queues
(:data:`_QUEUES`) must read 0 there.  Each run is also walked under
load: right after the first send at or after 30 s before its horizon,
which has just put an envelope in flight.  Only windows judge that
walk: a backlog that grows with the horizon outgrows its window there
even when the drain empties it before the end.

A window judges only the containers a walk reaches, so every
:data:`WINDOWS` key must be reached by some case or be listed in
:data:`UNREACHED` with the reason: a container renamed, or retyped to
something the walk does not count, cannot leave its window idle.

The items of a window or a product are records that the bound already
counts, so their own containers are walked last and judged one at a
time: none may outgrow its window or, without one, be larger at 2H
than the largest at H.  A cancelled
simulator entry is garbage the heap's compaction bound covers, so the
walk skips it.
"""

from __future__ import annotations

import dataclasses
import math
import types
from array import array
from collections import Counter, deque
from functools import partial

import pytest

from repro.common.config import (
    ElectionConfig,
    EraConfig,
    GPBFTConfig,
    TopologySpec,
)
from repro.common.eventlog import (
    EV_BLOCK_COMMITTED,
    EV_ERA_SWITCH_COMPLETED,
    EV_GPBFT_AUDIT,
    EV_TX_COMMITTED,
    EVENT_KINDS,
)
from repro.core.messages import EraSwitchOperation
from repro.core.node import MAX_BLOCK_TXS
from repro.common.rng import DeterministicRNG
from repro.experiments import runner
from repro.net import simulator
from repro.net.network import SimulatedNetwork
from repro.obs import Observability
from repro.obs.obsconfig import ObsConfig
from repro.obs.timeseries import _SKETCH_BUCKETS, Timeseries
from repro.pbft import log as pbft_log
from repro.pbft.replica import PBFTReplica
from repro.workloads.arrivals import PoissonArrivals

_LEAVES = (str, bytes, int, float, complex, bool, type(None), range, type,
           types.ModuleType, types.BuiltinFunctionType)
_CONTAINERS = (list, tuple, dict, set, frozenset, deque, array)


def _per_seq(replica: PBFTReplica) -> int:
    return replica.config.watermark_window


#: Tables keyed by message kind hold one entry per kind: the wire
#: kinds, the few carried only in simulation and the chain-sync
#: category.  A table keyed by request or node would pass this at once.
_KINDS = 64


#: Owner.attr -> the window each such container stays inside, read off
#: its owner.
WINDOWS = {
    **{f"EventLog.{column}": lambda log: 2 * log._capacity
       for column in ("_at", "_kind", "_node", "_data")},
    "PBFTClient.completed": lambda client: client.completed_bound,
    "ExecutedLog.ops": lambda log: 2 * log.bound,
    "PBFTReplica._executed_requests": _per_seq,
    "PBFTReplica._committed_by_seq": _per_seq,
    "PBFTReplica._assigned": _per_seq,
    "PBFTReplica._checkpoint_votes": _per_seq,
    "MessageLog._instances": lambda log: _WATERMARK,
    "QuantileSketch._buckets": lambda sketch: _SKETCH_BUCKETS,
    "EventLog._counts": lambda log: len(EVENT_KINDS),
    "TrafficStats.messages_by_kind": lambda stats: _KINDS,
    "TrafficStats.bytes_by_kind": lambda stats: _KINDS,
    "Counter._children": lambda counter: _KINDS,
    "Block.transactions": lambda block: MAX_BLOCK_TXS,
    # cancelled entries wait for compaction, which runs once they
    # outnumber the live ones (and the floor)
    "Simulator._heap": lambda sim: 2 * sim.pending + simulator._COMPACT_MIN_CANCELLED,
    # at most one entry per busy port: each holds a distinct port's one
    # completion event
    "Simulator._lane": lambda sim: len({entry[2] for entry in sim._lane}),
    # a port's backlog: envelopes in flight, and those that have arrived
    "_Port.inbox": lambda port: _BACKLOG,
    "_Port.arrived": lambda port: _BACKLOG,
}

#: Windows no case here reaches, with the reason.  A window nothing
#: reaches judges nothing, so each one is reached or listed here.
UNREACHED: dict[str, str] = {}

#: The network's queues: every walk after a drain must read them at 0,
#: so their windows judge only the walk under load.
_QUEUES = ("_Port.inbox", "_Port.arrived", "Simulator._lane")

#: How long before H the walk under load is armed.
_LOADED_LEAD_S = 30.0

#: The runs here offer far less than a node serves, so a backlog is one
#: burst: a fan-out of each kind from each of a few dozen peers at most.
_BACKLOG = 1024

#: Every replica here runs the default PBFT window.
_WATERMARK = GPBFTConfig().pbft.watermark_window


def _blocks(run) -> int:
    """Blocks committed on every node: one per tx, or one per batch."""
    kind = EV_BLOCK_COMMITTED if run.mode == "block" else EV_TX_COMMITTED
    return run.count(kind)


def _traced_spans(run) -> int:
    """Closed spans: those of sampled requests, plus one per audit and
    one per era switch."""
    spans = run.obs.tracer._closed
    rids = [span.args["request_id"] for span in spans
            if "request_id" in span.args]
    assert all(run.obs._traced(rid) for rid in rids), (
        "a span of an unsampled request was kept")
    return (len(rids) + run.count(EV_GPBFT_AUDIT)
            + run.count(EV_ERA_SWITCH_COMPLETED))


#: Owner.attr -> the unit its total grows by, exactly.
PRODUCTS = {
    "Ledger._blocks": _blocks,
    "IncentiveEngine.history": _blocks,
    "LedgerState._applied_tx": lambda run: run.count(EV_TX_COMMITTED),
    "EraHistory._records": lambda run: run.count(EV_ERA_SWITCH_COMPLETED),
    "Tracer._closed": _traced_spans,
}


def _fields(obj):
    """``(name, value)`` of every instance attribute, dict and slots."""
    names = list(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.extend((slots,) if isinstance(slots, str) else slots)
    for name in names:
        if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
            yield name, getattr(obj, name)


def _children(obj, key: str):
    """``(child, key, owner)`` of every reference *obj* holds."""
    if isinstance(obj, types.MethodType):
        yield obj.__self__, key, None
    elif isinstance(obj, types.FunctionType):
        for name, cell in zip(obj.__code__.co_freevars, obj.__closure__ or ()):
            try:
                yield cell.cell_contents, f"{obj.__qualname__}.{name}", None
            except ValueError:  # an empty cell
                pass
    elif isinstance(obj, partial):
        yield obj.func, key, None
        yield obj.args, f"{key}.args", None
    if isinstance(obj, dict):
        for pair in obj.items():
            yield from ((item, f"{key}[]", None) for item in pair)
    elif isinstance(obj, _CONTAINERS):
        yield from ((item, f"{key}[]", None) for item in obj)
    if type(obj).__module__.startswith("repro."):
        owner = type(obj).__name__
        yield from ((value, f"{owner}.{name}", obj)
                    for name, value in _fields(obj))


@dataclasses.dataclass
class Walk:
    """What one walk found: per key, the summed length of the strictly
    judged containers and the largest length of the records."""

    total: Counter = dataclasses.field(default_factory=Counter)
    records: Counter = dataclasses.field(default_factory=Counter)
    rings: set = dataclasses.field(default_factory=set)
    over: list = dataclasses.field(default_factory=list)


def walk(roots) -> Walk:
    """Every container reachable from *roots*, keyed by ``Owner.attr``.

    A window's or product's items are deferred and walked after
    everything else, so an object reachable both ways is judged
    strictly; what only they reach is recorded in ``records`` by its
    largest container.
    """
    found = Walk()
    seen: set[int] = set()
    stack = [(root, "root", None) for root in roots]
    deferred: list = []
    for strict in (True, False):
        while stack:
            obj, key, owner = stack.pop()
            if isinstance(obj, _LEAVES) or (
                    isinstance(obj, simulator.ScheduledEvent) and obj.cancelled):
                continue
            if isinstance(obj, deque) and obj.maxlen is not None:
                found.rings.add(key)
            bounded = key in WINDOWS or key in PRODUCTS or key in found.rings
            if isinstance(obj, _CONTAINERS):
                size = len(obj)
                if strict:
                    found.total[key] += size
                else:
                    found.records[key] = max(found.records[key], size)
                window = WINDOWS.get(key)
                if window is not None and size > window(owner):
                    found.over.append(f"{key} holds {size} > {window(owner)}")
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            for child in _children(obj, key):
                item = child[2] is None
                (deferred if strict and bounded and item else stack).append(child)
        stack = deferred
    return found


@dataclasses.dataclass
class Run:
    """One finished run: its hosts, its facade, its mode and the walk
    taken under load."""

    hosts: list
    obs: Observability
    loaded: Walk
    mode: str = "per_tx"

    def count(self, kind: str) -> int:
        """Events of *kind* across every host log (exact at any capacity)."""
        return sum(host.events.count(kind) for host in self.hosts)


def _obs() -> Observability:
    return Observability(ObsConfig(window_s=60.0, timeseries=True,
                                   sample_rate=0.5, flight_recorder=True))


@pytest.fixture
def built(monkeypatch):
    """Every host a ``TopologySpec`` builds while the test runs."""
    hosts: list = []
    build = TopologySpec.build

    def recording_build(spec, *args, **kwargs):
        hosts.append(build(spec, *args, **kwargs))
        return hosts[-1]

    monkeypatch.setattr(TopologySpec, "build", recording_build)
    return hosts


@pytest.fixture
def loaded(monkeypatch):
    """The walks taken under load; ``_arm`` arms the next one."""
    armed = types.SimpleNamespace(at=math.inf, roots=None, walks=[])
    send = SimulatedNetwork.send

    def walking_send(network, src, dst, payload):
        send(network, src, dst, payload)
        if network.sim.now >= armed.at:
            armed.at = math.inf
            armed.walks.append(walk(armed.roots()))

    monkeypatch.setattr(SimulatedNetwork, "send", walking_send)
    return armed


def _arm(loaded, horizon: float, roots) -> None:
    """Walk ``roots()`` after the first send at or after
    ``horizon - _LOADED_LEAD_S``: the load still runs, and the send has
    just put an envelope in flight."""
    loaded.at, loaded.roots = horizon - _LOADED_LEAD_S, roots


def _loaded_walk(loaded) -> Walk:
    """The walk the run just finished took under load."""
    assert loaded.at == math.inf and loaded.walks, "no send under load"
    return loaded.walks.pop()


def _agg_day(built, loaded, horizon: float) -> Run:
    """The day's ``agg`` path at 0.8 req/s over two zones."""
    obs = _obs()
    _arm(loaded, horizon, lambda: [*built, obs])
    out = runner._gpbft_agg_point(int(0.8 * horizon), 0, zones=2,
                                  duration_s=horizon, event_capacity=256,
                                  obs=obs)
    assert out["completed"] == out["offered"] > 0, out
    return Run(list(built), obs, _loaded_walk(loaded))


#: Seconds the slowed endorser of :func:`_deployment` takes per message
#: while the load runs: it serves about half as fast as its messages
#: arrive.
_SLOW_INTERVAL_S = 0.7


def _deployment(built, loaded, horizon: float, mode: str,
                slow: int | None = None, recover: bool = True) -> Run:
    """Ten nodes, four genesis endorsers, audits every 120 s and an
    election table whose prune runs inside H; each node submits every
    60 s on average until H, then the run drains for 300 s.  Node
    *slow*, if given, serves at ``_SLOW_INTERVAL_S`` until H, or to the
    end unless it should *recover*."""
    config = GPBFTConfig().replace(
        election=ElectionConfig(stationary_hours=0.02, report_interval_s=30.0),
        era=EraConfig(period_s=120.0, switch_duration_s=5.0))
    spec = dataclasses.replace(
        TopologySpec.single(10, 4, config=config, mode=mode, seed=0),
        event_capacity=256)
    obs = _obs()
    host = spec.build(obs=obs)
    if slow is not None:
        network = host.network
        normal = network.processing_interval(slow)
        network.set_processing_interval(slow, _SLOW_INTERVAL_S)
        if recover:
            host.sim.schedule_at(horizon, network.set_processing_interval,
                                 slow, normal)
    _arm(loaded, horizon, lambda: [host, obs])
    rng = DeterministicRNG(0, "load")
    for node in sorted(host.nodes):
        load = PoissonArrivals(host.sim, partial(host.submit_from, node),
                               rng.fork(str(node)), mean_period_s=60.0)
        load.start()
        host.sim.schedule_at(horizon, load.stop)
    host.run(until=horizon + 300.0)
    obs.finish()
    return Run(list(built), obs, _loaded_walk(loaded), mode)


def _roster_cache_faults() -> list[str]:
    """The roster cache, walked: more rosters than its bound is a fault."""
    size = walk([pbft_log._rosters]).total["root"]
    if size > pbft_log.ROSTER_BOUND:
        return [f"roster cache holds {size} > {pbft_log.ROSTER_BOUND}"]
    return []


def _faults(at_h: Run, at_2h: Run) -> list[str]:
    """Every contract the two runs break, one line each."""
    h, h2 = walk([*at_h.hosts, at_h.obs]), walk([*at_2h.hosts, at_2h.obs])
    faults = h.over + h2.over + _roster_cache_faults()
    faults += [f"{key} holds {drained.total[key] + drained.records[key]} "
               "after the drain" for drained in (h, h2) for key in _QUEUES
               if drained.total[key] or drained.records[key]]
    faults += [f"under load: {line}"
               for line in at_h.loaded.over + at_2h.loaded.over]
    for key, unit in PRODUCTS.items():
        grew, expected = h2.total[key] - h.total[key], unit(at_2h) - unit(at_h)
        if grew != expected:
            faults.append(f"product {key} grew {grew}, its unit {expected}")
    for key in sorted(set(h2.total) - set(WINDOWS) - set(PRODUCTS) - h2.rings):
        if h2.total[key] > h.total[key]:
            faults.append(f"{key} grew {h.total[key]} -> {h2.total[key]}")
    for key in sorted(set(h2.records) - set(WINDOWS)):
        if h2.records[key] > h.records[key]:
            faults.append(f"record {key} grew {h.records[key]} -> {h2.records[key]}")
    return faults


def _judge(at_h: Run, at_2h: Run) -> None:
    for run in (at_h, at_2h):
        backlog = {key: run.loaded.total[key] for key in _QUEUES}
        assert sum(backlog.values()), f"the walk under load read {backlog}"
    faults = _faults(at_h, at_2h)
    assert not faults, "\n".join(faults)


def test_the_days_agg_path_holds_flat_memory(built, loaded, monkeypatch):
    # windows small enough to fill inside H
    monkeypatch.setattr(runner, "AGG_RETENTION", 200)
    at_h = _agg_day(built, loaded, 2_500.0)
    built.clear()
    at_2h = _agg_day(built, loaded, 5_000.0)
    _judge(at_h, at_2h)


@pytest.mark.parametrize("mode", ["per_tx", "block"])
def test_a_deployment_holds_flat_memory(built, loaded, mode):
    at_h = _deployment(built, loaded, 600.0, mode)
    built.clear()
    at_2h = _deployment(built, loaded, 1_200.0, mode)
    _judge(at_h, at_2h)


def _reached(run: Run) -> set[str]:
    """Every key a walk of *run* found a container under, drained or
    under load."""
    walks = (walk([*run.hosts, run.obs]), run.loaded)
    return {key for found in walks for key in (*found.total, *found.records)}


def test_every_window_is_reached_by_some_case(built, loaded, monkeypatch):
    # a container renamed or retyped out of the walk's view would leave
    # its window judging nothing, and every run would still pass
    monkeypatch.setattr(runner, "AGG_RETENTION", 200)
    reached = _reached(_agg_day(built, loaded, 2_500.0))
    for mode in ("per_tx", "block"):
        built.clear()
        reached |= _reached(_deployment(built, loaded, 600.0, mode))
    assert sorted(set(WINDOWS) - reached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) & reached) == [], "listed but reached"


def test_a_backlog_that_grows_with_the_horizon_fails_under_load(built,
                                                                 loaded):
    # an endorser slower than its arrivals until H: its arrived FIFO
    # grows with the horizon (about 800 envelopes at H, 1 400 at 2H),
    # and the drain empties it before the end.  The slow endorser also
    # stalls its committee, so the walks after the drain find other
    # faults; none of them is the network's
    at_h = _deployment(built, loaded, 600.0, "per_tx", slow=2)
    built.clear()
    at_2h = _deployment(built, loaded, 1_200.0, "per_tx", slow=2)
    faults = _faults(at_h, at_2h)
    assert any(fault.startswith("under load: _Port.arrived holds")
               for fault in faults), faults
    assert not any(fault.startswith("_Port.") for fault in faults), faults


def test_a_backlog_left_after_the_drain_fails(built, loaded):
    # the slowed endorser never recovers, so a few hundred envelopes
    # outlive the drain on its port: fewer than the port's window, so
    # only the rule that a drained walk reads every queue at 0 finds
    # them (one run, judged against itself, grows nothing)
    run = _deployment(built, loaded, 600.0, "per_tx", slow=2, recover=False)
    network = [fault for fault in _faults(run, run) if "_Port." in fault]
    assert network and all(fault.startswith("_Port.arrived holds")
                           and fault.endswith("after the drain")
                           for fault in network), network


@pytest.mark.parametrize("cls, method", [
    (PBFTReplica, "receive"),  # once per message
    (Timeseries, "_flush_window"),  # once per window of frames
])
def test_a_list_grown_per_call_fails_the_check(built, loaded, monkeypatch, cls,
                                               method):
    original = getattr(cls, method)

    def planted(self, *args, **kwargs):
        self.__dict__.setdefault("planted", []).append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, planted)
    at_h = _deployment(built, loaded, 600.0, "per_tx")
    built.clear()
    at_2h = _deployment(built, loaded, 1_200.0, "per_tx")
    grew = f"{cls.__name__}.planted grew"
    assert any(fault.startswith(grew) for fault in _faults(at_h, at_2h))


def test_era_switches_keep_the_roster_cache_within_its_bound(monkeypatch):
    # each switch swaps the committee's fourth seat, so the run asks for
    # more committees than the cache holds: it must evict, and every
    # relaunched replica must still hold its own committee's roster
    built_rosters = []

    class Recording(dict):
        def __setitem__(self, committee, found):
            built_rosters.append(committee)
            super().__setitem__(committee, found)

    monkeypatch.setattr(pbft_log, "_rosters", Recording())
    monkeypatch.setattr(pbft_log, "ROSTER_BOUND", 3)
    dep = TopologySpec.single(9, 4, seed=3, start_reports=False).build()
    for k in range(10):
        committee = (0, 1, 2, 4 + k % 5)
        lead, old = dep.nodes[dep.committee[0]], set(dep.committee)
        lead.client.submit(EraSwitchOperation(
            new_era=lead.era + 1, committee=committee,
            added=tuple(sorted(set(committee) - old)),
            removed=tuple(sorted(old - set(committee)))))
        dep.run(until=dep.sim.now + 60.0)
        assert dep.committee == committee
        assert not _roster_cache_faults()
        for member in committee:
            replica = dep.nodes[member].replica
            assert replica.epoch == k + 1 and replica._roster == pbft_log.roster(committee)
    assert len(set(built_rosters)) == 6 and len(built_rosters) > 6
