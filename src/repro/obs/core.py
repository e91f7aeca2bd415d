"""The :class:`Observability` facade: spans and instruments for a run.

Protocol code reports each fact once, to its host's
:class:`~repro.common.eventlog.EventLog`; a host built with a facade
subscribes it there (:meth:`Observability.attach_host`), and the facade
turns records into spans and instruments.  Without a facade nothing
subscribes, which is what keeps goldens and the benchmark's
``sim_digest`` bit-identical.  The five facts no log records arrive
through guarded hook calls (see :class:`Observability`).  The span-key
scheme lives in exactly one place:

==================================  =======================================
key                                 span
==================================  =======================================
``req/{rid}``                       client-side request lifecycle
``prep/{node}/{epoch}/{view}/{s}``  one replica's prepare phase for seq *s*
``comm/{node}/{epoch}/{view}/{s}``  one replica's commit phase for seq *s*
``vc/{node}/{epoch}/{view}``        one replica's view change into *view*
``era/{node}/{era}``                one node's switch period into *era*
``ckpt/{zone}/{seq}``               zone checkpoint *seq*, submit to commit
==================================  =======================================

An :class:`~repro.obs.obsconfig.ObsConfig` opts a capture into the
city-scale pieces, all off by default:

* windowed time-series frames (:attr:`Observability.timeseries`),
  flushed as windows close via the simulator tick hook;
* deterministic head sampling of request-scoped spans (``req``,
  ``prep``, ``comm``) keyed by a stable hash of the request id; the
  sketches read off those spans (``request.latency_s``,
  ``pbft.prepare_wait_s``, ``pbft.commit_wait_s``) follow the sample,
  while view-change, era and checkpoint spans, the counters and the
  time-series see every request whatever the rate;
* the flight recorder (:attr:`Observability.flight`), which dumps each
  attached host log's recent events as a per-group ring
  (:meth:`Observability.attach_host`) and subscribes its storm counter
  to the log's view changes.

Zone-sharded runs call :meth:`Observability.for_zone` per zone: the
clones share one tracer, registry, time-series, and recorder, but
label frames and rings with their zone.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Any, Sequence

from repro.common import eventlog as ev
from repro.common.eventlog import Event, EventLog
from repro.net.simulator import Simulator
from repro.obs.flightrec import FlightRecorder
from repro.obs.instruments import Registry
from repro.obs.obsconfig import ObsConfig
from repro.obs.sampling import sample_key
from repro.obs.spans import Tracer
from repro.obs.timeseries import Heartbeat, Timeseries, Watch

#: Frame zone label for captures that never call :meth:`for_zone`.
DEFAULT_ZONE = "all"


class Observability:
    """Tracer, instrument registry and the optional time-series, head
    sampling and flight recorder behind one object.

    Construct one per capture, pass it to the host
    (``TopologySpec.build(obs=...)`` binds and attaches it), and call
    :meth:`finish` before exporting.

    A fact an event log records reaches the facade only through that
    log: :meth:`listen` subscribes each entry of the kind -> handler
    table ``_HANDLERS`` to its kind.  A fact gets a hook
    method only when no log records it; five do: ``pbft_preprepare``
    and ``pbft_prepared`` (an event per phase would put
    ``EventLog.record`` on the obs-off hot path), ``state_transfer``
    (it counts attempts; the log records successes only),
    ``geo_report`` and ``mempool_depth``.

    Attributes:
        config: the :class:`ObsConfig` in effect (defaults all-off).
        timeseries: the shared :class:`Timeseries`, or ``None``.
        flight: the shared :class:`FlightRecorder`, or ``None``.
    """

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.tracer = Tracer()
        self.registry = Registry()
        self._bound_sim: Simulator | None = None
        self._zone: str | None = None
        # every bound network; zone clones share the list, and both the
        # net.* counters and the window frames read it
        self._watched: list[Watch] = []
        cfg = self.config
        self.timeseries: Timeseries | None = (
            Timeseries(cfg.window_s, path=cfg.frames_path, watched=self._watched)
            if cfg.timeseries or cfg.frames_path is not None else None)
        ts = self.timeseries
        self.flight: FlightRecorder | None = (
            FlightRecorder(
                cfg.dump_dir,
                instruments=self.snapshot,
                frames=(lambda: list(ts.frames_tail)) if ts is not None else None,
            )
            if cfg.flight_recorder or cfg.dump_dir is not None else None)
        self._hb: Heartbeat | None = (
            Heartbeat(cfg.heartbeat_s) if cfg.heartbeat_s is not None else None)

    # -- wiring -----------------------------------------------------------

    def _now(self) -> float:
        """Current simulated time (0.0 before :meth:`bind`)."""
        sim = self._bound_sim
        return sim.now if sim is not None else 0.0

    @property
    def zone(self) -> str:
        """Label this facade stamps on frames and recorder rings."""
        return self._zone if self._zone is not None else DEFAULT_ZONE

    def for_zone(self, zone: str) -> "Observability":
        """A zone-labeled view sharing every underlying component.

        The clone's protocol methods feed the same tracer, registry,
        time-series, and flight recorder, but frames and rings carry
        *zone* instead of the default label.  Bind the clone to the
        zone's own network to report its traffic under that label.
        """
        clone = copy.copy(self)
        clone._zone = zone
        return clone

    def bind(self, sim: Simulator, network: Any | None = None) -> None:
        """Drive span timestamps from *sim* and watch *network*'s traffic.

        Nothing is installed on the network: its
        :class:`~repro.net.stats.TrafficStats` already count every
        message and byte per wire kind, so binding only remembers them.
        The ``net.messages_sent`` / ``net.bytes_sent`` counters (one
        labeled child per kind) are brought level with the stats when
        the instruments are read (:meth:`snapshot`, a flight-recorder
        dump, :meth:`finish`), and each time-series frame takes the
        difference between two window closes under this facade's zone.

        With the time-series or heartbeat active, binding also installs
        the simulator tick hook that closes windows as simulated time
        advances; zone clones binding the same simulator overwrite it
        with an equivalent hook (the pipeline is shared), so the last
        bind wins harmlessly.
        """
        self._bound_sim = sim
        self.tracer.bind_clock(lambda: sim.now)
        if network is not None:
            self.registry.counter("net.messages_sent")
            self.registry.counter("net.bytes_sent")
            self._watched.append(Watch(self.zone, network.stats))
        if self.timeseries is not None or self._hb is not None:
            sim.set_tick_hook(self._on_tick)

    def _level_net_counters(self) -> None:
        """Bring the ``net.*`` counters level with the watched stats."""
        watched = self._watched
        if not watched:
            return
        for name, per_network in (
                ("net.messages_sent", [w.stats.messages_by_kind for w in watched]),
                ("net.bytes_sent", [w.stats.bytes_by_kind for w in watched])):
            totals: dict[str, int] = {}
            for by_kind in per_network:
                for kind, value in by_kind.items():
                    totals[kind] = totals.get(kind, 0) + value
            counter = self.registry.counter(name)
            for kind, value in totals.items():
                child = counter.child(kind)
                child.inc(value - child.value)

    def snapshot(self) -> dict:
        """Deterministic instrument snapshot, ``net.*`` counters level."""
        self._level_net_counters()
        return self.registry.snapshot()

    def _on_tick(self, time: float) -> None:
        """Simulator tick hook: flush closed windows, maybe heartbeat."""
        ts = self.timeseries
        sim = self._bound_sim
        if ts is not None:
            flushed = ts.advance(time)
            if sim is not None:
                ts.pending(sim.pending, time)
                if flushed and self._hb is not None:
                    self._hb.maybe_beat(time, sim.events_processed)
        elif self._hb is not None and sim is not None:
            self._hb.maybe_beat(time, sim.events_processed)

    def attach_host(self, host: Any) -> None:
        """Listen to one cluster/deployment's event log.

        With the flight recorder active, the log is also attached as the
        ring of this facade's zone label (or a fresh ``g{n}`` group),
        its view changes feed the recorder's storm trigger ahead of the
        facade's own handler, and the host's monitor harness
        ``on_violation`` hook points at the recorder so an
        :class:`~repro.verify.invariants.InvariantViolation` dumps a
        post-mortem bundle before propagating.
        """
        flight = self.flight
        if flight is not None:
            group = self._zone if self._zone is not None else f"g{len(flight.groups)}"
            flight.attach(host.events, group)
            monitors = getattr(host, "monitors", None)
            if monitors is not None and hasattr(monitors, "on_violation"):
                monitors.on_violation = flight.on_violation
        self.listen(host.events)

    def finish(self) -> None:
        """Seal the capture: close spans, flush windows, export gauges."""
        if self._bound_sim is not None:
            self._bound_sim.export_instruments(self.registry)
        self._level_net_counters()
        if self.timeseries is not None:
            self.timeseries.finish(self._now())
        self.tracer.finish()

    # -- facts read off event logs ----------------------------------------

    def listen(self, events: EventLog, zone_names: Sequence[str] = ()) -> None:
        """Turn every future record in *events* of a kind ``_HANDLERS``
        reads into spans and instruments.

        *zone_names* labels the zone index ``hier.*`` / ``xzone.*``
        events carry (a hierarchy's own log).
        """
        for kind, handler in self._HANDLERS.items():
            events.subscribe(kind, partial(handler, self, zone_names))

    def _traced(self, rid: str) -> bool:
        """Whether request *rid*'s spans are kept (head sampling)."""
        rate = self.config.sample_rate
        return rate >= 1.0 or sample_key(rid) < rate

    def _request_submitted(self, _zones: Sequence[str], event: Event) -> None:
        """A client submitted a request to a committee of that size."""
        rid = event.data["request_id"]
        if self.timeseries is not None:
            self.timeseries.submitted(self.zone, rid, event.at)
        if not self._traced(rid):
            return
        self.tracer.open(f"req/{rid}", "request", cat="request", node=event.node,
                         request_id=rid, committee_size=event.data["committee_size"])

    def _request_completed(self, _zones: Sequence[str], event: Event) -> None:
        """A client saw a reply quorum; records e2e latency."""
        rid = event.data["request_id"]
        if self.timeseries is not None:
            self.timeseries.completed(self.zone, rid, event.at)
        span = self.tracer.close(f"req/{rid}")
        if span is not None:
            self.registry.sketch("request.latency_s").observe(span.duration)

    def _pbft_executed(self, _zones: Sequence[str], event: Event) -> None:
        """A replica collected its commit quorum and executed the request."""
        data = event.data
        if not self._traced(data["request_id"]):
            return
        span = self.tracer.close(f"comm/{event.node}/{data['epoch']}/{data['view']}/{data['seq']}")
        if span is not None:
            self.registry.sketch("pbft.commit_wait_s").observe(span.duration)

    def _view_change_started(self, _zones: Sequence[str], event: Event) -> None:
        """A replica broadcast a view-change vote."""
        epoch, new_view = event.data["epoch"], event.data["new_view"]
        self.registry.counter("pbft.view_changes").inc()
        if self.timeseries is not None:
            self.timeseries.view_change(self.zone, event.at)
        self.tracer.open(f"vc/{event.node}/{epoch}/{new_view}", "view-change", cat="view",
                         node=event.node, epoch=epoch, new_view=new_view)

    def _view_entered(self, _zones: Sequence[str], event: Event) -> None:
        """A replica entered a view (closes a pending view-change span)."""
        self.tracer.close(f"vc/{event.node}/{event.data['epoch']}/{event.data['view']}")

    def _era_switch_started(self, _zones: Sequence[str], event: Event) -> None:
        """A node's switch into the next era began."""
        era = event.data["new_era"]
        self.tracer.open(f"era/{event.node}/{era}", "era-switch", cat="era",
                         node=event.node, at=event.at, era=era)

    def _era_switch_completed(self, _zones: Sequence[str], event: Event) -> None:
        """A node's switch finished; records its downtime."""
        if self.timeseries is not None:
            self.timeseries.era_switch(self.zone, event.at)
        span = self.tracer.close(f"era/{event.node}/{event.data['era']}", at=event.at,
                                 committee_size=event.data["committee_size"])
        if span is not None:
            self.registry.sketch("era.switch_downtime_s").observe(span.duration)

    def _election_round(self, _zones: Sequence[str], event: Event) -> None:
        """An endorser-election audit ran on a node."""
        data = event.data
        self.registry.counter("gpbft.election_rounds").inc()
        self.tracer.instant("election", cat="election", node=event.node, era=data["era"],
                            candidates=data["candidates"], elected=data["qualified"])

    def _zone_checkpoint_submitted(self, zones: Sequence[str], event: Event) -> None:
        """A zone gateway submitted a checkpoint to the top layer."""
        zone, seq = zones[event.data["zone"]], event.data["seq"]
        self.tracer.open(f"ckpt/{zone}/{seq}", "zone-checkpoint", cat="hier",
                         zone=zone, seq=seq, txs=event.data["txs"])
        self.registry.counter("hier.checkpoints_submitted").child(zone).inc()

    def _zone_checkpoint_committed(self, zones: Sequence[str], event: Event) -> None:
        """The top layer committed a zone checkpoint; records latency."""
        zone = zones[event.data["zone"]]
        span = self.tracer.close(f"ckpt/{zone}/{event.data['seq']}")
        if span is not None:
            self.registry.sketch("hier.checkpoint_latency_s").observe(span.duration)
        self.registry.counter("hier.checkpoints_committed").child(zone).inc()
        self.registry.counter("hier.xzone_txs_ordered").inc(event.data["txs"])

    def _xzone_delivered(self, zones: Sequence[str], event: Event) -> None:
        """An ordered inter-zone tx reached its destination gateway."""
        self.registry.counter("hier.xzone_txs_delivered").child(zones[event.data["zone"]]).inc()

    def _xzone_committed(self, zones: Sequence[str], event: Event) -> None:
        """The destination zone committed a delivered inter-zone tx."""
        self.registry.counter("hier.xzone_txs_committed").child(zones[event.data["zone"]]).inc()

    # -- hooks: facts no event log records --------------------------------

    def pbft_preprepare(self, node: int, epoch: int, view: int, seq: int, rid: str) -> None:
        """Replica accepted (or issued) the pre-prepare for *seq*."""
        if not self._traced(rid):
            return
        self.tracer.open(
            f"prep/{node}/{epoch}/{view}/{seq}", "prepare", cat="phase",
            node=node, parent_key=f"req/{rid}",
            request_id=rid, epoch=epoch, view=view, seq=seq,
        )

    def pbft_prepared(self, node: int, epoch: int, view: int, seq: int, rid: str) -> None:
        """Replica collected its prepare quorum and broadcast commit."""
        if not self._traced(rid):
            return
        span = self.tracer.close(f"prep/{node}/{epoch}/{view}/{seq}")
        if span is not None:
            self.registry.sketch("pbft.prepare_wait_s").observe(span.duration)
        self.tracer.open(
            f"comm/{node}/{epoch}/{view}/{seq}", "commit", cat="phase",
            node=node, parent_key=f"req/{rid}",
            request_id=rid, epoch=epoch, view=view, seq=seq,
        )

    def state_transfer(self) -> None:
        """A replica requested a state transfer (success or not)."""
        self.registry.counter("pbft.state_transfers").inc()

    def geo_report(self) -> None:
        """A location report was accepted into the election table."""
        self.registry.counter("gpbft.geo_reports").inc()

    def mempool_depth(self, depth: int) -> None:
        """Mempool depth on a node after a transaction arrived."""
        self.registry.gauge("mempool.depth").set(depth)
        self.registry.sketch("mempool.depth_dist").observe(depth)
        if self.timeseries is not None:
            self.timeseries.depth(self.zone, depth, self._now())


    #: event kind -> handler ``(self, zone_names, event)``
    _HANDLERS = {
        ev.EV_REQUEST_SUBMITTED: _request_submitted,
        ev.EV_REQUEST_COMPLETED: _request_completed,
        ev.EV_PBFT_EXECUTED: _pbft_executed,
        ev.EV_PBFT_VIEW_CHANGE: _view_change_started,
        ev.EV_PBFT_ENTERED_VIEW: _view_entered,
        ev.EV_ERA_SWITCH_STARTED: _era_switch_started,
        ev.EV_ERA_SWITCH_COMPLETED: _era_switch_completed,
        ev.EV_GPBFT_AUDIT: _election_round,
        ev.EV_HIER_CHECKPOINT_SUBMITTED: _zone_checkpoint_submitted,
        ev.EV_HIER_CHECKPOINT_COMMITTED: _zone_checkpoint_committed,
        ev.EV_XZONE_DELIVERED: _xzone_delivered,
        ev.EV_XZONE_COMMITTED: _xzone_committed,
    }
