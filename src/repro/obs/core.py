"""The :class:`Observability` facade protocol components talk to.

Components accept ``obs: Observability | None = None`` and guard every
call with ``if self._obs is not None`` -- the whole layer disappears
behind one predictable branch when disabled, which is what keeps
goldens and the benchmark's ``sim_digest`` bit-identical.

The facade owns one :class:`~repro.obs.spans.Tracer` and one
:class:`~repro.obs.instruments.Registry` and exposes protocol-shaped
methods (``pbft_preprepare``, ``era_switch_completed``, ...) so call
sites stay one line and the span-key scheme lives in exactly one
place:

==================================  =======================================
key                                 span
==================================  =======================================
``req/{rid}``                       client-side request lifecycle
``prep/{node}/{epoch}/{view}/{s}``  one replica's prepare phase for seq *s*
``comm/{node}/{epoch}/{view}/{s}``  one replica's commit phase for seq *s*
``vc/{node}/{epoch}/{view}``        one replica's view change into *view*
``era/{owner}/{era}``               switch period into era *era*
==================================  =======================================

An :class:`~repro.obs.obsconfig.ObsConfig` opts a capture into the v2
city-scale pieces, all off by default:

* windowed time-series frames (:attr:`Observability.timeseries`),
  flushed as windows close via the simulator tick hook;
* deterministic head sampling of request-scoped spans (``req``,
  ``prep``, ``comm``) keyed by a stable hash of the request id --
  view-change, era, and checkpoint spans are always traced, and the
  time-series sees every request regardless of the sample rate;
* the flight recorder (:attr:`Observability.flight`), attached to host
  event logs via :meth:`Observability.attach_host`.

Zone-sharded runs call :meth:`Observability.for_zone` per zone: the
clones share one tracer, registry, time-series, and recorder, but
label frames and rings with their zone.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.net.simulator import Simulator
from repro.net.stats import TrafficStats
from repro.obs.flightrec import FlightRecorder
from repro.obs.instruments import Registry
from repro.obs.obsconfig import ObsConfig
from repro.obs.sampling import HeadSampler
from repro.obs.spans import Tracer
from repro.obs.timeseries import Heartbeat, Timeseries

#: Bucket edges (seconds) for phase / quorum wait histograms.
PHASE_EDGES = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)
#: Bucket edges (seconds) for end-to-end request latency.
LATENCY_EDGES = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)
#: Bucket edges (seconds) for era-switch downtime (paper claims ~0.25 s).
DOWNTIME_EDGES = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5)
#: Bucket edges (transactions) for mempool depth.
DEPTH_EDGES = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0)

#: Frame zone label for captures that never call :meth:`for_zone`.
DEFAULT_ZONE = "all"


class Observability:
    """Tracer + instrument registry (+ v2 pipeline) behind one object.

    Construct one per capture, :meth:`bind` it to the simulator (and
    optionally the network), pass it to the deployment/cluster, and
    call :meth:`finish` before exporting.

    Attributes:
        config: the :class:`ObsConfig` in effect (defaults all-off).
        timeseries: the shared :class:`Timeseries`, or ``None``.
        flight: the shared :class:`FlightRecorder`, or ``None``.
        sampler: the :class:`HeadSampler`, or ``None`` when tracing
            every request (the v1 behavior).
    """

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.tracer = Tracer()
        self.registry = Registry()
        self._bound_sim: Simulator | None = None
        self._zone: str | None = None
        # the stats of every bound network; zone clones share the list
        self._watched: list[TrafficStats] = []
        cfg = self.config
        self.sampler: HeadSampler | None = (
            HeadSampler(cfg.sample_rate) if cfg.sampling_active else None)
        self.timeseries: Timeseries | None = (
            Timeseries(cfg.window_s, path=cfg.frames_path,
                       frames_tail=cfg.frames_tail)
            if cfg.timeseries_active else None)
        ts = self.timeseries
        self.flight: FlightRecorder | None = (
            FlightRecorder(
                cfg,
                instruments=self.snapshot,
                frames=(lambda: list(ts.frames_tail)) if ts is not None else None,
            )
            if cfg.flight_active else None)
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
            self._watched.append(network.stats)  # gpb: allow GPB015 -- one entry per bound network, never per message
            if self.timeseries is not None:
                self.timeseries.watch(self.zone, network.stats)
        if self.timeseries is not None or self._hb is not None:
            sim.set_tick_hook(self._on_tick)

    def _level_net_counters(self) -> None:
        """Bring the ``net.*`` counters level with the watched stats."""
        watched = self._watched
        if not watched:
            return
        for name, per_network in (
                ("net.messages_sent", [s.messages_by_kind for s in watched]),
                ("net.bytes_sent", [s.bytes_by_kind for s in watched])):
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

    def attach_host(self, host: Any, group: str | None = None) -> None:
        """Wire the flight recorder into one cluster/deployment.

        No-op unless the recorder is active.  Mirrors the host's event
        log into the ring for *group* (default: this facade's zone
        label, or a fresh ``g{n}`` group), and points the host's
        monitor harness ``on_violation`` hook at the recorder so an
        :class:`~repro.verify.invariants.InvariantViolation` dumps a
        post-mortem bundle before propagating.
        """
        flight = self.flight
        if flight is None:
            return
        if group is None:
            group = (self._zone if self._zone is not None
                     else f"g{len(flight.groups)}")
        events = getattr(host, "events", None)
        if events is not None:
            flight.attach(events, group)
        monitors = getattr(host, "monitors", None)
        if monitors is not None and hasattr(monitors, "on_violation"):
            monitors.on_violation = flight.on_violation

    def finish(self) -> None:
        """Seal the capture: close spans, flush windows, export gauges."""
        if self._bound_sim is not None:
            self._bound_sim.export_instruments(self.registry)
        self._level_net_counters()
        if self.timeseries is not None:
            self.timeseries.finish(self._now())
        self.tracer.finish()

    # -- request lifecycle ------------------------------------------------

    def request_submitted(self, node: int, rid: str, committee_size: int) -> None:
        """Client submitted request *rid* to a committee of that size."""
        if self.timeseries is not None:
            self.timeseries.submitted(self.zone, rid, self._now())
        if self.sampler is not None and not self.sampler.sampled(rid):
            return
        self.tracer.open(
            f"req/{rid}", "request", cat="request", node=node,
            request_id=rid, committee_size=committee_size,
        )

    def request_completed(self, node: int, rid: str) -> None:
        """Client saw a reply quorum for *rid*; records e2e latency."""
        if self.timeseries is not None:
            self.timeseries.completed(self.zone, rid, self._now())
        span = self.tracer.close(f"req/{rid}")
        if span is not None:
            self.registry.histogram(
                "request.latency_s", LATENCY_EDGES).observe(span.duration)

    # -- pbft phases ------------------------------------------------------

    def pbft_preprepare(self, node: int, epoch: int, view: int, seq: int, rid: str) -> None:
        """Replica accepted (or issued) the pre-prepare for *seq*."""
        if self.sampler is not None and not self.sampler.sampled(rid):
            return
        self.tracer.open(
            f"prep/{node}/{epoch}/{view}/{seq}", "prepare", cat="phase",
            node=node, parent_key=f"req/{rid}",
            request_id=rid, epoch=epoch, view=view, seq=seq,
        )

    def pbft_prepared(self, node: int, epoch: int, view: int, seq: int, rid: str) -> None:
        """Replica collected its prepare quorum and broadcast commit."""
        if self.sampler is not None and not self.sampler.sampled(rid):
            return
        span = self.tracer.close(f"prep/{node}/{epoch}/{view}/{seq}")
        if span is not None:
            self.registry.histogram(
                "pbft.quorum_wait_s", PHASE_EDGES).child("prepare").observe(span.duration)
        self.tracer.open(
            f"comm/{node}/{epoch}/{view}/{seq}", "commit", cat="phase",
            node=node, parent_key=f"req/{rid}",
            request_id=rid, epoch=epoch, view=view, seq=seq,
        )

    def pbft_executed(self, node: int, epoch: int, view: int, seq: int, rid: str) -> None:
        """Replica collected its commit quorum and executed *seq*."""
        if self.sampler is not None and not self.sampler.sampled(rid):
            return
        span = self.tracer.close(f"comm/{node}/{epoch}/{view}/{seq}")
        if span is not None:
            self.registry.histogram(
                "pbft.quorum_wait_s", PHASE_EDGES).child("commit").observe(span.duration)

    # -- view changes -----------------------------------------------------

    def view_change_started(self, node: int, epoch: int, new_view: int) -> None:
        """Replica broadcast a view-change vote for *new_view*."""
        self.registry.counter("pbft.view_changes").inc()
        if self.timeseries is not None:
            self.timeseries.view_change(self.zone, self._now())
        self.tracer.open(
            f"vc/{node}/{epoch}/{new_view}", "view-change", cat="view",
            node=node, epoch=epoch, new_view=new_view,
        )

    def view_entered(self, node: int, epoch: int, view: int) -> None:
        """Replica entered *view* (closes a pending view-change span)."""
        self.tracer.close(f"vc/{node}/{epoch}/{view}")

    # -- eras and elections -----------------------------------------------

    def era_switch_started(self, owner: int, era: int, at: float) -> None:
        """A switch into era *era* began on *owner*'s timeline."""
        self.tracer.open(
            f"era/{owner}/{era}", "era-switch", cat="era", node=owner,
            at=at, era=era,
        )

    def era_switch_completed(
        self, owner: int, era: int, at: float, committee_size: int,
    ) -> None:
        """The switch into era *era* finished; records its downtime."""
        if self.timeseries is not None:
            self.timeseries.era_switch(self.zone, at)
        span = self.tracer.close(
            f"era/{owner}/{era}", at=at, committee_size=committee_size)
        if span is not None:
            self.registry.histogram(
                "era.switch_downtime_s", DOWNTIME_EDGES).observe(span.duration)

    def election_round(self, node: int, era: int, candidates: int, elected: int) -> None:
        """An endorser-election audit ran on *node* for era *era*."""
        self.registry.counter("gpbft.election_rounds").inc()
        self.tracer.instant(
            "election", cat="election", node=node,
            era=era, candidates=candidates, elected=elected,
        )

    def geo_report(self, node: int) -> None:
        """A location report was accepted into the election table."""
        self.registry.counter("gpbft.geo_reports").inc()

    # -- mempool / state transfer ----------------------------------------

    def mempool_depth(self, node: int, depth: int) -> None:
        """Mempool depth on *node* after a transaction arrived."""
        self.registry.gauge("mempool.depth").set(depth)
        self.registry.histogram("mempool.depth_dist", DEPTH_EDGES).observe(depth)
        if self.timeseries is not None:
            self.timeseries.depth(self.zone, depth, self._now())

    def state_transfer(self, node: int) -> None:
        """Replica *node* requested a state transfer."""
        self.registry.counter("pbft.state_transfers").inc()

    # -- hierarchical (zone-sharded) deployments --------------------------

    def zone_checkpoint_submitted(self, zone: str, seq: int, txs: int) -> None:
        """Zone gateway submitted checkpoint *seq* to the top layer."""
        self.tracer.open(
            f"ckpt/{zone}/{seq}", "zone-checkpoint", cat="hier",
            zone=zone, seq=seq, txs=txs,
        )
        self.registry.counter("hier.checkpoints_submitted").child(zone).inc()

    def zone_checkpoint_committed(self, zone: str, seq: int, txs: int) -> None:
        """Top layer committed zone checkpoint *seq*; records latency."""
        span = self.tracer.close(f"ckpt/{zone}/{seq}")
        if span is not None:
            self.registry.histogram(
                "hier.checkpoint_latency_s", LATENCY_EDGES).observe(span.duration)
        self.registry.counter("hier.checkpoints_committed").child(zone).inc()
        self.registry.counter("hier.xzone_txs_ordered").inc(txs)

    def xzone_delivered(self, zone: str) -> None:
        """An ordered inter-zone tx reached destination *zone*'s gateway."""
        self.registry.counter("hier.xzone_txs_delivered").child(zone).inc()

    def xzone_committed(self, zone: str) -> None:
        """Destination *zone* committed a delivered inter-zone tx."""
        self.registry.counter("hier.xzone_txs_committed").child(zone).inc()
