"""Runtime invariant monitors for G-PBFT / PBFT simulations.

A :class:`MonitorHarness` subscribes a set of :class:`Monitor` plugins,
each to the event kinds it declares, on a harness host's
:class:`~repro.common.eventlog.EventLog` (a
:class:`~repro.pbft.cluster.PBFTCluster`, a
:class:`~repro.core.deployment.GPBFTDeployment` or a hierarchy).  A monitor that
observes a safety violation raises a structured
:class:`InvariantViolation` carrying the offending event and the recent
trace window, which aborts the simulation step with full context.

The six default monitors cover the protocol's core safety surface:

* :class:`PrefixConsistencyMonitor` -- no two replicas execute different
  requests at the same (epoch, sequence) slot; ledgers stay
  prefix-consistent.
* :class:`QuorumCertificateMonitor` -- every execution is backed by
  ``2f+1`` prepare and commit votes from committee members only.
* :class:`ViewChangeMonotonicityMonitor` -- entered views strictly
  increase per (replica, epoch).
* :class:`EraSwitchAtomicityMonitor` -- nothing commits on a node
  between its era freeze and relaunch, and the recorded era timeline
  stays well-formed.
* :class:`SybilCapMonitor` -- committees never exceed ``max_endorsers``
  and never contain blacklisted identities.
* :class:`CrossShardPrefixConsistencyMonitor` -- inter-zone commits
  follow the top layer's global order.

Monitoring is opt-in via ``GPBFTConfig.verify.monitors``; with it off
the hot paths pay a single truthiness check (see
``EventLog.record``), keeping experiment sweeps unaffected.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NoReturn

from repro.common.errors import EraSwitchError, ReproError
from repro.common.eventlog import (
    EV_ERA_SWITCH_COMPLETED,
    EV_ERA_SWITCH_STARTED,
    EV_BLOCK_COMMITTED,
    EV_PBFT_ENTERED_VIEW,
    EV_PBFT_EXECUTED,
    EV_TX_COMMITTED,
    EV_XZONE_COMMITTED,
    EV_XZONE_ORDERED,
    TRACE_WINDOW,
    Event,
    event_to_json,
)
from repro.common.quorum import quorum_size


class InvariantViolation(ReproError):
    """A safety monitor observed a protocol invariant being broken.

    Attributes:
        monitor: name of the monitor that fired.
        message: human-readable description of the violation.
        event: the offending :class:`~repro.common.eventlog.Event`
            (``None`` for end-of-run checks).
        trace: the host log's last ``TRACE_WINDOW`` events when the
            violation was raised, oldest first, as plain dicts.
    """

    def __init__(self, monitor: str, message: str,
                 event: Event | None = None,
                 trace: list[dict] | None = None) -> None:
        super().__init__(f"[{monitor}] {message}")
        self.monitor = monitor
        self.message = message
        self.event = event
        self.trace = list(trace or [])

    def to_json(self) -> dict:
        """JSON-able form, embedded in explorer repro artifacts."""
        return {
            "monitor": self.monitor,
            "message": self.message,
            "event": event_to_json(self.event) if self.event else None,
            "trace": self.trace,
        }


class Monitor:
    """Base class for invariant monitors.

    Subclasses declare :attr:`kinds` and override :meth:`on_event`
    (called synchronously for every recorded event of those kinds)
    and/or :meth:`finish` (called once after the run by
    :meth:`MonitorHarness.check_final`), raising through
    :meth:`MonitorHarness.fail` on violation.
    """

    #: Stable identifier, used in violation reports and shrink oracles.
    name = "monitor"
    #: Event kinds :meth:`on_event` receives.
    kinds: tuple[str, ...] = ()

    def on_event(self, harness: "MonitorHarness", event: Event) -> None:
        """Observe one event (default: ignore)."""

    def finish(self, harness: "MonitorHarness") -> None:
        """Run end-of-simulation checks (default: none)."""


class PrefixConsistencyMonitor(Monitor):
    """No two replicas may execute different requests at one slot.

    Tracks the (epoch, sequence) -> request id mapping across every
    ``pbft.executed`` event and, in per-transaction mode, the ledger
    height -> (transaction id, block digest) mapping across
    ``tx.committed`` events, so a fork fails at the commit that makes it.
    :meth:`finish` additionally runs the host's own whole-ledger
    consistency check (``all_agree`` / ``ledgers_consistent``).
    """

    name = "prefix-consistency"
    kinds = (EV_PBFT_EXECUTED, EV_TX_COMMITTED)

    def __init__(self) -> None:
        self._slots: dict[tuple[int, int], str] = {}
        self._heights: dict[int, tuple[str, bytes]] = {}

    def on_event(self, harness: "MonitorHarness", event: Event) -> None:
        """Cross-check executed slots and committed heights."""
        if event.kind == EV_PBFT_EXECUTED:
            key = (event.data["epoch"], event.data["seq"])
            rid = event.data["request_id"]
            seen = self._slots.get(key)
            if seen is None:
                self._slots[key] = rid
            elif seen != rid:
                harness.fail(self, (
                    f"slot epoch={key[0]} seq={key[1]} executed as "
                    f"{rid!r} on node {event.node} but {seen!r} elsewhere"
                ), event)
        elif harness.mode == "per_tx":
            height = event.data["height"]
            block = (event.data["tx_id"], event.data["digest"])
            seen = self._heights.setdefault(height, block)
            if seen != block:
                harness.fail(self, (
                    f"height {height} holds tx {block[0]!r} in block "
                    f"{block[1].hex()[:16]} on node {event.node} but tx "
                    f"{seen[0]!r} in block {seen[1].hex()[:16]} elsewhere"
                ), event)

    def finish(self, harness: "MonitorHarness") -> None:
        """Run the host's whole-ledger prefix check."""
        if not harness.ledgers_consistent():
            harness.fail(self, "replica ledgers diverged (prefix check failed)")


class QuorumCertificateMonitor(Monitor):
    """Every execution must hold full prepare and commit certificates.

    On each ``pbft.executed`` event the monitor checks that the
    executing replica counted at least ``2f+1`` prepares and ``2f+1``
    commits, and that every vote it counted came from a current
    committee member.  This is the monitor that catches the
    quorum-undercount mutation planted by
    :class:`~repro.pbft.faults.QuorumUndercountFaults`.
    """

    name = "quorum-certificate"
    kinds = (EV_PBFT_EXECUTED,)

    def on_event(self, harness: "MonitorHarness", event: Event) -> None:
        """Validate the certificate behind a ``pbft.executed`` event."""
        replica = harness.replica(event.node)
        if replica is None:
            return
        need = quorum_size(replica.f)
        prepares, commits = event.data["prepares"], event.data["commits"]
        if prepares < need:
            harness.fail(self, (
                f"node {event.node} executed seq={event.data['seq']} with "
                f"{prepares} prepares < required {need}"
            ), event)
        if commits < need:
            harness.fail(self, (
                f"node {event.node} executed seq={event.data['seq']} with "
                f"{commits} commits < required {need}"
            ), event)
        if event.data["epoch"] != replica.epoch:
            return  # replica already rolled to a new era; senders are gone
        state = replica.log.instance(event.data["view"], event.data["seq"])
        outsiders = replica.log.voters(state.prepares | state.commits) - set(replica.committee)
        if outsiders:
            harness.fail(self, (
                f"node {event.node} counted votes from non-members "
                f"{sorted(outsiders)} at seq={event.data['seq']}"
            ), event)


class ExactlyOnceMonitor(Monitor):
    """A replica executes each request at most once per era.

    Keeps the sequence every (replica, era, request id) first executed
    at, and fails when the id executes again at another sequence: a
    late retry of a request whose record a stable checkpoint dropped is
    assigned a fresh one.  Its table grows with every execution, and
    checkpoint GC still lets that retry through, so it is not one of
    :func:`default_monitors` yet.
    """

    name = "exactly-once"
    kinds = (EV_PBFT_EXECUTED,)

    def __init__(self) -> None:
        self._seqs: dict[tuple[int, int, str], int] = {}

    def on_event(self, harness: "MonitorHarness", event: Event) -> None:
        """Fail when a request id executes at a second sequence."""
        data = event.data
        key = (event.node, data["epoch"], data["request_id"])
        first = self._seqs.setdefault(key, data["seq"])
        if first != data["seq"]:
            harness.fail(self, (
                f"node {event.node} executed {key[2]!r} at seq={data['seq']} "
                f"after seq={first} in epoch {key[1]}"
            ), event)


class ViewChangeMonotonicityMonitor(Monitor):
    """Entered views must strictly increase per (replica, epoch)."""

    name = "view-monotonicity"
    kinds = (EV_PBFT_ENTERED_VIEW,)

    def __init__(self) -> None:
        self._entered: dict[tuple[int, int], int] = {}

    def on_event(self, harness: "MonitorHarness", event: Event) -> None:
        """Track ``pbft.entered_view`` events per replica and epoch."""
        key = (event.node, event.data["epoch"])
        view = event.data["view"]
        last = self._entered.get(key)
        if last is not None and view <= last:
            harness.fail(self, (
                f"node {event.node} entered view {view} after already "
                f"being in view {last} (epoch {key[1]})"
            ), event)
        self._entered[key] = view


class EraSwitchAtomicityMonitor(Monitor):
    """Nothing may commit on a node between era freeze and relaunch.

    G-PBFT pauses consensus for the switch period (section III-B4); a
    transaction or block committed while the node's ``switching`` flag
    is raised means the freeze leaked.  On every completed switch the
    node's :meth:`~repro.core.era.EraHistory.validate` is also run, so a
    malformed era timeline (numbering gaps, overlapping periods)
    surfaces immediately.
    """

    name = "era-atomicity"
    kinds = (EV_ERA_SWITCH_STARTED, EV_ERA_SWITCH_COMPLETED,
             EV_TX_COMMITTED, EV_BLOCK_COMMITTED)

    def __init__(self) -> None:
        self._switching: set[int] = set()

    def on_event(self, harness: "MonitorHarness", event: Event) -> None:
        """Track switch windows and reject commits inside them."""
        if event.kind == EV_ERA_SWITCH_STARTED:
            self._switching.add(event.node)
        elif event.kind == EV_ERA_SWITCH_COMPLETED:
            self._switching.discard(event.node)
            node = harness.node(event.node)
            if node is not None:
                try:
                    node.era_history.validate()
                except EraSwitchError as exc:
                    harness.fail(self, f"era timeline invalid: {exc}", event)
        elif event.node in self._switching:
            harness.fail(self, (
                f"node {event.node} committed ({event.kind}) during its "
                "era switch period"
            ), event)


class SybilCapMonitor(Monitor):
    """Committees must respect the cap and the blacklist.

    After every completed era switch, the new committee of the switching
    node must hold at most ``max_endorsers`` members and no blacklisted
    identity -- the accounting half of the paper's Sybil defence (the
    admission half lives in ``repro.sybil``).
    """

    name = "sybil-cap"
    kinds = (EV_ERA_SWITCH_COMPLETED,)

    def on_event(self, harness: "MonitorHarness", event: Event) -> None:
        """Audit the committee installed by an era switch."""
        node = harness.node(event.node)
        if node is None:
            return
        policy = node.committee_manager.policy
        if len(node.committee) > policy.max_endorsers:
            harness.fail(self, (
                f"node {event.node} installed a committee of "
                f"{len(node.committee)} > max_endorsers {policy.max_endorsers}"
            ), event)
        banned = set(node.committee) & set(policy.blacklist)
        if banned:
            harness.fail(self, (
                f"node {event.node} installed blacklisted members "
                f"{sorted(banned)}"
            ), event)


class CrossShardPrefixConsistencyMonitor(Monitor):
    """Inter-zone commits must follow the top layer's global order.

    Hierarchical deployments record an ``xzone.ordered`` event when the
    top-level committee assigns an inter-zone transaction its global
    index ``(top_seq, pos)``, and an ``xzone.committed`` event when the
    destination zone finally commits it.  Two things must hold, per
    destination zone:

    * **no unordered commits** -- every committed inter-zone tx was
      previously ordered (a gateway that bypasses the top layer, the
      ``xzone_bypass`` mutation, breaks exactly this);
    * **prefix order** -- commits happen in strictly increasing global
      index, so every zone's inter-zone history is a prefix of the one
      global checkpoint sequence.

    Part of :func:`default_monitors`; it is inert on single-zone hosts,
    which never record xzone events, so it costs them nothing.
    """

    name = "cross-shard-prefix"
    kinds = (EV_XZONE_ORDERED, EV_XZONE_COMMITTED)

    def __init__(self) -> None:
        # (dst zone, tx id) -> global index assigned by the top layer
        self._ordered: dict[tuple[int, str], tuple[int, int]] = {}
        # dst zone -> (global index, tx id) of its latest commit
        self._last: dict[int, tuple[tuple[int, int], str]] = {}

    def on_event(self, harness: "MonitorHarness", event: Event) -> None:
        """Track ordering grants; check each destination-zone commit."""
        if event.kind == EV_XZONE_ORDERED:
            key = (event.data["zone"], event.data["tx_id"])
            self._ordered[key] = (event.data["top_seq"], event.data["pos"])
            return
        zone = event.data["zone"]
        tx_id = event.data["tx_id"]
        index = self._ordered.get((zone, tx_id))
        if index is None:
            harness.fail(self, (
                f"zone {zone} committed inter-zone tx {tx_id} that the "
                f"top layer never ordered (checkpoint bypass)"
            ), event)
        last = self._last.get(zone)
        if last is not None and index <= last[0]:
            harness.fail(self, (
                f"zone {zone} committed inter-zone tx {tx_id} at global "
                f"index {index} after {last[1]} at {last[0]}: cross-shard "
                f"prefix order broken"
            ), event)
        self._last[zone] = (index, tx_id)


def default_monitors() -> list[Monitor]:
    """Fresh instances of the six standard safety monitors."""
    return [
        PrefixConsistencyMonitor(),
        QuorumCertificateMonitor(),
        ViewChangeMonotonicityMonitor(),
        EraSwitchAtomicityMonitor(),
        SybilCapMonitor(),
        CrossShardPrefixConsistencyMonitor(),
    ]


class MonitorHarness:
    """Attaches monitors to a cluster/deployment's event stream.

    Args:
        host: a :class:`~repro.pbft.cluster.PBFTCluster`, a
            :class:`~repro.core.deployment.GPBFTDeployment` or a hierarchy
            (anything with an ``events`` :class:`~repro.common.eventlog.EventLog`).
        monitors: monitor instances to attach; defaults to
            :func:`default_monitors`.

    The harness subscribes each monitor to its :attr:`Monitor.kinds`
    immediately, in monitor order, and a violation raises
    :class:`InvariantViolation` out of the simulation step that caused
    it.  Call :meth:`check_final` after the run for end-of-run checks.

    Attributes:
        on_violation: optional callback receiving each
            :class:`InvariantViolation` *before* it is raised.  The
            observability flight recorder hooks this to dump a
            post-mortem bundle while the evidence (recent events,
            instrument state, window frames) is still live; the
            violation propagates unchanged afterwards.
    """

    on_violation: Callable[[InvariantViolation], None] | None = None

    def __init__(self, host, monitors: list[Monitor] | None = None) -> None:
        self.host = host
        self.monitors = list(monitors) if monitors is not None else default_monitors()
        for monitor in self.monitors:
            for kind in monitor.kinds:
                host.events.subscribe(kind, partial(monitor.on_event, self))

    # -- host accessors ---------------------------------------------------

    @property
    def mode(self) -> str:
        """The host's ordering mode (``"per_tx"`` unless set otherwise)."""
        return getattr(self.host, "mode", "per_tx")

    def replica(self, node_id: int):
        """The PBFT replica running on *node_id*, or ``None``.

        Resolves through either host shape: ``PBFTCluster.replicas``
        directly, or ``GPBFTDeployment.nodes[id].replica`` (``None``
        for plain devices and mid-construction).
        """
        replicas = getattr(self.host, "replicas", None)
        if replicas is not None:
            return replicas.get(node_id)
        node = self.node(node_id)
        return getattr(node, "replica", None)

    def node(self, node_id: int):
        """The :class:`~repro.core.node.GPBFTNode` with *node_id*, or
        ``None`` on hosts without full G-PBFT nodes."""
        nodes = getattr(self.host, "nodes", None)
        if nodes is None:
            return None
        return nodes.get(node_id)

    def ledgers_consistent(self) -> bool:
        """The host's own whole-run prefix check (True when absent)."""
        for probe in ("ledgers_consistent", "all_agree"):
            check = getattr(self.host, probe, None)
            if check is not None:
                return bool(check())
        return True

    # -- event flow -------------------------------------------------------

    def fail(self, monitor: Monitor, message: str,
             event: Event | None = None) -> NoReturn:
        """Raise a structured violation carrying the host log's last
        :data:`~repro.common.eventlog.TRACE_WINDOW` events."""
        violation = InvariantViolation(
            monitor=monitor.name,
            message=message,
            event=event,
            trace=[event_to_json(e) for e in self.host.events.tail(TRACE_WINDOW)],
        )
        if self.on_violation is not None:
            self.on_violation(violation)
        raise violation

    def check_final(self) -> None:
        """Run every monitor's end-of-simulation checks."""
        for monitor in self.monitors:
            monitor.finish(self)
