"""The PBFT replica state machine.

Implements the normal-case three-phase protocol, checkpointing with
watermarks, and view changes, following Castro & Liskov (OSDI'99):

* the primary of view *v* is ``committee[v mod n]``;
* a backup accepts a pre-prepare if it is in the same view, signed by the
  primary, inside the watermark window, and no conflicting digest was
  accepted for that (view, seq);
* *prepared* needs the pre-prepare plus 2f matching prepares;
  *committed-local* needs 2f+1 matching commits;
* execution is strictly in sequence order, replies go back to clients;
* every ``checkpoint_interval`` executions replicas exchange checkpoint
  digests; 2f+1 matching digests advance the stable watermark and
  garbage-collect the log;
* a backup that times out on a pending request broadcasts a view change;
  the new primary assembles 2f+1 view-change votes into a new-view with
  re-issued pre-prepares.

The replica is transport-agnostic: it talks through a transport handle
(``send(dst, payload)`` and ``multicast(dsts, payload)``) and a simulator
for timers, so the same engine runs under the baseline PBFT deployment
and inside every G-PBFT era.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.common.config import PBFTConfig
from repro.common.errors import ConsensusError
from repro.common.eventlog import (
    EV_PBFT_ASSIGNED,
    EV_PBFT_CHECKPOINT_STABLE,
    EV_PBFT_ENTERED_VIEW,
    EV_PBFT_EXECUTED,
    EV_PBFT_NEW_VIEW,
    EV_PBFT_STATE_TRANSFER,
    EV_PBFT_VIEW_CHANGE,
    EventLog,
)
from repro.common.quorum import max_faulty, primary_for_view, quorum_size
from repro.crypto.hashing import sha256
from repro.net.network import Transport
from repro.net.simulator import ScheduledEvent, Simulator
from repro.pbft.faults import FaultModel, HonestFaults
from repro.pbft.log import InstanceState, MessageLog, roster
from repro.pbft.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    NewView,
    Prepare,
    PreparedProof,
    PrePrepare,
    RawOperation,
    Reply,
    ViewChange,
)

if TYPE_CHECKING:
    from repro.obs.core import Observability

#: Signature of the executor callback: (operation, seq) -> result digest.
#: No view: replicas may commit one request in different local views.
Executor = Callable[[object, int], bytes]


class PBFTReplica:
    """One replica of the PBFT service.

    Args:
        node_id: this replica's id (must appear in *committee*).
        committee: ordered replica ids; order fixes primary rotation.
        sim: simulator used for view-change timers.
        transport: this replica's way out: ``send(dst, payload)`` and
            ``multicast(dsts, payload)``, which skips this replica's id.
        config: protocol timeouts and checkpoint cadence.
        executor: applies an ordered operation, returns a result digest.
        state_digest_fn: returns the current state digest (checkpoints).
        event_log: optional sink for protocol events.
        faults: byzantine/crash behaviour; honest by default.
        epoch: consensus epoch this replica belongs to (the G-PBFT era).
            Messages from other epochs are ignored, so in-flight traffic
            from a previous era cannot pollute the new era's instances.
        state_transfer_fn: host-provided catch-up hook.  When a stable
            checkpoint forms beyond this replica's execution point (it
            crashed or missed traffic), the hook is called with the
            checkpoint sequence and must install a peer's application
            state, returning the sequence it installed up to (or None
            when no peer could serve the transfer).  Castro-Liskov
            section 4.6 ("state transfer").
        obs: observability facade for the facts *event_log* does not
            carry (phase entries, state-transfer attempts); the rest it
            reads off the log.
        host: kind -> handler of kinds the host consumes, none of them
            this replica's: ``receive`` hands them back, past the faults.
    """

    def __init__(
        self,
        node_id: int,
        committee: tuple[int, ...] | list[int],
        sim: Simulator,
        transport: Transport,
        config: PBFTConfig | None = None,
        executor: Executor | None = None,
        state_digest_fn: Callable[[], bytes] | None = None,
        event_log: EventLog | None = None,
        faults: FaultModel | None = None,
        epoch: int = 0,
        state_transfer_fn: Callable[[int], int | None] | None = None,
        obs: "Observability | None" = None,
        host: dict[str, Callable[[object], None]] | None = None,
    ) -> None:
        self.committee = tuple(committee)
        # membership checks run once per vote received: a probe of the
        # committee's shared roster, not a scan of the tuple
        self._roster = roster(self.committee)
        if len(self._roster) != len(self.committee):
            raise ConsensusError("committee contains duplicate ids")
        if node_id not in self._roster:
            raise ConsensusError(f"replica {node_id} not in committee {self.committee}")
        self.node_id = node_id
        self.sim = sim
        self._transport = transport
        self.config = config or PBFTConfig()
        self._executor = executor or (lambda op, seq: sha256(op.signing_bytes()))
        self._state_digest_fn = state_digest_fn or (lambda: sha256(b"state"))
        self.events = event_log
        self.faults = faults or HonestFaults()
        self.epoch = epoch
        self._state_transfer_fn = state_transfer_fn
        self._obs = obs
        self._host = host or {}

        self.n = len(self.committee)
        self.f = max_faulty(self.n)
        self.view = 0
        # the current view's primary, kept in step by ``_enter_view``
        self._primary = self.committee[0]
        self.next_seq = 1
        # quorum thresholds resolved once: honest models skew by 0, so
        # the hot-path predicates stay plain integer comparisons
        quorum = quorum_size(self.f)
        self.log = MessageLog(
            self._roster, node_id,
            prepare_quorum=quorum + self.faults.quorum_skew("prepare"),
            commit_quorum=quorum + self.faults.quorum_skew("commit"),
        )
        self.last_executed = 0
        self.stable_seq = 0
        self.stopped = False
        self.in_view_change = False

        # request_id -> (seq, Reply) once executed; replay protection +
        # resends, garbage-collected at each stable checkpoint
        self._executed_requests: dict[str, tuple[int, Reply]] = {}
        # seq -> view of the instance chosen for execution (first committed wins)
        self._committed_by_seq: dict[int, int] = {}
        # request_id -> pending ClientRequest (backup is waiting on primary)
        self._pending: dict[str, ClientRequest] = {}
        self._timers: dict[str, ScheduledEvent] = {}
        # seq assigned per request_id at this primary (avoid double-assign)
        self._assigned: dict[str, int] = {}
        # checkpoint votes: seq -> digest -> set of senders
        self._checkpoint_votes: dict[int, dict[bytes, set[int]]] = {}
        # view-change votes: new_view -> sender -> ViewChange
        self._view_change_votes: dict[int, dict[int, ViewChange]] = {}
        # messages for views we have not entered yet (network reordering
        # can deliver a pre-prepare before its new-view); replayed on entry
        self._future_messages: dict[int, list] = {}
        # escalation timer: if a started view change never completes
        # (the next primary is also faulty), move to the view after it
        self._view_change_timer: ScheduledEvent | None = None

    # -- helpers --------------------------------------------------------------

    @property
    def primary(self) -> int:
        """Node id of the current view's primary."""
        return self._primary

    @property
    def is_primary(self) -> bool:
        """True iff this replica leads the current view."""
        return self._primary == self.node_id

    @property
    def faults(self) -> FaultModel:
        """Byzantine/crash behaviour; may be reassigned on a live replica."""
        return self._faults

    @faults.setter
    def faults(self, model: FaultModel) -> None:
        """Use *model*; unless it overrides ``drop_incoming`` or
        ``suppress_send``, both answer ``crashed``, which is read instead."""
        self._faults = model
        cls = type(model)
        self._filters = (cls.drop_incoming is not FaultModel.drop_incoming
                         or cls.suppress_send is not FaultModel.suppress_send)

    def primary_of(self, view: int) -> int:
        """Primary of an arbitrary *view*."""
        return self.committee[primary_for_view(view, self.n)]

    @property
    def high_watermark(self) -> int:
        """H = h + window: highest acceptable sequence number."""
        return self.stable_seq + self.config.watermark_window

    def _record(self, kind: str, **data) -> None:
        if self.events is not None:
            self.events.record(self.sim.now, kind, node=self.node_id, **data)

    def _unicast(self, dst: int, payload) -> None:
        faults = self._faults
        if faults.suppress_send(payload.kind) if self._filters else faults.crashed:
            return
        if dst == self.node_id:
            return
        self._transport.send(dst, payload)

    def _multicast(self, payload) -> None:
        # fault models are pure per-call (see FaultModel), so one
        # suppress check covers the whole fan-out
        faults = self._faults
        if faults.suppress_send(payload.kind) if self._filters else faults.crashed:
            return
        # the transport skips our own id
        self._transport.multicast(self.committee, payload)

    def shutdown(self) -> None:
        """Stop participating and cancel every pending timer.

        Used by the era-switch machinery: old-era replicas are shut down
        before the new-era committee relaunches.
        """
        self.stopped = True
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        if self._view_change_timer is not None:
            self._view_change_timer.cancel()
            self._view_change_timer = None

    def pending_requests(self) -> list[ClientRequest]:
        """Requests this replica knows about but has not executed.

        The era-switch machinery carries these into the next era so that
        in-flight transactions survive the committee change (paper
        section IV-A2: halt the old consensus, relaunch the new one).
        """
        return [
            req
            for rid, req in self._pending.items()
            if rid not in self._executed_requests
        ]

    def watch_request(self, request: ClientRequest) -> None:
        """Track *request* for liveness without forwarding it.

        Era carry-over uses this on all but one surviving member: every
        old-era replica already held the request, so having each of them
        re-forward it would hand the new primary dozens of copies.  The
        primary proposes it; backups only arm their view-change timers.
        """
        rid = request.request_id
        if rid in self._executed_requests or self.stopped:
            return
        if self.is_primary:
            self._assign_and_propose(request)
        else:
            self._pending.setdefault(rid, request)
            self._start_timer(rid)

    # -- dispatch ---------------------------------------------------------------

    def receive(self, payload) -> None:
        """Entry point for every message addressed to us; hosts register
        it with the network as the handler itself.

        Prepares and commits -- O(n^2) per instance where everything
        else is O(n) or rarer -- pass their one gate here and are counted
        where they land: one for a later view waits for that view, one
        for another era or view, during a view change or from outside
        the committee is ignored.  The log methods are looked up per
        call: ``perfbench`` wraps them on the class.  The host's kinds
        go back to it (see ``host``); any other kind is ignored.
        """
        if self.stopped:
            return
        kind = payload.kind
        faults = self._faults
        if (faults.drop_incoming(kind) if self._filters
                else faults.crashed) and kind not in self._host:
            return
        is_prepare = kind == Prepare.kind
        if is_prepare or kind == Commit.kind:
            if payload.epoch != self.epoch:
                return  # stale traffic from another era
            view = payload.view
            if view != self.view:
                if view > self.view:
                    self._stash_future(payload)
                return
            if self.in_view_change or payload.sender not in self._roster:
                return
            if is_prepare:
                state = self.log.add_prepare(payload)
            else:
                state = self.log.add_commit(payload)
            # ``_advance`` has work until our commit is out, then until executed
            if (state.committed_flag and not state.executed
                    or state.prepared_flag and not state.commit_sent):
                self._advance(state)
            return
        handler = self._HANDLERS.get(kind)
        if handler is None:
            handler = self._host.get(kind)
            if handler is not None:
                handler(payload)
            return
        if getattr(payload, "epoch", self.epoch) != self.epoch:
            return  # stale traffic from another era
        handler(self, payload)

    # -- client requests -----------------------------------------------------------

    def on_request(self, request: ClientRequest) -> None:
        """Handle a client request (possibly retransmitted or forwarded)."""
        rid = request.request_id
        done = self._executed_requests.get(rid)
        if done is not None:
            # retransmission of an executed request: resend the reply
            self._unicast(request.client, done[1])
            return
        if self.in_view_change:
            self._pending.setdefault(rid, request)
            return
        primary = self._primary
        if primary == self.node_id:
            self._assign_and_propose(request)
        else:
            # forward to the primary and watch it for liveness
            self._pending.setdefault(rid, request)
            self._unicast(primary, request)
            self._start_timer(rid)

    def _assign_and_propose(self, request: ClientRequest) -> None:
        rid = request.request_id
        if rid in self._assigned:
            return
        if self.next_seq > self.high_watermark:
            # window full: park the request until a checkpoint advances h
            self._pending.setdefault(rid, request)
            return
        seq = self.next_seq
        self.next_seq += 1
        self._assigned[rid] = seq
        self._pending.setdefault(rid, request)
        digest = request.digest()
        events = self.events
        if events is not None:
            events.record(self.sim.now, EV_PBFT_ASSIGNED, node=self.node_id,
                          seq=seq, view=self.view, request_id=rid)
        own = PrePrepare(
            view=self.view, seq=seq, digest=digest, request=request,
            sender=self.node_id, epoch=self.epoch,
        )
        # read per request: tests swap ``faults`` on a live replica
        mutate = self._faults.mutate_digest
        if (type(self._faults).mutate_digest is FaultModel.mutate_digest
                or all(mutate(digest, dst) == digest for dst in self.committee)):
            self._multicast(own)
        else:
            # an equivocating primary: one pre-prepare per destination
            for dst in self.committee:
                self._unicast(dst, PrePrepare(
                    view=self.view, seq=seq, digest=mutate(digest, dst),
                    request=request, sender=self.node_id, epoch=self.epoch,
                ))
        state = self.log.add_pre_prepare(own)
        if self._obs is not None:
            self._obs.pbft_preprepare(self.node_id, self.epoch, self.view, seq, rid)
        # refused only when a forged vote fixed another digest first
        self._advance(state or self.log.instance(self.view, seq))

    # -- three phases ------------------------------------------------------------------

    def _stash_future(self, msg) -> None:
        self._future_messages.setdefault(msg.view, []).append(msg)

    def on_pre_prepare(self, msg: PrePrepare) -> None:
        """Backup path: validate and answer with a prepare."""
        if msg.view > self.view:
            self._stash_future(msg)
            return
        if msg.view != self.view or self.in_view_change:
            return
        if msg.sender != self._primary:
            return  # only the view's primary may pre-prepare
        if not (self.stable_seq < msg.seq <= self.high_watermark):
            return
        if msg.digest != msg.request.digest():
            return  # primary lied about the request body
        state = self.log.add_pre_prepare(msg)
        if state is None:
            return
        self._pending.setdefault(msg.request.request_id, msg.request)
        if self._obs is not None:
            self._obs.pbft_preprepare(
                self.node_id, self.epoch, msg.view, msg.seq,
                msg.request.request_id,
            )
        if not state.prepare_sent:
            state.prepare_sent = True
            prepare = Prepare(
                view=msg.view, seq=msg.seq, digest=msg.digest,
                sender=self.node_id, epoch=self.epoch,
            )
            self._multicast(prepare)
            self.log.add_prepare(prepare)
        self._advance(state)

    def _advance(self, state: InstanceState) -> None:
        """Take *state* as far as its votes allow: multicast our commit
        once it is prepared, execute once it is committed-local.

        Both checks are reads of the log's incrementally kept flags.
        ``receive`` calls it for a vote, counted or not, only where there
        is work: on a prepared instance whose commit is not out yet, and
        on a committed one not yet executed (a re-proposed twin included).
        No executed instance outlives a state transfer: the stable
        checkpoint that starts one has garbage-collected them all.
        """
        if not state.prepared_flag:
            return
        if not state.commit_sent:
            state.commit_sent = True
            if self._obs is not None and state.request is not None:
                self._obs.pbft_prepared(
                    self.node_id, self.epoch, state.view, state.seq,
                    state.request.request_id,
                )
            commit = Commit(
                view=state.view, seq=state.seq, digest=state.digest,
                sender=self.node_id, epoch=self.epoch,
            )
            self._multicast(commit)
            self.log.add_commit(commit)
        if state.committed_flag:
            self._maybe_execute(state)

    # -- execution ---------------------------------------------------------------------

    def _maybe_execute(self, instance) -> None:
        if not instance.committed_flag:
            return
        seq = instance.seq
        self._committed_by_seq.setdefault(seq, instance.view)
        # execute every consecutive committed sequence
        while True:
            nxt = self.last_executed + 1
            view = self._committed_by_seq.get(nxt)
            if view is None:
                break
            state = self.log.instance(view, nxt)
            if state.request is None or state.executed:
                break
            self._execute(state)

    def _execute(self, state) -> None:
        request = state.request
        seq = state.seq
        state.executed = True
        self.last_executed = seq
        rid = request.request_id
        if rid in self._executed_requests:
            # re-proposed after a view change but already executed here:
            # consume the sequence number without re-running the operation
            return
        result = self._executor(request.op, seq)
        # vote counts ride on the event so quorum-certificate monitors
        # can audit the execution without reaching into the log
        events = self.events
        if events is not None:
            events.record(self.sim.now, EV_PBFT_EXECUTED, node=self.node_id, seq=seq,
                          view=state.view, request_id=rid, epoch=self.epoch,
                          prepares=state.prepares.bit_count(),
                          commits=state.commits.bit_count())
        reply = Reply(
            view=state.view,
            timestamp=request.timestamp,
            client=request.client,
            sender=self.node_id,
            request_id=rid,
            result_digest=result,
        )
        self._executed_requests[rid] = (seq, reply)
        self._pending.pop(rid, None)
        self._cancel_timer(rid)
        self._unicast(request.client, reply)
        if seq % self.config.checkpoint_interval == 0:
            self._emit_checkpoint(seq)

    # -- checkpoints --------------------------------------------------------------------

    def _emit_checkpoint(self, seq: int) -> None:
        digest = self._state_digest_fn()
        msg = Checkpoint(seq=seq, state_digest=digest, sender=self.node_id, epoch=self.epoch)
        self._multicast(msg)
        self._note_checkpoint(msg)

    def on_checkpoint(self, msg: Checkpoint) -> None:
        """Collect checkpoint votes; 2f+1 matching -> stable, GC the log."""
        if msg.sender not in self._roster:
            return
        self._note_checkpoint(msg)

    def _note_checkpoint(self, msg: Checkpoint) -> None:
        if msg.seq <= self.stable_seq:
            return
        votes = self._checkpoint_votes.setdefault(msg.seq, {})
        senders = votes.setdefault(msg.state_digest, set())
        senders.add(msg.sender)
        if len(senders) >= quorum_size(self.f):
            self.stable_seq = msg.seq
            self.log.garbage_collect(msg.seq)
            for s in [s for s in self._checkpoint_votes if s <= msg.seq]:
                del self._checkpoint_votes[s]
            for s in [s for s in self._committed_by_seq if s <= msg.seq]:
                del self._committed_by_seq[s]
            self._record(EV_PBFT_CHECKPOINT_STABLE, seq=msg.seq)
            # GC replay protection for requests the whole quorum has
            # durably executed -- they can never be legitimately
            # re-proposed past a stable checkpoint
            for rid in [r for r, (s, _) in self._executed_requests.items()
                        if s <= msg.seq]:
                del self._executed_requests[rid]
            # assignment memory ages out with the same argument: every
            # assigned seq <= the stable checkpoint has been executed
            # (execution is gap-free in seq order), so only in-flight
            # assignments stay and the map is bounded by the window
            for rid in [r for r, s in self._assigned.items()
                        if s <= msg.seq]:
                del self._assigned[rid]
            if self.last_executed < msg.seq:
                # we fell behind the stable checkpoint (crash/partition):
                # fetch a peer's state instead of replaying the log
                self._try_state_transfer(msg.seq)
            if self.is_primary:
                self._drain_parked_requests()

    def _try_state_transfer(self, target_seq: int) -> None:
        if self._state_transfer_fn is None:
            return
        if self._obs is not None:
            self._obs.state_transfer()
        installed = self._state_transfer_fn(target_seq)
        if installed is not None and installed > self.last_executed:
            self.last_executed = installed
            self.next_seq = max(self.next_seq, installed + 1)
            self._record(EV_PBFT_STATE_TRANSFER, seq=installed)

    def _drain_parked_requests(self) -> None:
        """Propose requests parked while the watermark window was full."""
        for rid, request in list(self._pending.items()):
            if rid in self._assigned or rid in self._executed_requests:
                continue
            if self.next_seq > self.high_watermark:
                break
            self._assign_and_propose(request)

    # -- view change ---------------------------------------------------------------------

    def _start_timer(self, rid: str) -> None:
        if rid in self._timers:
            return
        self._timers[rid] = self.sim.schedule(
            self.config.view_change_timeout_s, self._on_timeout, rid
        )

    def _cancel_timer(self, rid: str) -> None:
        timer = self._timers.pop(rid, None)
        if timer is not None:
            timer.cancel()

    def _on_timeout(self, rid: str) -> None:
        self._timers.pop(rid, None)
        if self.stopped or rid in self._executed_requests:
            return
        self.start_view_change(self.view + 1)

    def start_view_change(self, new_view: int) -> None:
        """Broadcast a view-change vote for *new_view*."""
        if new_view <= self.view:
            return
        self.in_view_change = True
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        proofs = tuple(
            PreparedProof(
                view=s.view,
                seq=s.seq,
                digest=s.digest,
                request=s.request,
                prepare_count=s.prepares.bit_count(),
            )
            # all prepared instances above the stable checkpoint -- the
            # executed ones too, or a new primary could reuse their seqs
            for s in self.log.prepared_instances(self.stable_seq)
            if s.request is not None
        )
        msg = ViewChange(
            new_view=new_view,
            last_stable_seq=self.stable_seq,
            prepared=proofs,
            sender=self.node_id,
            epoch=self.epoch,
        )
        self._record(EV_PBFT_VIEW_CHANGE, new_view=new_view, epoch=self.epoch)
        if self._view_change_timer is not None:
            self._view_change_timer.cancel()
        self._view_change_timer = self.sim.schedule(
            self.config.view_change_timeout_s, self._on_view_change_timeout, new_view
        )
        self._multicast(msg)
        self._note_view_change(msg)

    def _on_view_change_timeout(self, attempted_view: int) -> None:
        self._view_change_timer = None
        if self.stopped or self.view >= attempted_view:
            return
        # the primary of attempted_view never produced a new-view:
        # escalate past it (Castro-Liskov: wait longer each attempt)
        self.start_view_change(attempted_view + 1)

    def on_view_change(self, msg: ViewChange) -> None:
        """Collect view-change votes; lead or join as appropriate."""
        if msg.sender not in self._roster or msg.new_view <= self.view:
            return
        self._note_view_change(msg)

    def _note_view_change(self, msg: ViewChange) -> None:
        votes = self._view_change_votes.setdefault(msg.new_view, {})
        votes[msg.sender] = msg
        # liveness rule: after f+1 distinct votes for higher views, join
        if (
            not self.in_view_change
            and msg.new_view > self.view
            and len(votes) >= self.f + 1
            and self.node_id not in votes
        ):
            self.start_view_change(msg.new_view)
            votes = self._view_change_votes.setdefault(msg.new_view, {})
        if (
            len(votes) >= quorum_size(self.f)
            and self.primary_of(msg.new_view) == self.node_id
            and msg.new_view > self.view
        ):
            self._lead_new_view(msg.new_view, votes)

    def _lead_new_view(self, new_view: int, votes: dict[int, ViewChange]) -> None:
        # the O set: re-issue pre-prepares for every prepared request,
        # choosing the highest-view certificate per sequence number
        min_s = max(vc.last_stable_seq for vc in votes.values())
        best: dict[int, PreparedProof] = {}
        # sender-id order: equal-view certificates must tie-break the
        # same way on every replica and every rerun
        for _, vc in sorted(votes.items()):
            for proof in vc.prepared:
                if proof.seq <= min_s:
                    continue
                cur = best.get(proof.seq)
                if cur is None or proof.view > cur.view:
                    best[proof.seq] = proof
        max_s = max(best) if best else min_s
        pre_prepares = []
        for seq in range(min_s + 1, max_s + 1):
            proof = best.get(seq)
            if proof is not None:
                request = proof.request
                digest = proof.digest
            else:
                # fill sequence gaps with a no-op so execution can advance
                request = ClientRequest(
                    client=self.node_id,
                    timestamp=self.sim.now,
                    op=RawOperation(op_id=f"null:{new_view}:{seq}", size_bytes=8),
                )
                digest = request.digest()
            pre_prepares.append(
                PrePrepare(
                    view=new_view,
                    seq=seq,
                    digest=digest,
                    request=request,
                    sender=self.node_id,
                    epoch=self.epoch,
                )
            )
        nv = NewView(
            new_view=new_view,
            view_change_senders=tuple(sorted(votes)),
            pre_prepares=tuple(pre_prepares),
            sender=self.node_id,
            epoch=self.epoch,
        )
        self._record(EV_PBFT_NEW_VIEW, new_view=new_view, reproposed=len(pre_prepares))
        self._multicast(nv)
        self._enter_view(new_view)
        self.next_seq = max(max_s, self.last_executed, self.next_seq - 1) + 1
        for pp in pre_prepares:
            self.log.add_pre_prepare(pp)
            self._assigned[pp.request.request_id] = pp.seq
            self._advance(self.log.instance(new_view, pp.seq))
        self._drain_parked_requests()

    def on_new_view(self, msg: NewView) -> None:
        """Adopt the new view announced by its primary."""
        if msg.sender != self.primary_of(msg.new_view):
            return
        # never back to an older view; the current one only to end its
        # own view change
        if msg.new_view < self.view or (
                msg.new_view == self.view and not self.in_view_change):
            return
        if len(msg.view_change_senders) < quorum_size(self.f):
            return
        self._enter_view(msg.new_view)
        for pp in msg.pre_prepares:
            self.on_pre_prepare(pp)
        # re-submit requests that are still unexecuted to the new primary
        for rid, request in list(self._pending.items()):
            if rid in self._executed_requests:
                continue
            if not self.is_primary:
                self._unicast(self.primary, request)
                self._start_timer(rid)
            else:
                self._assign_and_propose(request)

    def _enter_view(self, new_view: int) -> None:
        self.view = new_view
        self._primary = self.primary_of(new_view)
        self.in_view_change = False
        if self._view_change_timer is not None:
            self._view_change_timer.cancel()
            self._view_change_timer = None
        self._view_change_votes = {
            v: votes for v, votes in self._view_change_votes.items() if v > new_view
        }
        self._record(EV_PBFT_ENTERED_VIEW, view=new_view, epoch=self.epoch)
        # replay protocol messages that arrived before we entered the view
        for view in sorted(v for v in self._future_messages if v <= new_view):
            for msg in self._future_messages.pop(view):
                if view == new_view:
                    self.receive(msg)

    #: kind -> handler of every kind but the two votes, which ``receive``
    #: counts itself.  Class-level: a dict of bound methods per replica
    #: would be paid at set-up by every member of every committee.
    _HANDLERS = {
        PrePrepare.kind: on_pre_prepare,
        ClientRequest.kind: on_request,
        Checkpoint.kind: on_checkpoint,
        ViewChange.kind: on_view_change,
        NewView.kind: on_new_view,
    }
