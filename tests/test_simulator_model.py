"""Model-based property test for the simulator's event queue.

One generated program -- schedules, cancels and partial drains, with
callbacks that schedule and cancel in turn -- is run twice: on
:class:`repro.net.simulator.Simulator` and on a reference that keeps a
plain list and re-sorts it by ``(time, seq)`` before every fire.  The
two runs must agree on everything a caller can see: which event fires
when, every return value, and ``now`` / ``pending`` /
``events_processed`` after every step.  Nothing here depends on how the
queue is laid out, so the same test holds for any implementation of the
``(time, insertion-seq)`` contract.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.net.simulator import _COMPACT_MIN_CANCELLED, Simulator


class _RefEvent:
    def __init__(self, time, seq, callback, args):
        self.time, self.seq, self.callback, self.args = time, seq, callback, args
        self.cancelled = False
        self.fired = False

    def cancel(self):
        if not self.fired:
            self.cancelled = True


class _Reference:
    """The queue as a list, sorted by ``(time, seq)`` on every fire.

    Cancelled entries stay listed until a later-keyed event fires; that
    is the most any lazy-deletion queue may still hold, which makes
    ``len(queue)`` the upper bound for the simulator's ``heap_size``.
    """

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.queue = []
        self._seq = 0

    @property
    def pending(self):
        return sum(1 for e in self.queue if not e.cancelled)

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        event = _RefEvent(time, self._seq, callback, args)
        self._seq += 1
        self.queue.append(event)
        return event

    def _drain(self, until, max_events, done):
        fired = 0
        while True:
            live = sorted((e.time, e.seq, e) for e in self.queue if not e.cancelled)
            if not live or (done is not None and done()):
                break
            time, seq, event = live[0]
            if until is not None and time > until:
                break
            if max_events is not None and fired >= max_events:
                break
            self.queue = [e for e in self.queue if (e.time, e.seq) > (time, seq)]
            self.now = time
            self.events_processed += 1
            event.fired = True
            event.callback(*event.args)
            fired += 1
        return fired

    def step(self):
        return self._drain(None, 1, None) == 1

    def run(self, until=None, max_events=None):
        fired = self._drain(until, max_events, None)
        if until is not None and until > self.now:
            self.now = until
        return fired

    def run_until_condition(self, done, horizon=None, max_events=None):
        self._drain(horizon, max_events, done)
        return done()


class _Run:
    """Executes one program against *sim* and records what it saw."""

    def __init__(self, sim):
        self.sim = sim
        self.handles = []
        self.trace = []
        self.fired = 0
        self.results = []

    def tick(self, time):
        self.trace.append(("tick", time))

    def fire(self, handle, action):
        self.trace.append(("fire", handle, self.sim.now))
        self.fired += 1
        for op in action:
            self.apply(op)

    def spawn(self, how, delay, action):
        handle = len(self.handles)
        if how == "in":
            event = self.sim.schedule(delay, self.fire, handle, action)
        else:
            event = self.sim.schedule_at(self.sim.now + delay, self.fire, handle, action)
        self.handles.append(event)

    def apply(self, op):
        """One operation; callbacks apply only spawns and cancels."""
        kind = op[0]
        if kind == "spawn":
            self.spawn(*op[1:])
        elif kind == "burst":
            _, count, stride = op
            for i in range(count):
                self.spawn("in", 1.0 + (i % stride) * 0.25, ())
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "mass_cancel":
            for i, event in enumerate(self.handles):
                if i % op[1]:
                    event.cancel()
        else:
            self.results.append(self.drain(op))

    def drain(self, op):
        sim, kind = self.sim, op[0]
        if kind == "step":
            return sim.step()
        if kind == "run":
            return sim.run()
        if kind == "run_until":
            return sim.run(until=sim.now + op[1])
        if kind == "run_max":
            return sim.run(max_events=op[1])
        target = self.fired + op[1]

        def done():
            return self.fired >= target

        if kind == "cond":
            return sim.run_until_condition(done)
        if kind == "cond_horizon":
            return sim.run_until_condition(done, horizon=sim.now + op[2])
        assert kind == "cond_max", op
        return sim.run_until_condition(done, max_events=op[2])


def _check_ticks(trace, clock):
    """Tick contract over one drain call's slice of the trace.

    A clock-advancing fire is immediately preceded by the tick of its
    timestamp; ticks name only future times and never go backwards.
    A tick may repeat or name a timestamp whose events were all
    cancelled: neither can close a time-series window early.
    """
    last_tick = clock
    prev = None
    for entry in trace:
        if entry[0] == "tick":
            assert entry[1] > clock and entry[1] >= last_tick, (entry, clock, last_tick)
            last_tick = entry[1]
        else:
            time = entry[2]
            if time > clock:
                assert prev == ("tick", time), (prev, entry)
                clock = time
            else:
                assert time == clock and (prev is None or prev[0] == "fire"), (prev, entry)
        prev = entry


# timestamps collide on the 0.25 grid; 60 s and up is retry-timer range,
# 1e12 s is a parked timer
_delays = st.one_of(
    st.sampled_from([0.0, 0.25, 0.25, 0.5, 1.0, 1.0, 2.5, 31.75, 60.0, 64.0,
                     96.25, 600.0, 1e12, 1e12 + 32.0]),
    st.floats(min_value=0.0, max_value=130.0, allow_nan=False),
)
_how = st.sampled_from(["in", "at"])
_cancel = st.tuples(st.just("cancel"), st.integers(0, 400))
_mass_cancel = st.tuples(st.just("mass_cancel"), st.integers(2, 5))
_in_callback = st.recursive(
    st.just(()),
    lambda inner: st.lists(
        st.one_of(_cancel, _mass_cancel,
                  st.tuples(st.just("spawn"), _how, _delays, inner)),
        max_size=3).map(tuple),
    max_leaves=4,
)
_ops = st.one_of(
    st.tuples(st.just("spawn"), _how, _delays, _in_callback),
    st.tuples(st.just("spawn"), _how, _delays, _in_callback),
    st.tuples(st.just("burst"), st.integers(70, 160), st.integers(1, 40)),
    _cancel,
    _mass_cancel,
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), _delays),
    st.tuples(st.just("run_max"), st.integers(0, 40)),
    st.tuples(st.just("cond"), st.integers(0, 30)),
    st.tuples(st.just("cond_horizon"), st.integers(0, 30), _delays),
    st.tuples(st.just("cond_max"), st.integers(0, 30), st.integers(0, 20)),
    st.tuples(st.just("run")),
)


@given(program=st.lists(_ops, min_size=1, max_size=30))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_simulator_matches_the_sorted_list_model(program):
    _check_against_the_model(program, hooked=True)


@given(program=st.lists(_ops, min_size=1, max_size=30))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_plain_loop_matches_the_sorted_list_model(program):
    # no tick hook: every ``run`` without ``max_events`` takes the plain loop
    _check_against_the_model(program, hooked=False)


def _check_against_the_model(program, hooked):
    sim, ref = Simulator(), _Reference()
    real, model = _Run(sim), _Run(ref)
    if hooked:
        sim.set_tick_hook(real.tick)
    for op in program + [("run",)]:
        clock, mark, was_pending = sim.now, len(real.trace), ref.pending
        real.apply(op)
        model.apply(op)
        fires = [e for e in real.trace if e[0] == "fire"]
        assert fires == model.trace, op
        assert real.results == model.results, op
        assert (sim.now, sim.pending, sim.events_processed) == (
            ref.now, ref.pending, ref.events_processed), op
        assert sim.pending <= sim.heap_size <= len(ref.queue), op
        if hooked:
            _check_ticks(real.trace[mark:], clock)
        if op[0] in ("cancel", "mass_cancel") and ref.pending < was_pending:
            # straight after a cancel that hit a queued event, a queue
            # that is mostly dead has been compacted
            dead = sim.heap_size - sim.pending
            assert dead <= _COMPACT_MIN_CANCELLED or 2 * dead <= sim.heap_size, op
    assert sim.pending == 0 and sim.heap_size == 0
