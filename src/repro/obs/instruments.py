"""Typed metric instruments: counters, gauges, quantile sketches.

Instruments answer "how much / how many" questions that spans are too
granular for: messages sent per wire kind, quorum wait distributions,
mempool depth, era-switch downtime.  A :class:`Registry` owns them by
name with get-or-create semantics, and :meth:`Registry.snapshot`
renders everything as one sorted, JSON-ready dict -- the same run
always snapshots to the same bytes.

A distribution is a :class:`~repro.obs.timeseries.QuantileSketch`, the
summary a window frame's ``latency`` carries, so every percentile one
capture reports follows one definition.  Counters support *labeled
children* (one child per wire kind, ...) which roll up into the parent
automatically.
"""

from __future__ import annotations

from repro.obs.spans import ObservabilityError
from repro.obs.timeseries import QuantileSketch


class Counter:
    """Monotonic count with optional labeled children.

    ``child(label)`` returns a sub-counter whose increments also bump
    the parent, so ``net.messages_sent`` stays the total while its
    ``pbft.prepare`` child tracks one kind.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._children: dict[str, Counter] = {}
        self._parent: Counter | None = None

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1) to this counter and its ancestors."""
        if amount < 0:
            raise ObservabilityError(f"counter {self.name}: negative increment {amount}")
        self.value += amount
        if self._parent is not None:
            self._parent.inc(amount)

    def child(self, label: str) -> "Counter":
        """Get-or-create the sub-counter for *label*."""
        got = self._children.get(label)
        if got is None:
            got = Counter(f"{self.name}[{label}]")
            got._parent = self
            self._children[label] = got
        return got

    def snapshot(self) -> dict:
        """JSON-ready state: total plus per-child values, keys sorted."""
        out: dict = {"total": self.value}
        if self._children:
            out["children"] = {
                label: self._children[label].value
                for label in sorted(self._children)
            }
        return out


class Gauge:
    """A point-in-time value (sim clock, pending events, mempool depth)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value, replacing the previous one."""
        self.value = value

    def snapshot(self) -> dict:
        """JSON-ready state: the last value set."""
        return {"value": self.value}


class Registry:
    """Named instrument store with typed get-or-create accessors.

    Asking for an existing name with a different instrument kind
    raises: silent redefinition would split a metric across two
    objects.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._sketches: dict[str, QuantileSketch] = {}

    def _check_free(self, name: str, own: dict) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("sketch", self._sketches),
        ):
            if table is not own and name in table:
                raise ObservabilityError(f"instrument {name!r} already exists as a {kind}")

    def counter(self, name: str) -> Counter:
        """Get-or-create the counter called *name*."""
        got = self._counters.get(name)
        if got is None:
            self._check_free(name, self._counters)
            got = Counter(name)
            self._counters[name] = got
        return got

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the gauge called *name*."""
        got = self._gauges.get(name)
        if got is None:
            self._check_free(name, self._gauges)
            got = Gauge(name)
            self._gauges[name] = got
        return got

    def sketch(self, name: str) -> QuantileSketch:
        """Get-or-create the quantile sketch called *name*."""
        got = self._sketches.get(name)
        if got is None:
            self._check_free(name, self._sketches)
            got = QuantileSketch()
            self._sketches[name] = got
        return got

    def snapshot(self) -> dict:
        """Deterministic JSON-ready dump of every instrument.

        Keys are sorted at every level, so the same run always
        snapshots to the same bytes.  A sketch appears once it holds an
        observation, as a frame's ``latency`` summary.
        """
        return {
            "counters": {
                name: self._counters[name].snapshot()
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].snapshot() for name in sorted(self._gauges)
            },
            "sketches": {
                name: self._sketches[name].summary()
                for name in sorted(self._sketches) if self._sketches[name].count
            },
        }
