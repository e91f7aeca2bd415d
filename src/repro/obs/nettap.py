"""Single shared tap on the simulated network's send path.

Both the message tracer (:mod:`repro.net.tracer`) and the
observability counters need to see every send.  Rather than each
wrapping ``network.send`` -- stacking monkeypatches whose detach order
matters -- a :class:`NetworkTap` wraps it exactly once and fans out to
subscribers.  :func:`tap_network` is the get-or-create entry point;
the tap uninstalls itself when its last subscriber leaves.

Wrapping ``send`` is enough to see broadcasts too: while ``send`` is
replaced on a network, its ``multicast`` hands every copy to the
replacement one by one, in destination order, so subscribers get one
``(at, src, dst, kind, size)`` call per copy and the run draws the same
delays and fires the same events as the untapped, batched one.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net.network import SimulatedNetwork

#: Subscriber signature: ``fn(at, src, dst, kind, size_bytes)``, where
#: ``size_bytes`` is the on-wire size (payload plus envelope overhead).
TapFn = Callable[[float, int, int, str, int], None]


class NetworkTap:
    """Wraps one network's ``send`` and fans each send out to subscribers.

    Subscribers run in subscription order, before the real send, and
    must not raise (a raising subscriber aborts the simulation step,
    which is the desired loud failure for instrumentation bugs).
    """

    def __init__(self, network: SimulatedNetwork) -> None:
        self._network = network
        self._original_send: Callable[..., Any] = network.send
        self._subscribers: list[TapFn] = []
        # NetworkConfig is frozen, so the overhead can be read once
        self._overhead_bytes = network.config.envelope_overhead_bytes
        network.send = self._tapped_send  # type: ignore[method-assign]

    def _tapped_send(self, src: int, dst: int, payload: Any) -> None:
        at = self._network.sim.now
        kind = getattr(payload, "kind", "?")
        # the charged size, as TrafficStats.on_send counts it
        size = getattr(payload, "size_bytes", 0) + self._overhead_bytes
        for fn in self._subscribers:
            fn(at, src, dst, kind, size)
        self._original_send(src, dst, payload)

    def subscribe(self, fn: TapFn) -> None:
        """Add *fn* to the fan-out list."""
        self._subscribers.append(fn)

    def unsubscribe(self, fn: TapFn) -> None:
        """Remove *fn* (idempotent); uninstalls the tap when empty."""
        if fn in self._subscribers:
            self._subscribers.remove(fn)
        if not self._subscribers:
            self.detach()

    def detach(self) -> None:
        """Restore the network's original send path and unregister."""
        if getattr(self._network, "_obs_tap", None) is self:
            self._network.send = self._original_send  # type: ignore[method-assign]
            self._network._obs_tap = None  # type: ignore[attr-defined]

    @property
    def subscriber_count(self) -> int:
        """How many subscribers the tap currently fans out to."""
        return len(self._subscribers)


def tap_network(network: SimulatedNetwork) -> NetworkTap:
    """Get-or-create the single :class:`NetworkTap` for *network*."""
    tap = getattr(network, "_obs_tap", None)
    if tap is None:
        tap = NetworkTap(network)
        network._obs_tap = tap  # type: ignore[attr-defined]
    return tap
