"""Discrete-event network simulation substrate.

The paper evaluated G-PBFT on a cluster of real servers; this package is
the substitution documented in DESIGN.md: a deterministic discrete-event
simulator whose node model matches the paper's own analytical model
(section IV-B) -- each node receives and processes *s* messages per
second, serially.  Consensus latency therefore scales as O(n/s) per PBFT
phase, and traffic is accounted byte-by-byte per message, which is what
Figures 3-6 and Table III measure.

Modules:

* :mod:`repro.net.simulator` -- the event loop (priority queue of timed
  callbacks, cancellable handles);
* :mod:`repro.net.message` -- the size-accounted payload protocol;
* :mod:`repro.net.latency` -- pluggable propagation-delay models;
* :mod:`repro.net.network` -- the network itself: interfaces, unicast,
  multicast, faults (offline nodes, partitions, drops), serial
  receive-queues of envelopes in flight and payloads arrived; each
  delivered payload is handed to its handler, ``handler(payload)``;
* :mod:`repro.net.stats` -- per-node / per-kind traffic accounting, the
  one record of what was sent, dropped and delivered.
"""
