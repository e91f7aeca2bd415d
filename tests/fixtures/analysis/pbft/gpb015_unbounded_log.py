"""GPB015 fixture, protocol-class scope: unbounded collection growth in
a ``pbft`` class.

``EvidenceLog._seen`` grows per handled message, and
``CommitWatcher.seen`` grows per event through a private subscriber
that is registered with ``events.subscribe`` rather than named like a
handler.  Neither class has a prune, cap, or capacity guard for its
list anywhere.
"""


class EvidenceLog:
    def __init__(self):
        self._seen = []

    def note(self, item):
        self._seen.append(item)  # PLANT: GPB015


class Handler:
    def __init__(self, log):
        self._log = log

    def on_ping(self, msg):
        self._log.note(msg)


class CommitWatcher:
    def __init__(self, events):
        self.seen = []
        events.subscribe(self._on_event)

    def _on_event(self, event):
        self.seen.append(event.tx_id)  # PLANT: GPB015
