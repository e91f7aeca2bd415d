"""GPB015 fixture, handler-chain scope: unbounded collection growth
inside a handler chain.

``Handler.on_ping`` is a handler entry; the evidence list it grows
through ``EvidenceLog.note`` has no prune, cap, or capacity guard
anywhere in its class.
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
