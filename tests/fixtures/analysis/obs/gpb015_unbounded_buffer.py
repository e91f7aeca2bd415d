"""GPB015 fixture, observability scope: unbounded growth inside an
observability class.

This file lives under an ``obs`` path segment, which puts every method
of its classes in the rule's scope.  ``FrameBuffer._frames`` is a plain
list grown per frame with no prune, cap, or ring anywhere in its class
-- the planted violation.  The ring attribute (``deque(maxlen=...)``)
and the drained spill list show the two sanctioned shapes and must stay
silent.
"""

from collections import deque


class FrameBuffer:
    def __init__(self):
        self._frames = []
        self._ring = deque(maxlen=16)
        self._spill = []

    def push(self, frame):
        self._frames.append(frame)  # PLANT: GPB015
        self._ring.append(frame)

    def spill(self, frame):
        self._spill.append(frame)

    def drain(self):
        drained = list(self._spill)
        self._spill = []
        return drained
