"""GPB001 fixture, transitive arm: a wall-clock read hiding one helper deep.

The helper's direct read carries an inline GPB001 allow (it still seeds
taint), so the *transitive* reach from the handler is the only planted
violation.
"""

import time


def _stamp_now():
    return time.time()  # gpb: allow GPB001 -- the transitive reach below is the planted violation


def handle_heartbeat(sim):
    return _stamp_now() - sim.now  # PLANT: GPB001
