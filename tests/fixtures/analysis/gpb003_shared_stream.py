"""GPB003 fixture, shared-stream arm: one forked stream drained by
unordered consumers.

The loop's own unordered iteration carries an inline allow, so the
stream handed to every consumer inside it is the only planted violation.
"""


def _draw_arrival(worker, stream):
    return worker, stream.random()


def fan_out(rng, workers):
    stream = rng.fork("arrivals")
    results = []
    for worker in workers.values():  # gpb: allow GPB003 -- the shared-stream hazard below is the planted violation
        results.append(_draw_arrival(worker, stream))  # PLANT: GPB003
    return results
