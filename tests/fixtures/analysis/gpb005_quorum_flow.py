"""GPB005 fixture, parameter-flow arm: a fault bound flowing into inline
quorum arithmetic.

The helper's parameter is not named ``f`` (so the inline arm stays
quiet), but the caller passes its ``f`` straight in -- quorum math in
disguise, visible only through the call graph.
"""

from repro.common.quorum import max_faulty


def _endorse_threshold(faults):
    return 2 * faults + 1  # PLANT: GPB005


def plan_round(committee):
    f = max_faulty(len(committee))
    return _endorse_threshold(f)
