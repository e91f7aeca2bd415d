"""GPB009 fixture, drift arm: an event-kind literal drifting from the
vocabulary.

The fixture vocabulary (``gpb009/eventlog.py``) defines the ``tx``
family; the literal below typos a kind inside that family, so it
matches no ``EV_*`` constant.
"""


def note_commit(events, tx_id):
    events.append("tx.comitted", tx=tx_id)  # PLANT: GPB009
