"""Fixture wire table for GPB009: its keys are a vocabulary of their own.

``tx.gossip`` is no ``EV_*`` constant; ``consumer.py`` spells it and
must stay silent, because GPB009 also reads the keys of any
``WIRE_MESSAGES`` literal.
"""

WIRE_MESSAGES = {
    "tx.gossip": {"layout": "I"},
}
