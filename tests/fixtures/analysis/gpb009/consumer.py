"""Planted violation: GPB009 (raw event-kind literal outside eventlog).

The committed-transaction kind is defined as ``EV_TX_COMMITTED`` in the
sibling ``eventlog.py``; spelling the string by hand here re-creates
the vocabulary in a second place, which is exactly what the rule
forbids.  The ``kind = ...`` class attribute below is the exempted
wire-kind declaration shape, and ``tx.gossip`` is a wire kind of the
sibling ``wire_layout.py``; both must stay silent.
"""


class CommitMessage:
    """A message class whose wire kind doubles as an event kind."""

    kind = "tx.committed"  # exempt: message-class wire-kind declaration


def is_gossip(kind: str) -> bool:
    """A wire kind keyed in the sibling ``WIRE_MESSAGES`` (silent)."""
    return kind == "tx.gossip"


def count_commits(events) -> int:
    """Count committed transactions (with the forbidden raw literal)."""
    return sum(1 for e in events if e.kind == "tx.committed")  # PLANT: GPB009 -- raw event-kind literal
