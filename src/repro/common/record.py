"""Immutable tuple records with named fields.

The objects the simulator builds once per event or per protocol phase
(:class:`~repro.common.eventlog.Event`, the PBFT phase messages) are
plain tuples: construction is the tuple's own, a field read is one
``itemgetter`` call, and there is no instance dict.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, ClassVar


class TupleRecord(tuple[Any, ...]):
    """A tuple whose items are read by name.

    A subclass declares its fields as bare class annotations, in tuple
    order, and writes a ``__new__`` taking them in that order; each field
    becomes a read-only ``property(itemgetter(i))``.  A subclass that
    declares no field keeps its parent's.  The first ``_lead`` items are
    not fields (a kind tag, say): ``repr`` leaves them out, and pickle
    and copy do not pass them back to ``__new__``.
    """

    __slots__ = ()
    _fields: ClassVar[tuple[str, ...]] = ()
    _lead: ClassVar[int] = 0

    def __init_subclass__(cls) -> None:
        fields = tuple(cls.__annotations__)
        if fields:
            cls._fields = fields
            for index, name in enumerate(fields, cls._lead):
                setattr(cls, name, property(itemgetter(index)))

    def __getnewargs__(self) -> tuple[Any, ...]:
        return self[self._lead:]

    def __repr__(self) -> str:
        fields = zip(self._fields, self[self._lead:])
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in fields)})"
