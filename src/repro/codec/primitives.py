"""Binary primitive: one checked fixed-size record.

Every frame the codec lays out starts with (and often *is*) a fixed
record whose :mod:`struct` format comes from the shared layout table.
:class:`Record` wraps the compiled format with the checks ``struct``
itself does not make, so codec bugs and malformed frames surface as
:class:`~repro.common.errors.ValidationError` rather than as silent
misparses: ``struct`` pads or truncates a wrong-length ``Ns`` field
without complaint, skips ``x`` padding without reading it, and reports
every other problem as a bare ``struct.error``.

Every frame passes through a record, so each record generates its
``pack`` and ``unpack`` once, as :mod:`dataclasses` generates
``__init__``: one Python call each, with the raw-width and padding
checks unrolled and ``struct``'s own size check translated, where a
generic method paid a star-args call and a loop.  ``pack`` takes the
layout's arity, so a wrong number of values is a ``TypeError`` (an
encoder bug, never malformed input), not a ``ValidationError``.
:meth:`Record.unpack_head` returns the rest as a ``memoryview``: a
decoder reads a run of embedded frames without copying the buffer once
per frame, and converts any view it returns to ``bytes``.
"""

from __future__ import annotations

import re
import struct
from typing import Any, Callable

from repro.common.errors import ValidationError
from repro.common.wire_layout import wire_struct

#: One format code with its optional repeat count, e.g. ``32s`` or ``I``.
_CODE = re.compile(r"(\d*)([a-zA-Z?])")


class Record:
    """One layout of a wire kind: pack, exact unpack, head unpack, and
    unpack of a run of records.

    Attributes:
        size: the record's length in bytes.
        pack: ``pack(*values)``, the record's bytes; integers must fit
            their field and raw fields must have exactly their width.
        unpack: ``unpack(data)``, the fields of a buffer that is exactly
            one record long.
    """

    pack: Callable[..., bytes]
    unpack: Callable[[bytes | memoryview], tuple[Any, ...]]

    def __init__(self, kind: str, part: str = "layout") -> None:
        self._struct = wire_struct(kind, part)
        self._name = f"{kind} {part}"
        self.size = self._struct.size
        # one check per raw-bytes field (its width) and per run of
        # padding bytes (zeroes), in the layout's order
        raw: list[str] = []
        pads: list[str] = []
        position = offset = 0
        for count, code in _CODE.findall(self._struct.format):
            width = struct.calcsize(">" + count + code)
            if code == "x":
                pads += [f"    if data[base + {offset}:base + {offset + width}]"
                         f" != {bytes(width)!r}:",
                         "        raise ValidationError(f'{name}: nonzero "
                         f"padding at bytes {offset}-{offset + width - 1}')"]
            elif code == "s":
                raw += [f"    if len(v{position}) != {width}:",
                        "        raise ValidationError(f'{name}: raw field "
                        f"expected {width} bytes, got {{len(v{position})}}')"]
                position += 1
            else:
                position += int(count or 1)
            offset += width
        values = ", ".join(f"v{i}" for i in range(position))
        source = [
            f"def pack({values}):",
            "    try:",
            f"        data = struct_pack({values})",
            "    except struct_error as exc:",
            "        raise ValidationError(f'{name}: {exc}') from exc",
            *raw,
            "    return data",
            *(["def check_pads(data, base=0):", *pads] if pads else []),
            "def unpack(data):",
            "    try:",
            "        values = struct_unpack(data)",
            "    except struct_error:",
            "        raise ValidationError(f'{name}: need exactly {size} bytes,"
            " got {len(data)}') from None",
            *(["    check_pads(data)"] if pads else []),
            "    return values",
        ]
        namespace: dict[str, Any] = {"struct_pack": self._struct.pack,
                                     "struct_unpack": self._struct.unpack,
                                     "struct_error": struct.error,
                                     "ValidationError": ValidationError,
                                     "name": self._name, "size": self.size}
        exec(compile("\n".join(source), f"<{self._name} record>", "exec"),
             namespace)
        self.pack = namespace["pack"]
        self.unpack = namespace["unpack"]
        # None for a layout without padding
        self._check_pads = namespace.get("check_pads")

    def unpack_head(self, data: bytes | memoryview
                    ) -> tuple[tuple[Any, ...], memoryview]:
        """The fields of the record *data* starts with, and a view of
        the rest."""
        if len(data) < self.size:
            raise ValidationError(f"{self._name}: truncated, need {self.size} "
                                  f"bytes, have {len(data)}")
        if self._check_pads is not None:
            self._check_pads(data)
        return self._struct.unpack_from(data), memoryview(data)[self.size:]

    def unpack_each(self, data: bytes | memoryview) -> list[tuple[Any, ...]]:
        """The fields of every record in a buffer that holds a whole
        number of them and nothing else."""
        if len(data) % self.size:
            raise ValidationError(f"{self._name}: {len(data)} bytes is not a "
                                  f"whole number of {self.size}-byte records")
        if self._check_pads is not None:
            for base in range(0, len(data), self.size):
                self._check_pads(data, base)
        return list(self._struct.iter_unpack(data))
