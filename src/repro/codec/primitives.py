"""Binary primitive: one checked fixed-size record.

Every frame the codec lays out starts with (and often *is*) a fixed
record whose :mod:`struct` format comes from the shared layout table.
:class:`Record` wraps the compiled format with the checks ``struct``
itself does not make, so codec bugs and malformed frames surface as
:class:`~repro.common.errors.ValidationError` rather than as silent
misparses: ``struct`` pads or truncates a wrong-length ``Ns`` field
without complaint, skips ``x`` padding without reading it, and reports
every other problem as a bare ``struct.error``.
"""

from __future__ import annotations

import re
import struct
from typing import Any

from repro.common.errors import ValidationError
from repro.common.wire_layout import wire_struct

#: One format code with its optional repeat count, e.g. ``32s`` or ``I``.
_CODE = re.compile(r"(\d*)([a-zA-Z?])")


class Record:
    """One layout of a wire kind: pack, exact unpack, head unpack, and
    unpack of a run of records.

    Attributes:
        size: the record's length in bytes.
    """

    def __init__(self, kind: str, part: str = "layout") -> None:
        self._struct = wire_struct(kind, part)
        self._name = f"{kind} {part}"
        self.size = self._struct.size
        # (position among the packed values, width) of each raw-bytes
        # field, and (start, end, zeroes) of each run of padding bytes
        raw: list[tuple[int, int]] = []
        pads: list[tuple[int, int, bytes]] = []
        position = offset = 0
        for count, code in _CODE.findall(self._struct.format):
            width = struct.calcsize(">" + count + code)
            if code == "x":
                pads.append((offset, offset + width, bytes(width)))
            elif code == "s":
                raw.append((position, width))
                position += 1
            else:
                position += int(count or 1)
            offset += width
        self._raw = tuple(raw)
        self._pads = tuple(pads)

    def pack(self, *values: Any) -> bytes:
        """The record's bytes; integers must fit their field and raw
        fields must have exactly their width."""
        try:
            data = self._struct.pack(*values)
        except struct.error as exc:
            raise ValidationError(f"{self._name}: {exc}") from exc
        for position, width in self._raw:
            if len(values[position]) != width:
                raise ValidationError(f"{self._name}: raw field expected {width} "
                                      f"bytes, got {len(values[position])}")
        return data

    def _check_pads(self, data: bytes, base: int = 0) -> None:
        """Refuse the record at *base* unless its padding is zeroes."""
        for start, end, zeroes in self._pads:
            if data[base + start:base + end] != zeroes:
                raise ValidationError(f"{self._name}: nonzero padding at "
                                      f"bytes {start}-{end - 1}")

    def unpack(self, data: bytes) -> tuple[Any, ...]:
        """The fields of a buffer that is exactly one record long."""
        if len(data) != self.size:
            raise ValidationError(f"{self._name}: need exactly {self.size} "
                                  f"bytes, got {len(data)}")
        if self._pads:
            self._check_pads(data)
        return self._struct.unpack(data)

    def unpack_head(self, data: bytes) -> tuple[tuple[Any, ...], bytes]:
        """The fields of the record *data* starts with, and the rest."""
        if len(data) < self.size:
            raise ValidationError(f"{self._name}: truncated, need {self.size} "
                                  f"bytes, have {len(data)}")
        if self._pads:
            self._check_pads(data)
        return self._struct.unpack_from(data), data[self.size:]

    def unpack_each(self, data: bytes) -> list[tuple[Any, ...]]:
        """The fields of every record in a buffer that holds a whole
        number of them and nothing else."""
        if len(data) % self.size:
            raise ValidationError(f"{self._name}: {len(data)} bytes is not a "
                                  f"whole number of {self.size}-byte records")
        if self._pads:
            for base in range(0, len(data), self.size):
                self._check_pads(data, base)
        return list(self._struct.iter_unpack(data))
