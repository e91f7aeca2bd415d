"""Tests: the generated ``pack`` and ``unpack`` of every record in the
layout table refuse what the checks promise, with the messages the
codec has always given.

``test_codec.py`` checks two layouts by hand; this module walks every
``layout``, ``item`` and ``tail`` of ``WIRE_MESSAGES``, so a check the
generator drops for one field or one run of padding fails here by name.
"""

import re
import struct

import pytest

from repro.codec.primitives import Record
from repro.common.errors import ValidationError
from repro.common.wire_layout import WIRE_MESSAGES

#: (kind, part) of every non-empty record in the table.
PARTS = [(kind, part) for kind, entry in sorted(WIRE_MESSAGES.items())
         for part in ("layout", "item", "tail") if entry.get(part)]

_ZERO = {"I": 0, "B": 0, "d": 0.0}


def _fields(kind, part):
    """``(code, width, offset)`` of every field and run of padding of
    *kind*'s *part*, in order."""
    offset = 0
    for count, code in re.findall(r"(\d*)([a-zA-Z?])",
                                  WIRE_MESSAGES[kind][part]):
        width = struct.calcsize(">" + count + code)
        if code in "sx":
            yield code, width, offset
        else:
            yield from ((code, width // int(count or 1),
                         offset + i * width // int(count or 1))
                        for i in range(int(count or 1)))
        offset += width


def _values(kind, part):
    """Zero values for every packed field of *kind*'s *part*."""
    return [bytes(width) if code == "s" else _ZERO[code]
            for code, width, _ in _fields(kind, part) if code != "x"]


@pytest.mark.parametrize("kind, part", PARTS)
def test_zero_values_round_trip(kind, part):
    record = Record(kind, part)
    values = _values(kind, part)
    data = record.pack(*values)
    assert len(data) == record.size
    assert list(record.unpack(data)) == values
    assert list(record.unpack_head(data + b"\x07")[0]) == values
    assert record.unpack_each(data * 3) == [tuple(values)] * 3


@pytest.mark.parametrize("kind, part", PARTS)
def test_every_raw_field_must_have_its_width(kind, part):
    record = Record(kind, part)
    values = _values(kind, part)
    raw = [(index, len(value)) for index, value in enumerate(values)
           if isinstance(value, bytes)]
    for index, width in raw:
        for wrong in (width - 1, width + 1):
            bad = list(values)
            bad[index] = bytes(wrong)
            with pytest.raises(ValidationError) as refused:
                record.pack(*bad)
            assert str(refused.value) == (
                f"{kind} {part}: raw field expected {width} bytes, "
                f"got {wrong}")


@pytest.mark.parametrize("kind, part", PARTS)
def test_every_run_of_padding_must_be_zeroes(kind, part):
    record = Record(kind, part)
    data = record.pack(*_values(kind, part))
    pads = [(width, offset) for code, width, offset in _fields(kind, part)
            if code == "x"]
    for width, offset in pads:
        for byte in (offset, offset + width - 1):
            bad = bytearray(data)
            bad[byte] = 1
            expected = (f"{kind} {part}: nonzero padding at bytes "
                        f"{offset}-{offset + width - 1}")
            for read in (record.unpack, record.unpack_head,
                         lambda frame: record.unpack_each(data + frame)):
                with pytest.raises(ValidationError) as refused:
                    read(bytes(bad))
                assert str(refused.value) == expected


@pytest.mark.parametrize("kind, part", PARTS)
def test_a_wrong_length_is_refused_by_name(kind, part):
    record = Record(kind, part)
    data = record.pack(*_values(kind, part))
    for frame in (data[:-1], data + b"\x00", b""):
        with pytest.raises(ValidationError) as refused:
            record.unpack(frame)
        assert str(refused.value) == (f"{kind} {part}: need exactly "
                                      f"{record.size} bytes, got {len(frame)}")
        assert refused.value.__cause__ is None


def test_an_out_of_range_integer_is_refused_with_structs_reason():
    record = Record("pbft.prepare")
    with pytest.raises(ValidationError) as refused:
        record.pack(2**32, 0, 0, bytes(32), bytes(64))
    assert str(refused.value).startswith("pbft.prepare layout: ")
    assert isinstance(refused.value.__cause__, struct.error)


def test_a_wrong_number_of_values_is_a_type_error():
    # pack takes the layout's own arity: a missing or extra value is a
    # bug in the encoder, refused by the call itself
    record = Record("pbft.prepare")
    with pytest.raises(TypeError):
        record.pack(0, 0, 0, bytes(32))
    with pytest.raises(TypeError):
        record.pack(0, 0, 0, bytes(32), bytes(64), 0)


def test_the_rest_after_a_head_is_a_view():
    record = Record("pbft.request")
    data = record.pack(1, 0.5, bytes(64)) + b"op"
    fields, rest = record.unpack_head(data)
    assert fields == (1, 0.5, bytes(64))
    assert type(rest) is memoryview and rest == b"op"
    assert record.unpack_head(memoryview(data))[1] == b"op"
