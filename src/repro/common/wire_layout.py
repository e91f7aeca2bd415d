"""Declarative table of every wire message: layout, codec and handler.

Each entry maps a message kind (the ``kind`` string the dispatchers
switch on) to the byte layout of its frame, its codec functions and,
when the message is dispatched at runtime, the module and callable that
handles it.  Two readers share it: :mod:`repro.codec.wire` packs and
unpacks every frame with records built from the layout strings, and
the message modules compute the fixed part of each ``size_bytes`` from
the same strings, so a layout and the bytes charged for it cannot
disagree.  ``tests/test_codec.py`` holds every layout, encoder, decoder
and handler the table names to what the code defines.  The table sits
in ``repro.common`` (and
is re-exported by :mod:`repro.codec.registry`) because ``repro.codec``
imports the message modules, which must read it without importing
``repro.codec`` back.

Layout fields are :mod:`struct` formats, packed big-endian without
alignment (``I`` u32, ``B`` u8, ``d`` IEEE-754 double, ``Ns`` N raw
bytes, ``Nx`` N zero bytes of padding); ``docs/protocol.md`` names the
fields and what follows each record:

* ``layout`` -- the fixed record the frame starts with (empty when the
  frame is only a sequence of other kinds' frames);
* ``item`` -- only where fixed-size items follow the head, as many as a
  count in the head says: the layout of one item;
* ``tail`` -- only where a fixed record closes the frame after its
  variable-length part: the layout of that record.

Codec and handler fields (empty string means "not applicable"):

* ``encoder`` / ``decoder`` -- function names in ``codec_module``.
  View-change and new-view messages are encode-only today (the
  simulation never re-parses them; their byte layout backs the traffic
  accounting), so their ``decoder`` is empty.
* ``codec_module`` -- repo-relative path suffix of the codec module.
* ``handler_module`` / ``handler`` -- where the runtime consumes the
  message.  Data layouts that are embedded in other messages rather
  than dispatched by kind (transactions, blocks, era-switch payloads)
  carry an empty handler.

The dict is a *pure literal* (``tests/test_codec.py`` parses it with
``ast.literal_eval``), so the wire vocabulary can be read without
importing the package.
"""

from __future__ import annotations

import struct

#: Wire-kind -> layout + codec/handler wiring (checked by tests/test_codec.py).
WIRE_MESSAGES: dict[str, dict[str, str]] = {
    "pbft.request": {
        "layout": "Id64s",
        "encoder": "encode_request",
        "decoder": "decode_request",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "repro/pbft/replica.py",
        "handler": "on_request",
    },
    "pbft.pre_prepare": {
        "layout": "III32s64s",
        "encoder": "encode_pre_prepare",
        "decoder": "decode_pre_prepare",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "repro/pbft/replica.py",
        "handler": "on_pre_prepare",
    },
    "pbft.prepare": {
        "layout": "III32s64s",
        "encoder": "encode_prepare",
        "decoder": "decode_prepare",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "repro/pbft/replica.py",
        "handler": "receive",
    },
    "pbft.commit": {
        "layout": "III32s64s",
        "encoder": "encode_commit",
        "decoder": "decode_commit",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "repro/pbft/replica.py",
        "handler": "receive",
    },
    "pbft.checkpoint": {
        "layout": "II32s64s",
        "encoder": "encode_checkpoint",
        "decoder": "decode_checkpoint",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "repro/pbft/replica.py",
        "handler": "on_checkpoint",
    },
    "pbft.reply": {
        "layout": "IIId32s64s",
        "encoder": "encode_reply",
        "decoder": "decode_reply",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "repro/pbft/client.py",
        "handler": "on_reply",
    },
    "pbft.view_change": {
        "layout": "IIII64s",
        "encoder": "encode_view_change",
        "decoder": "",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "repro/pbft/replica.py",
        "handler": "on_view_change",
    },
    "pbft.new_view": {
        "layout": "IIII64s",
        "item": "I64x",
        "encoder": "encode_new_view",
        "decoder": "",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "repro/pbft/replica.py",
        "handler": "on_new_view",
    },
    "geo.report": {
        "layout": "I4xddd",
        "encoder": "encode_geo_report",
        "decoder": "decode_geo_report",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "repro/core/node.py",
        "handler": "_on_geo_report",
    },
    # data layouts: embedded in other messages, never dispatched by kind
    "chain.transaction": {
        "layout": "BIIdIIB14x",
        "tail": "32s64s",
        "encoder": "encode_transaction",
        "decoder": "decode_transaction",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "",
        "handler": "",
    },
    "chain.block": {
        "layout": "",
        "encoder": "encode_block",
        "decoder": "decode_block",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "",
        "handler": "",
    },
    "chain.block_header": {
        "layout": "IIIII20xd32s32s64s",
        "encoder": "encode_block_header",
        "decoder": "decode_block_header",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "",
        "handler": "",
    },
    "gpbft.era_switch": {
        "layout": "IIII",
        "item": "I",
        "encoder": "encode_era_switch",
        "decoder": "decode_era_switch",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "",
        "handler": "",
    },
    "gpbft.xzone_tx": {
        "layout": "II",
        "tail": "64s",
        "encoder": "encode_xzone_tx",
        "decoder": "decode_xzone_tx",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "repro/core/hierarchy.py",
        "handler": "_on_xzone_tx",
    },
    "gpbft.zone_checkpoint": {
        "layout": "IIIII32s",
        "encoder": "encode_zone_checkpoint",
        "decoder": "decode_zone_checkpoint",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "repro/core/hierarchy.py",
        "handler": "_on_zone_checkpoint",
    },
    "pbft.prepared_proof": {
        "layout": "III32s",
        "encoder": "encode_prepared_proof",
        "decoder": "",
        "codec_module": "repro/codec/wire.py",
        "handler_module": "",
        "handler": "",
    },
}


def wire_struct(kind: str, part: str = "layout") -> struct.Struct:
    """The compiled big-endian, unpadded form of *kind*'s ``layout``
    (or, as *part*, its ``item`` or ``tail``)."""
    return struct.Struct(">" + WIRE_MESSAGES[kind][part])
