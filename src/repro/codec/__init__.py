"""Wire serialization: the byte layouts behind the size accounting.

Every experiment in this repository charges traffic through each
message's ``size_bytes`` property.  This package makes those numbers
*verified* rather than asserted: each protocol message has an actual
binary encoding, and the test suite proves
``len(encode(msg)) == msg.size_bytes`` for every type, plus full
decode(encode(x)) == x round-trips.

Layout conventions (per-kind table in docs/protocol.md, section 10):

* integers -- 4-byte big-endian unsigned;
* timestamps / fees -- 8-byte IEEE-754 doubles;
* digests -- 32 raw bytes; signatures -- 64 raw bytes;
* geographic info -- two 8-byte doubles (lng, lat), an 8-byte timestamp
  and a 4-byte node id padded to the 32-byte report record;
* variable payloads -- opaque byte strings whose length is carried in
  the enclosing fixed header.
"""

from repro.codec.wire import (
    decode_block,
    decode_block_header,
    decode_commit,
    decode_era_switch,
    decode_geo_report,
    decode_prepare,
    decode_pre_prepare,
    decode_reply,
    decode_checkpoint,
    decode_request,
    decode_transaction,
    decode_xzone_tx,
    decode_zone_checkpoint,
    encode_block,
    encode_block_header,
    encode_commit,
    encode_era_switch,
    encode_geo_report,
    encode_prepared_proof,
    encode_view_change,
    encode_prepare,
    encode_pre_prepare,
    encode_reply,
    encode_checkpoint,
    encode_request,
    encode_transaction,
    encode_xzone_tx,
    encode_zone_checkpoint,
)

__all__ = [
    "encode_prepare",
    "decode_prepare",
    "encode_commit",
    "decode_commit",
    "encode_pre_prepare",
    "decode_pre_prepare",
    "encode_reply",
    "decode_reply",
    "encode_checkpoint",
    "decode_checkpoint",
    "encode_request",
    "decode_request",
    "encode_geo_report",
    "decode_geo_report",
    "encode_transaction",
    "decode_transaction",
    "encode_block",
    "decode_block",
    "encode_block_header",
    "decode_block_header",
    "encode_era_switch",
    "decode_era_switch",
    "encode_xzone_tx",
    "decode_xzone_tx",
    "encode_zone_checkpoint",
    "decode_zone_checkpoint",
    "encode_view_change",
    "encode_prepared_proof",
]
