"""Planted violation: GPB006 (codec registry without a live handler).

The registry below names a handler that does not exist in
``gpb006_handlers.py`` -- the analyzer must flag exactly that entry.
The codec half (encoder/decoder) resolves fine and the layout is a valid
``struct`` format, so that is the only finding.
"""

WIRE_MESSAGES = {
    "test.ping": {  # PLANT: GPB006 -- names handler "on_ping", no such def
        "layout": "I",
        "encoder": "encode_ping",
        "decoder": "decode_ping",
        "codec_module": "fixtures/analysis/gpb006_handlers.py",
        "handler_module": "fixtures/analysis/gpb006_handlers.py",
        "handler": "on_ping",
    },
}
