"""Planted violations: GPB006 (codec registry entries that cannot work).

The first entry names a handler that does not exist in
``gpb006_handlers.py`` (its codec half resolves fine and its layout is
a valid ``struct`` format); the second is a pure data layout whose
``layout`` is not a ``struct`` format.  Each entry carries exactly one
finding, anchored at its key.
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
    "test.blob": {  # PLANT: GPB006 -- layout "I3" is not a struct format
        "layout": "I3",
        "encoder": "",
        "decoder": "",
        "codec_module": "",
        "handler_module": "",
        "handler": "",
    },
}
