"""The wire-message table, under the name the codec's users import;
it lives in :mod:`repro.common.wire_layout`, below the message modules
that read their sizes from it."""

from repro.common.wire_layout import WIRE_MESSAGES

__all__ = ["WIRE_MESSAGES"]
