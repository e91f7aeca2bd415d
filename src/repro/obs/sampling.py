"""Deterministic head sampling keyed by a stable hash of the request id.

A million-request run cannot buffer a span per request, but thinning
the trace with a *random* coin would make every capture different.
Head sampling instead derives the keep/drop decision from the request
id itself: ``sample_key(rid)`` maps the id through SHA-256 onto a
uniform point in ``[0, 1)``, and the request is traced iff that point
falls below the configured rate, ``sample_key(rid) < rate``.  The
decision is therefore

* **stable across call sites** -- every replica and the client agree
  on whether ``rid`` is sampled without sharing any state, so a kept
  request is traced end-to-end at full span fidelity;
* **reproducible across runs** -- two seeded runs trace the exact
  same subset, which keeps span exports byte-comparable;
* **unbiased** -- SHA-256 output is uniform over ids, so a rate of
  1/1000 keeps ~1/1000 of any id population, whatever its shape.

Python's builtin ``hash()`` is deliberately *not* used: it is salted
per process (PYTHONHASHSEED), which would break reproducibility.
"""

from __future__ import annotations

import hashlib

#: 2**64, the denominator mapping an 8-byte digest prefix onto [0, 1).
_KEY_SPACE = float(1 << 64)


def sample_key(rid: str) -> float:
    """Map *rid* onto a stable, uniform point in ``[0, 1)``.

    The first 8 bytes of ``SHA-256(rid)`` read big-endian, divided by
    ``2**64``.  Pure function of the id: no process salt, no state.
    """
    digest = hashlib.sha256(rid.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / _KEY_SPACE

