"""Simulated public-key signatures with real verification semantics.

Design
------
A :class:`KeyPair` derives deterministically from a node id and a domain
seed.  The private key holds a 32-byte HMAC secret; the public key is the
SHA-256 hash of that secret.  Signing computes
``HMAC-SHA256(secret, message)`` truncated/padded to 64 bytes (matching
Ed25519's signature size for traffic accounting).

Verification recomputes the HMAC *from the public key* by checking the
signer-supplied secret commitment: the :class:`PublicKey` cannot reveal
the secret (hash pre-image), so inside the simulation an adversary that
only holds public keys cannot forge signatures -- exactly the property
the paper's threat model requires.  Verification is implemented by the
holder of the private key registering ``hash(secret) -> secret`` in a
module-private table guarded from simulated adversaries by convention:
attacker code in :mod:`repro.sybil` only manipulates protocol messages,
never this registry.

This gives honest-path correctness (``verify(sign(m)) == True``), strict
rejection of tampered messages and wrong keys, and realistic byte sizes,
without external crypto dependencies.

Every receiver of a broadcast verifies it, so verdicts for known keys
are cached by (public key, signature) beside the message bytes: a
repeat check is a dict probe and a byte comparison, no hash or HMAC.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.common.errors import CryptoError, SignatureError

#: Byte length of every signature (Ed25519-compatible for accounting).
SIGNATURE_BYTES = 64

#: Byte length of serialized public keys.
PUBLIC_KEY_BYTES = 32

# Module-private commitment registry: public-key bytes -> HMAC secret.
# Populated when key pairs are created; conceptually this models the PKI
# every PBFT deployment assumes (replicas know each other's keys).
_SECRET_REGISTRY: dict[bytes, bytes] = {}

#: Bounds on the verification cache: entries, and message bytes held
#: across them.  The cache is cleared wholesale when either would be
#: passed (simple, and re-verification is always safe); a message over
#: the byte budget is checked but never cached.
_VERIFY_CACHE_MAX = 65536
_VERIFY_CACHE_BUDGET = 16 * 1024 * 1024

# Verification outcomes: (public key bytes, signature bytes) ->
# (message bytes, verdict), the message an immutable copy so that a hit
# is a byte comparison a mutated buffer cannot pass.  Unknown keys are
# never cached: registering the pair later must flip the answer.
_VERIFY_CACHE: dict[tuple[bytes, bytes], tuple[bytes, bool]] = {}
_verify_cache_bytes = 0  # message bytes the cache holds


@dataclass(frozen=True, slots=True)
class Signature:
    """A 64-byte signature tag over a message."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != SIGNATURE_BYTES:
            raise CryptoError(
                f"signature must be {SIGNATURE_BYTES} bytes, got {len(self.value)}"
            )


@dataclass(frozen=True, slots=True)
class PublicKey:
    """Verification half of a key pair; safe to share with adversaries."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != PUBLIC_KEY_BYTES:
            raise CryptoError(
                f"public key must be {PUBLIC_KEY_BYTES} bytes, got {len(self.value)}"
            )

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Return True iff *signature* was produced over *message* by the
        private key matching this public key.

        Unknown public keys (no registered key pair) verify nothing.
        Results for known keys are cached by (public key, signature)
        together with the message bytes, so quorums re-verifying one
        broadcast message pay the HMAC once and afterwards only compare
        bytes.  Only an exact ``bytes`` message is answered from the
        cache (a ``memoryview`` compares by item format, a subclass may
        redefine ``==``): a ``bytearray`` or view is checked in full.
        """
        global _verify_cache_bytes
        key = (self.value, signature.value)
        entry = _VERIFY_CACHE.get(key)
        if entry is not None and type(message) is bytes and entry[0] == message:
            return entry[1]
        if not isinstance(message, (bytes, bytearray, memoryview)):
            raise TypeError("message must be bytes")
        secret = _SECRET_REGISTRY.get(self.value)
        if secret is None:
            return False
        message = bytes(message)
        ok = hmac.compare_digest(_compute_tag(secret, message), signature.value)
        if entry is not None:
            _verify_cache_bytes -= len(entry[0])
        size = len(message)
        if (len(_VERIFY_CACHE) >= _VERIFY_CACHE_MAX
                or _verify_cache_bytes + size > _VERIFY_CACHE_BUDGET):
            _VERIFY_CACHE.clear()
            _verify_cache_bytes = 0
        if size <= _VERIFY_CACHE_BUDGET:
            _VERIFY_CACHE[key] = (message, ok)
            _verify_cache_bytes += size
        return ok


class PrivateKey:
    """Signing half of a key pair.  Never placed inside protocol messages."""

    __slots__ = ("_secret", "_public")

    def __init__(self, secret: bytes) -> None:
        if len(secret) != 32:
            raise CryptoError(f"private key secret must be 32 bytes, got {len(secret)}")
        self._secret = secret
        self._public = PublicKey(hashlib.sha256(b"pub:" + secret).digest())
        _SECRET_REGISTRY[self._public.value] = secret

    @property
    def public_key(self) -> PublicKey:
        """The matching verification key."""
        return self._public

    def sign(self, message: bytes) -> Signature:
        """Produce a deterministic signature over *message*."""
        if not isinstance(message, (bytes, bytearray, memoryview)):
            raise TypeError("message must be bytes")
        return Signature(_compute_tag(self._secret, bytes(message)))

    def __repr__(self) -> str:  # pragma: no cover - avoid leaking secrets
        return f"PrivateKey(public={self._public.value.hex()[:12]}...)"


def _compute_tag(secret: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 expanded to SIGNATURE_BYTES via two counter rounds
    (``hmac.digest``: the one-shot C path, no HMAC object)."""
    return (hmac.digest(secret, b"\x01" + message, "sha256")
            + hmac.digest(secret, b"\x02" + message, "sha256"))


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A private/public key pair owned by one simulation participant."""

    private: PrivateKey
    public: PublicKey

    @classmethod
    def generate(cls, node_id: int) -> "KeyPair":
        """Deterministically derive the key pair for *node_id*.

        Determinism keeps experiment runs reproducible: the same seed and
        topology always produce byte-identical traffic.
        """
        if node_id < 0:
            raise CryptoError("node_id must be non-negative")
        secret = hashlib.sha256(b"gpbft:sk:" + str(node_id).encode()).digest()
        private = PrivateKey(secret)
        return cls(private=private, public=private.public_key)

    def sign(self, message: bytes) -> Signature:
        """Shorthand for ``self.private.sign``."""
        return self.private.sign(message)

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Shorthand for ``self.public.verify``."""
        return self.public.verify(message, signature)
