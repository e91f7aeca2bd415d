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

#: Upper bound on interned verification results; the cache is cleared
#: wholesale at the bound (simple, and re-verification is always safe).
_VERIFY_CACHE_MAX = 65536

# Interned verification outcomes keyed by (public key bytes, message
# digest, signature bytes).  Verification is a pure function of that
# triple once the key pair exists, so a committee re-checking the same
# signed message pays the two HMAC rounds only once.  Unknown keys are
# never cached: registering the pair later must flip the answer.
_VERIFY_CACHE: dict[tuple[bytes, bytes, bytes], bool] = {}


@dataclass(frozen=True, slots=True)
class Signature:
    """A 64-byte signature tag over a message."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != SIGNATURE_BYTES:
            raise CryptoError(
                f"signature must be {SIGNATURE_BYTES} bytes, got {len(self.value)}"
            )

    @property
    def size_bytes(self) -> int:
        """Serialized size used in communication-cost accounting."""
        return SIGNATURE_BYTES


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
        Results for known keys are interned in a bounded module cache
        keyed by (public key, message digest, signature), so quorums
        re-verifying one broadcast message hash it once and skip the
        HMAC recomputation afterwards.
        """
        if not isinstance(message, (bytes, bytearray, memoryview)):
            raise TypeError("message must be bytes")
        secret = _SECRET_REGISTRY.get(self.value)
        if secret is None:
            return False
        key = (self.value, hashlib.sha256(message).digest(), signature.value)
        cached = _VERIFY_CACHE.get(key)
        if cached is not None:
            return cached
        expected = _compute_tag(secret, bytes(message))
        ok = hmac.compare_digest(expected, signature.value)
        if len(_VERIFY_CACHE) >= _VERIFY_CACHE_MAX:
            _VERIFY_CACHE.clear()
        _VERIFY_CACHE[key] = ok
        return ok

    @property
    def size_bytes(self) -> int:
        """Serialized size used in communication-cost accounting."""
        return PUBLIC_KEY_BYTES

    def hex(self) -> str:
        """Lowercase hex rendering (used in addresses and logs)."""
        return self.value.hex()


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
        return f"PrivateKey(public={self._public.hex()[:12]}...)"


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
    def generate(cls, node_id: int, domain: bytes = b"gpbft") -> "KeyPair":
        """Deterministically derive the key pair for *node_id*.

        Determinism keeps experiment runs reproducible: the same seed and
        topology always produce byte-identical traffic.
        """
        if node_id < 0:
            raise CryptoError("node_id must be non-negative")
        secret = hashlib.sha256(domain + b":sk:" + str(node_id).encode()).digest()
        private = PrivateKey(secret)
        return cls(private=private, public=private.public_key)

    def sign(self, message: bytes) -> Signature:
        """Shorthand for ``self.private.sign``."""
        return self.private.sign(message)

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Shorthand for ``self.public.verify``."""
        return self.public.verify(message, signature)
