"""Simulated cryptographic primitives.

The paper's threat model (section III-A) assumes public-key primitives
that adversaries cannot break: signatures cannot be forged and messages
signed by others cannot be tampered with.  For a closed simulation we do
not need real elliptic-curve cryptography -- we need a scheme with the
*same interface and security semantics inside the simulation*:

* every node owns a :class:`~repro.crypto.keys.KeyPair`;
* :meth:`~repro.crypto.keys.PrivateKey.sign` produces a deterministic
  HMAC-SHA256 tag over the message bytes;
* verification succeeds only with the matching public key, because the
  public key commits to the HMAC secret through a registry lookup that
  simulated adversaries cannot read.

Signature and digest byte sizes mirror Ed25519/SHA-256 (64 B and 32 B) so
that communication-cost accounting stays realistic.
"""
