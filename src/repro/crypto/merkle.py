"""Merkle trees for block transaction roots.

Blocks commit to their transaction list through a binary merkle tree --
the standard blockchain construction the paper's prototype inherits from
its substrate.

Leaves are hashed with a ``0x00`` prefix and interior nodes with ``0x01``
to rule out second-preimage attacks that conflate a leaf with a node.
Odd levels duplicate the final element (Bitcoin-style).
"""

from __future__ import annotations

from repro.crypto.hashing import sha256
from repro.common.errors import CryptoError

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

#: Root value of an empty tree: hash of the empty string under the leaf tag.
EMPTY_ROOT = sha256(_LEAF_PREFIX)


def _hash_leaf(data: bytes) -> bytes:
    return sha256(_LEAF_PREFIX + data)


def _hash_node(left: bytes, right: bytes) -> bytes:
    return sha256(_NODE_PREFIX + left + right)


class MerkleTree:
    """Binary merkle tree over an ordered list of byte strings."""

    def __init__(self, leaves: list[bytes]) -> None:
        for leaf in leaves:
            if not isinstance(leaf, (bytes, bytearray)):
                raise CryptoError("merkle leaves must be bytes")
        level = [_hash_leaf(bytes(leaf)) for leaf in leaves] or [EMPTY_ROOT]
        while len(level) > 1:
            if len(level) % 2 == 1:
                level.append(level[-1])
            level = [_hash_node(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        self._root = level[0]

    @property
    def root(self) -> bytes:
        """Digest committing to the whole leaf list."""
        return self._root


def merkle_root(leaves: list[bytes]) -> bytes:
    """Convenience: root digest of *leaves* without keeping the tree."""
    return MerkleTree(leaves).root
