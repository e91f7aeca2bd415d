"""Unit tests: hashing, signatures, merkle trees, addresses (repro.crypto)."""

import pytest

from repro.common.errors import CryptoError
from repro.crypto.address import Address, address_from_public_key, contract_address
from repro.crypto.hashing import HASH_BYTES, digest_concat, sha256, sha256_hex
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, Signature, SIGNATURE_BYTES
from repro.crypto.merkle import EMPTY_ROOT, MerkleTree, merkle_root


class TestHashing:
    def test_sha256_known_vector(self):
        assert sha256_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_sha256_rejects_str(self):
        with pytest.raises(TypeError):
            sha256("text")  # type: ignore[arg-type]

    def test_digest_concat_is_injective_on_boundaries(self):
        # length prefixes must distinguish ("ab","c") from ("a","bc")
        assert digest_concat(b"ab", b"c") != digest_concat(b"a", b"bc")

    def test_digest_length(self):
        assert len(sha256(b"x")) == HASH_BYTES


class TestKeys:
    def test_sign_verify_roundtrip(self):
        kp = KeyPair.generate(1)
        sig = kp.sign(b"message")
        assert kp.verify(b"message", sig)

    def test_tampered_message_rejected(self):
        kp = KeyPair.generate(2)
        sig = kp.sign(b"message")
        assert not kp.verify(b"messagX", sig)

    def test_wrong_key_rejected(self):
        a, b = KeyPair.generate(3), KeyPair.generate(4)
        sig = a.sign(b"hello")
        assert not b.verify(b"hello", sig)

    def test_generation_is_deterministic(self):
        assert KeyPair.generate(5).public.value == KeyPair.generate(5).public.value

    def test_different_nodes_different_keys(self):
        assert KeyPair.generate(6).public.value != KeyPair.generate(7).public.value

    def test_signature_bytes_are_pinned(self):
        # two HMAC-SHA256 counter rounds under the node's derived secret;
        # any change to how a tag is computed moves this value
        sig = KeyPair.generate(3).sign(b"g-pbft tag")
        assert sig.value.hex() == (
            "220640ead23b5da0e4ab277aef8a2675719c484bc16e96d1c67809d69cac9194"
            "fd8e7d2b5e66bf8e0226482196f7c95b20694893c6729c306d512087ce6a781c")

    def test_signature_size_matches_ed25519(self):
        kp = KeyPair.generate(8)
        assert kp.sign(b"x").size_bytes == SIGNATURE_BYTES == 64

    def test_unknown_public_key_verifies_nothing(self):
        pk = PublicKey(b"\x55" * 32)
        assert not pk.verify(b"m", Signature(b"\x00" * 64))

    def test_rejects_negative_node_id(self):
        with pytest.raises(CryptoError):
            KeyPair.generate(-1)

    def test_private_key_requires_32_bytes(self):
        with pytest.raises(CryptoError):
            PrivateKey(b"short")

    def test_signature_requires_64_bytes(self):
        with pytest.raises(CryptoError):
            Signature(b"short")


class TestMerkle:
    def test_empty_tree_root(self):
        assert MerkleTree([]).root == EMPTY_ROOT

    def test_single_leaf_proof(self):
        tree = MerkleTree([b"only"])
        proof = tree.proof(0)
        assert proof.verify(b"only", tree.root)

    def test_all_proofs_verify(self):
        leaves = [f"leaf-{i}".encode() for i in range(9)]  # odd count
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert tree.proof(i).verify(leaf, tree.root)

    def test_proof_fails_for_wrong_leaf(self):
        leaves = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(leaves)
        assert not tree.proof(1).verify(b"x", tree.root)

    def test_proof_fails_for_wrong_root(self):
        tree = MerkleTree([b"a", b"b"])
        other = MerkleTree([b"a", b"c"])
        assert not tree.proof(0).verify(b"a", other.root)

    def test_root_changes_with_order(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])

    def test_proof_out_of_range(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(IndexError):
            tree.proof(1)

    def test_empty_tree_proof_raises(self):
        with pytest.raises(CryptoError):
            MerkleTree([]).proof(0)

    def test_rejects_non_bytes_leaves(self):
        with pytest.raises(CryptoError):
            MerkleTree(["str"])  # type: ignore[list-item]


class TestAddress:
    def test_derivation_is_deterministic(self):
        pk = KeyPair.generate(10).public
        assert address_from_public_key(pk) == address_from_public_key(pk)

    def test_hex_roundtrip(self):
        addr = address_from_public_key(KeyPair.generate(11).public)
        assert Address.from_hex(addr.hex()) == addr

    def test_hex_prefix(self):
        addr = address_from_public_key(KeyPair.generate(12).public)
        assert addr.hex().startswith("0x")
        assert len(addr.hex()) == 42

    def test_bad_hex_rejected(self):
        with pytest.raises(CryptoError):
            Address.from_hex("0xnothex")

    def test_wrong_length_rejected(self):
        with pytest.raises(CryptoError):
            Address(b"\x01" * 19)

    def test_contract_addresses_differ_by_nonce(self):
        owner = address_from_public_key(KeyPair.generate(13).public)
        assert contract_address(owner, 0) != contract_address(owner, 1)

    def test_contract_rejects_negative_nonce(self):
        owner = address_from_public_key(KeyPair.generate(14).public)
        with pytest.raises(CryptoError):
            contract_address(owner, -1)
