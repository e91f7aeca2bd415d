"""Unit tests: hashing, signatures, merkle trees, addresses (repro.crypto)."""

import pytest

from repro.common.errors import CryptoError
from repro.crypto import keys
from repro.crypto.address import Address, address_from_public_key
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
        assert len(kp.sign(b"x").value) == SIGNATURE_BYTES == 64

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


class _Counting:
    """Stands in for a module and counts calls of its functions."""

    def __init__(self, module):
        self._module = module
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


class TestVerifyCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(keys, "_VERIFY_CACHE", {})
        monkeypatch.setattr(keys, "_verify_cache_bytes", 0, raising=False)

    def test_a_repeat_verify_hashes_nothing(self, monkeypatch):
        kp = KeyPair.generate(20)
        message = b"prepare" * 16
        sig = kp.sign(message)
        assert kp.verify(message, sig)
        counted = {name: _Counting(getattr(keys, name)) for name in ("hashlib", "hmac")}
        for name, stand_in in counted.items():
            monkeypatch.setattr(keys, name, stand_in)
        assert kp.verify(message, sig)
        assert {name: c.calls for name, c in counted.items()} == {"hashlib": 0, "hmac": 0}

    def test_a_tampered_message_is_rejected_after_the_original_was_cached(self):
        kp = KeyPair.generate(21)
        sig = kp.sign(b"commit 7")
        assert kp.verify(b"commit 7", sig)
        assert not kp.verify(b"commit 8", sig)
        assert not kp.verify(b"commit 7\x00", sig)
        assert kp.verify(b"commit 7", sig)

    def test_a_mutated_bytearray_is_verified_again(self):
        kp = KeyPair.generate(22)
        buf = bytearray(b"reply 3")
        sig = kp.sign(bytes(buf))
        assert kp.verify(buf, sig)
        buf[-1] ^= 1
        assert not kp.verify(buf, sig)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_buffer_inputs_verify(self, wrap):
        kp = KeyPair.generate(23)
        sig = kp.sign(b"view change")
        assert kp.verify(wrap(b"view change"), sig)
        assert kp.verify(b"view change", sig)  # the cached copy is bytes
        assert kp.verify(wrap(b"view change"), sig)

    def test_values_equal_to_the_cached_bytes_but_not_those_bytes_are_checked(self):
        # a bool-format view compares by truth value and a bytes subclass
        # may redefine ==; neither may borrow the cached verdict
        class AlwaysEqual(bytes):
            __hash__ = bytes.__hash__

            def __eq__(self, other):
                return True

        kp = KeyPair.generate(24)
        sig = kp.sign(b"\x01\x00\x01")
        assert kp.verify(b"\x01\x00\x01", sig)
        truthy = memoryview(b"\x07\x00\x02").cast("?")
        assert truthy == b"\x01\x00\x01"
        assert not kp.verify(truthy, sig)
        assert not kp.verify(AlwaysEqual(b"forged"), sig)

    def test_str_raises_even_after_a_hit(self):
        kp = KeyPair.generate(25)
        sig = kp.sign(b"abc")
        assert kp.verify(b"abc", sig) and kp.verify(b"abc", sig)
        with pytest.raises(TypeError):
            kp.verify("abc", sig)  # type: ignore[arg-type]

    def test_an_unknown_key_is_not_cached(self):
        sig = KeyPair.generate(26).sign(b"m")
        assert not PublicKey(b"\x56" * 32).verify(b"m", sig)
        assert keys._VERIFY_CACHE == {}

    def test_the_entry_bound_holds(self):
        pk = KeyPair.generate(27).public
        for i in range(keys._VERIFY_CACHE_MAX + 10):
            assert not pk.verify(b"m", Signature(i.to_bytes(SIGNATURE_BYTES, "big")))
            assert len(keys._VERIFY_CACHE) <= keys._VERIFY_CACHE_MAX
        assert 0 < len(keys._VERIFY_CACHE) < keys._VERIFY_CACHE_MAX

    def test_the_byte_budget_holds(self):
        kp = KeyPair.generate(28)
        budget = keys._VERIFY_CACHE_BUDGET
        message = bytes(300_000)
        for i in range(2 * budget // len(message)):
            sig = Signature(i.to_bytes(SIGNATURE_BYTES, "big"))
            assert not kp.verify(i.to_bytes(8, "big") + message, sig)
            held = sum(len(m) for m, _ in keys._VERIFY_CACHE.values())
            assert held == keys._verify_cache_bytes <= budget
        # a tag over a message larger than the budget is checked, not kept
        huge = bytes(budget + 1)
        assert kp.verify(huge, kp.sign(huge))
        assert all(len(m) <= budget for m, _ in keys._VERIFY_CACHE.values())
        assert keys._verify_cache_bytes <= budget


class TestMerkle:
    def test_empty_tree_root(self):
        assert MerkleTree([]).root == EMPTY_ROOT

    def test_root_changes_with_order(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])

    def test_odd_level_duplicates_its_last_node(self):
        def node(left, right):
            return sha256(b"\x01" + left + right)

        a, b, c = (sha256(b"\x00" + x) for x in (b"a", b"b", b"c"))
        expected = node(node(a, b), node(c, c))
        assert merkle_root([b"a", b"b", b"c"]) == expected

    def test_rejects_non_bytes_leaves(self):
        with pytest.raises(CryptoError):
            MerkleTree(["str"])  # type: ignore[list-item]


class TestAddress:
    def test_derivation_is_deterministic(self):
        pk = KeyPair.generate(10).public
        assert address_from_public_key(pk) == address_from_public_key(pk)

    def test_hex_prefix(self):
        addr = address_from_public_key(KeyPair.generate(12).public)
        assert addr.hex().startswith("0x")
        assert len(addr.hex()) == 42

    def test_wrong_length_rejected(self):
        with pytest.raises(CryptoError):
            Address(b"\x01" * 19)
