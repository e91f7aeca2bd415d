"""Tests: wire codecs -- every encoder must hit its declared size, and
round-trips must be lossless.  These turn the traffic-accounting model
behind Figures 5-6 and Table III into a verified property."""

import ast
import importlib
import inspect
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.transaction import NormalTransaction
from repro.codec import (
    decode_checkpoint,
    decode_commit,
    decode_geo_report,
    decode_pre_prepare,
    decode_prepare,
    decode_reply,
    decode_request,
    decode_transaction,
    encode_checkpoint,
    encode_commit,
    encode_geo_report,
    encode_pre_prepare,
    encode_prepare,
    encode_reply,
    encode_request,
    encode_transaction,
)
from repro.codec.primitives import Record
from repro.common.errors import ValidationError
from repro.common.wire_layout import WIRE_MESSAGES, wire_struct
from repro.crypto.hashing import sha256
from repro.geo.coords import LatLng
from repro.geo.reports import GeoReport
from repro.pbft.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    NewView,
    Prepare,
    PreparedProof,
    PrePrepare,
    Reply,
    ViewChange,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
HK = LatLng(22.3193, 114.1694)
D = sha256(b"digest")
SIG = bytes(range(64))


def geo(node=7, at=12.5):
    return GeoReport(node=node, position=HK, timestamp=at)


def normal_tx(**kw):
    defaults = dict(sender=3, nonce=9, fee=1.25, geo=geo(3), key="temp", value="25C")
    defaults.update(kw)
    return NormalTransaction(**defaults)


def request(op_bytes=200):
    from repro.pbft.messages import RawOperation

    return ClientRequest(client=1, timestamp=0.0,
                         op=RawOperation("op", size_bytes=op_bytes))


class TestPrimitives:
    """The checked record type, over two layouts of the shared table:
    ``geo.report`` (u32 + pad + three f64) and ``pbft.prepare`` (three
    u32 + 32 raw + 64 raw)."""

    GEO = Record("geo.report")
    PREPARE = Record("pbft.prepare")

    def test_u32_roundtrip_and_bounds(self):
        for node in (0, 2**32 - 1):
            assert self.GEO.unpack(self.GEO.pack(node, 0.0, 0.0, 0.0))[0] == node
        with pytest.raises(ValidationError):
            self.GEO.pack(-1, 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            self.GEO.pack(2**32, 0.0, 0.0, 0.0)

    def test_f64_roundtrip_exact(self):
        value = 1234.5678912345
        assert self.GEO.unpack(self.GEO.pack(1, value, 0.0, 0.0))[1] == value

    def test_truncation_detected(self):
        data = self.GEO.pack(1, 2.0, 3.0, 4.0)
        with pytest.raises(ValidationError):
            self.GEO.unpack(data[:-1])
        with pytest.raises(ValidationError):
            self.GEO.unpack_head(data[:-1])

    def test_trailing_bytes_detected(self):
        data = self.GEO.pack(1, 2.0, 3.0, 4.0)
        with pytest.raises(ValidationError):
            self.GEO.unpack(data + b"\x00")
        fields, rest = self.GEO.unpack_head(data + b"\x07")
        assert fields == (1, 2.0, 3.0, 4.0) and rest == b"\x07"
        assert self.GEO.unpack_each(data + data) == [fields, fields]
        with pytest.raises(ValidationError):
            self.GEO.unpack_each(data + b"\x07")

    def test_raw_length_check(self):
        # struct alone would pad the short digest and cut the long one
        for digest in (b"abc", D + b"\x00"):
            with pytest.raises(ValidationError):
                self.PREPARE.pack(0, 1, 2, digest, SIG)
        assert len(self.PREPARE.pack(0, 1, 2, D, SIG)) == self.PREPARE.size == 108


def _module(path):
    """The module a table path such as ``repro/codec/wire.py`` names."""
    return importlib.import_module(path.removesuffix(".py").replace("/", "."))


def _defines_callable(module, name):
    """True when *module* defines a callable *name* at module level or
    on a class the module itself defines."""
    classes = inspect.getmembers(module, inspect.isclass)
    owners = [module] + [cls for _, cls in classes
                         if cls.__module__ == module.__name__]
    return any(callable(vars(owner).get(name)) for owner in owners)


def check_registry_entry(kind):
    """Everything ``WIRE_MESSAGES[kind]`` names exists: its layouts
    compile, its codec functions are callables of its codec module, and
    its handler, when it has one, is a callable its module defines."""
    entry = WIRE_MESSAGES[kind]
    for part in ("layout", "item", "tail"):
        if part == "layout" or part in entry:
            wire_struct(kind, part)
    for role in ("encoder", "decoder"):
        if entry[role]:
            function = getattr(_module(entry["codec_module"]), entry[role], None)
            assert callable(function), f"{kind}: no {role} {entry[role]!r}"
    handler, handler_module = entry["handler"], entry["handler_module"]
    assert bool(handler) == bool(handler_module), (
        f"{kind}: handler and handler_module must be set together")
    if handler:
        assert _defines_callable(_module(handler_module), handler), (
            f"{kind}: {handler_module} defines no callable {handler!r}")


class TestRegistryWiring:
    """The wire table holds what it names: the codec packs with its
    layouts, and its codec and handler names are the functions the
    runtime calls."""

    @pytest.mark.parametrize("kind", sorted(WIRE_MESSAGES))
    def test_entry_resolves(self, kind):
        check_registry_entry(kind)

    def test_table_is_a_pure_literal(self):
        # the table is data: its wire vocabulary reads without an import
        tree = ast.parse((REPO_ROOT / "src" / "repro" / "common"
                          / "wire_layout.py").read_text())
        tables = [node.value for node in tree.body
                  if isinstance(node, ast.AnnAssign)
                  and getattr(node.target, "id", "") == "WIRE_MESSAGES"]
        assert len(tables) == 1
        assert ast.literal_eval(tables[0]) == WIRE_MESSAGES

    @pytest.mark.parametrize("entry", [
        {},
        {"layout": "I3"},
        {"layout": "II", "tail": "64z"},
        {"layout": 4},
    ], ids=["missing", "bad-count", "bad-tail", "not-a-string"])
    def test_malformed_layout_is_refused(self, monkeypatch, entry):
        monkeypatch.setitem(WIRE_MESSAGES, "test.blob", entry)
        with pytest.raises((struct.error, KeyError, TypeError)):
            check_registry_entry("test.blob")

    def test_valid_layouts_compile(self, monkeypatch):
        monkeypatch.setitem(WIRE_MESSAGES, "test.ping", {
            "layout": "BI4xd32s", "item": "I", "tail": "", "encoder": "",
            "decoder": "", "codec_module": "", "handler_module": "",
            "handler": ""})
        check_registry_entry("test.ping")

    @pytest.mark.parametrize("field, name", [
        ("decoder", "decode_nothing"),
        ("handler", "on_nothing"),
    ])
    def test_a_name_that_does_not_resolve_is_refused(self, monkeypatch,
                                                      field, name):
        monkeypatch.setitem(WIRE_MESSAGES, "pbft.checkpoint",
                            {**WIRE_MESSAGES["pbft.checkpoint"], field: name})
        with pytest.raises(AssertionError, match=name):
            check_registry_entry("pbft.checkpoint")


class TestLayoutTable:
    def test_protocol_doc_shows_every_layout_and_size(self):
        doc = (REPO_ROOT / "docs" / "protocol.md").read_text()
        for kind, entry in WIRE_MESSAGES.items():
            row = re.search(rf"^\| `{re.escape(kind)}` \| (.+?) \| (\d+) \|.*$",
                            doc, re.M)
            assert row, f"{kind} missing from docs/protocol.md"
            assert row.group(1).strip("`") == (entry["layout"] or "(empty)")
            assert int(row.group(2)) == wire_struct(kind).size
            for part in ("item", "tail"):
                if part in entry:
                    size = wire_struct(kind, part).size
                    assert f"{part} `{entry[part]}` ({size}:" in row.group(0)


class TestGeoReportCodec:
    def test_size_matches_declaration(self):
        report = geo()
        assert len(encode_geo_report(report)) == report.size_bytes == 32

    def test_roundtrip(self):
        report = geo(node=42, at=99.75)
        assert decode_geo_report(encode_geo_report(report)) == report


class TestTransactionCodec:
    def test_normal_size_matches(self):
        tx = normal_tx()
        assert len(encode_transaction(tx, SIG)) == tx.size_bytes == 200

    def test_normal_roundtrip(self):
        tx = normal_tx()
        decoded, signature = decode_transaction(encode_transaction(tx, SIG))
        assert decoded == tx
        assert signature == SIG
        assert decoded.tx_id == tx.tx_id

    def test_former_config_frame_rejected(self):
        # kind tag 2 with action code 1 was an add-endorser config
        # transaction; membership now changes only by era switch
        data = bytearray(encode_transaction(normal_tx(), SIG))
        assert data[0] == 1 and data[25] == 0
        data[0], data[25] = 2, 1
        with pytest.raises(ValidationError, match="kind tag 2"):
            decode_transaction(bytes(data))

    def test_oversized_key_value_rejected(self):
        tx = normal_tx(key="k" * 60, value="v" * 60, payload_bytes=64)
        with pytest.raises(ValidationError):
            encode_transaction(tx)

    def test_garbage_kind_rejected(self):
        tx = normal_tx()
        data = bytearray(encode_transaction(tx))
        data[0] = 99
        with pytest.raises(ValidationError):
            decode_transaction(bytes(data))

    def test_lengths_past_the_payload_rejected(self):
        # the u32 at offset 21 packs key_len << 16 | value_len; a cursor
        # that rewinds on a negative skip used to read a 46-byte
        # key+value out of this 8-byte payload, across the geo record
        # and into the signature.  ASCII-only geo doubles and signature
        # keep the over-read bytes decodable, so only the bound rejects.
        tx = NormalTransaction(
            sender=3, nonce=9, fee=1.25, key="k", value="v", payload_bytes=8,
            geo=GeoReport(node=3, position=LatLng(2.0, 2.0), timestamp=2.0))
        data = bytearray(encode_transaction(tx, b"s" * 64))
        assert int.from_bytes(data[21:25], "big") == (1 << 16) | 1
        data[21:25] = ((6 << 16) | 40).to_bytes(4, "big")
        with pytest.raises(ValidationError):
            decode_transaction(bytes(data))

    def test_key_and_value_filling_the_payload_re_encode(self):
        # the lengths word lives in the header, not the payload: a key
        # and value that fill the declared 64 bytes decode, so they must
        # encode too (the encoder used to count 4 bytes for the word)
        data = bytearray(encode_transaction(normal_tx(), SIG))
        data[21:25] = ((4 << 16) | 60).to_bytes(4, "big")
        data[40:104] = b"temp" + b"v" * 60
        tx, signature = decode_transaction(bytes(data))
        assert (tx.key, tx.value, tx.payload_bytes) == ("temp", "v" * 60, 64)
        assert encode_transaction(tx, signature) == bytes(data)

    @pytest.mark.parametrize("field", ["key", "value"])
    def test_length_past_16_bits_rejected(self, field):
        # both lengths share one u32 as 16-bit halves: 70000 used to
        # wrap to 4464 and decode as a different transaction
        tx = normal_tx(**{field: "v" * 70000}, payload_bytes=80000)
        with pytest.raises(ValidationError):
            encode_transaction(tx)

    @pytest.mark.parametrize("field", ["key", "value"])
    def test_non_utf8_key_value_is_a_named_error(self, field):
        tx = normal_tx(key="kk", value="vv")
        data = bytearray(encode_transaction(tx))
        data[40 + ("key", "value").index(field) * 2] = 0xFF
        with pytest.raises(ValidationError):
            decode_transaction(bytes(data))


class TestPBFTCodecs:
    def test_prepare_size_and_roundtrip(self):
        msg = Prepare(view=3, seq=17, digest=D, sender=5, epoch=2)
        data = encode_prepare(msg, SIG)
        assert len(data) == msg.size_bytes == 108
        decoded, signature = decode_prepare(data, epoch=2)
        assert decoded == msg and signature == SIG

    def test_commit_size_and_roundtrip(self):
        msg = Commit(view=0, seq=1, digest=D, sender=2)
        data = encode_commit(msg, SIG)
        assert len(data) == msg.size_bytes
        decoded, _ = decode_commit(data)
        assert decoded == msg

    def test_checkpoint_size_and_roundtrip(self):
        msg = Checkpoint(seq=64, state_digest=D, sender=1)
        data = encode_checkpoint(msg, SIG)
        assert len(data) == msg.size_bytes
        decoded, _ = decode_checkpoint(data)
        assert decoded == msg

    def test_reply_size_and_roundtrip(self):
        msg = Reply(view=1, timestamp=10.5, client=9, sender=2,
                    request_id="9:op", result_digest=D)
        data = encode_reply(msg, SIG)
        assert len(data) == msg.size_bytes
        decoded, _ = decode_reply(data, request_id="9:op")
        assert decoded == msg

    def test_request_size_and_fields(self):
        tx = normal_tx()
        from repro.core.messages import TxOperation
        request = ClientRequest(client=8, timestamp=3.5, op=TxOperation(tx))
        op_bytes = encode_transaction(tx, SIG)
        data = encode_request(request, op_bytes, SIG)
        assert len(data) == request.size_bytes
        client, ts, signature, payload = decode_request(data)
        assert (client, ts, signature) == (8, 3.5, SIG)
        decoded_tx, _ = decode_transaction(payload)
        assert decoded_tx == tx

    def test_request_op_length_mismatch_rejected(self):
        tx = normal_tx()
        from repro.core.messages import TxOperation
        request = ClientRequest(client=8, timestamp=3.5, op=TxOperation(tx))
        with pytest.raises(ValidationError):
            encode_request(request, b"short", SIG)

    def test_pre_prepare_size_and_fields(self):
        tx = normal_tx()
        from repro.core.messages import TxOperation
        request = ClientRequest(client=8, timestamp=3.5, op=TxOperation(tx))
        request_bytes = encode_request(request, encode_transaction(tx, SIG), SIG)
        msg = PrePrepare(view=0, seq=1, digest=request.digest(),
                         request=request, sender=0)
        data = encode_pre_prepare(msg, request_bytes, SIG)
        assert len(data) == msg.size_bytes
        view, seq, sender, digest, _sig, payload = decode_pre_prepare(data)
        assert (view, seq, sender) == (0, 1, 0)
        assert digest == request.digest()
        assert payload == request_bytes


class TestBlockCodec:
    def _block(self, n_txs=3):
        from repro.chain.block import Block

        txs = [normal_tx(nonce=i, value=str(i)) for i in range(n_txs)]
        return Block.assemble(1, b"\x00" * 32, 0, 0, 1, 0, 5.0, txs)

    def test_header_size_matches(self):
        from repro.codec.wire import encode_block_header

        block = self._block()
        assert len(encode_block_header(block.header)) == block.header.size_bytes

    def test_header_roundtrip(self):
        from repro.codec.wire import decode_block_header, encode_block_header

        block = self._block()
        decoded, sig = decode_block_header(encode_block_header(block.header, SIG))
        assert decoded == block.header
        assert sig == SIG
        assert decoded.digest() == block.header.digest()

    def test_block_size_matches_declaration(self):
        from repro.codec.wire import encode_block

        for n in (0, 1, 5):
            block = self._block(n)
            assert len(encode_block(block)) == block.size_bytes

    def test_block_roundtrip_preserves_digest(self):
        from repro.codec.wire import decode_block, encode_block

        block = self._block(4)
        decoded = decode_block(encode_block(block))
        assert decoded.digest() == block.digest()
        assert [t.tx_id for t in decoded.transactions] == [
            t.tx_id for t in block.transactions
        ]


class TestViewChangeCodecs:
    def _proof(self, prepare_count=3):
        req = request()
        return PreparedProof(view=0, seq=1, digest=req.digest(),
                             request=req, prepare_count=prepare_count), req

    def test_prepared_proof_size_matches(self):
        from repro.codec.wire import encode_prepared_proof, encode_request

        proof, req = self._proof()
        req_bytes = encode_request(req, b"\x00" * req.op.size_bytes)
        data = encode_prepared_proof(proof, req_bytes)
        assert len(data) == proof.size_bytes

    def test_view_change_size_matches(self):
        from repro.codec.wire import (
            encode_prepared_proof,
            encode_request,
            encode_view_change,
        )

        proof, req = self._proof(prepare_count=2)
        req_bytes = encode_request(req, b"\x00" * req.op.size_bytes)
        proof_bytes = encode_prepared_proof(proof, req_bytes)
        msg = ViewChange(new_view=1, last_stable_seq=0, prepared=(proof,),
                         sender=2)
        data = encode_view_change(msg, [proof_bytes], SIG)
        assert len(data) == msg.size_bytes
        empty = ViewChange(new_view=1, last_stable_seq=0, prepared=(), sender=2)
        assert len(encode_view_change(empty, [], SIG)) == empty.size_bytes

    def test_new_view_size_matches(self):
        from repro.codec.wire import (
            encode_new_view,
            encode_pre_prepare,
            encode_request,
        )

        req = request()
        req_bytes = encode_request(req, b"\x00" * req.op.size_bytes)
        pp = PrePrepare(view=1, seq=1, digest=req.digest(), request=req, sender=0)
        pp_bytes = encode_pre_prepare(pp, req_bytes)
        msg = NewView(new_view=1, view_change_senders=(0, 1, 2),
                      pre_prepares=(pp,), sender=0)
        data = encode_new_view(msg, [pp_bytes], SIG)
        assert len(data) == msg.size_bytes


class TestEraSwitchCodec:
    def test_size_and_roundtrip(self):
        from repro.codec.wire import decode_era_switch, encode_era_switch
        from repro.core.messages import EraSwitchOperation

        op = EraSwitchOperation(new_era=2, committee=(0, 1, 2, 3, 7),
                                added=(7,), removed=(4,))
        data = encode_era_switch(op)
        assert len(data) == op.size_bytes
        assert decode_era_switch(data) == op

    def test_count_past_the_remaining_bytes_rejected(self):
        from repro.codec.wire import decode_era_switch

        # 16 bytes that declare 0xEBF6F7 committee ids and carry none
        frame = (2).to_bytes(4, "big") + (0xEBF6F7).to_bytes(4, "big") + bytes(8)
        with pytest.raises(ValidationError, match="declares"):
            decode_era_switch(frame)
        # one id present, two declared
        with pytest.raises(ValidationError, match="declares"):
            decode_era_switch((2).to_bytes(4, "big") + (2).to_bytes(4, "big")
                              + bytes(8) + (7).to_bytes(4, "big"))


class TestZoneCheckpointCodec:
    def test_count_past_the_remaining_bytes_rejected(self):
        from repro.codec.wire import (
            decode_zone_checkpoint,
            encode_zone_checkpoint,
        )
        from repro.core.messages import InterZoneTx, ZoneCheckpointOperation

        op = ZoneCheckpointOperation(
            zone=0, seq=1, era=0, height=4, head=D,
            txs=(InterZoneTx(src_zone=0, dst_zone=1, tx=normal_tx()),))
        data = bytearray(encode_zone_checkpoint(op))
        assert decode_zone_checkpoint(bytes(data)) == op
        assert int.from_bytes(data[16:20], "big") == 1  # the count word
        for count in (2, 0xFFFFFFFF):
            data[16:20] = count.to_bytes(4, "big")
            with pytest.raises(ValidationError, match="declares"):
                decode_zone_checkpoint(bytes(data))


class TestCodecProperties:
    @given(
        node=st.integers(min_value=0, max_value=2**31),
        lat=st.floats(min_value=-89.0, max_value=89.0, allow_nan=False),
        lng=st.floats(min_value=-179.0, max_value=179.0, allow_nan=False),
        ts=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_geo_report_roundtrip_property(self, node, lat, lng, ts):
        report = GeoReport(node=node, position=LatLng(lat, lng), timestamp=ts)
        assert decode_geo_report(encode_geo_report(report)) == report

    @given(
        sender=st.integers(min_value=0, max_value=2**16),
        nonce=st.integers(min_value=0, max_value=2**16),
        fee=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        key=st.text(alphabet="abcdefgh", min_size=0, max_size=10),
        value=st.text(alphabet="0123456789", min_size=0, max_size=10),
    )
    @settings(max_examples=50)
    def test_transaction_roundtrip_property(self, sender, nonce, fee, key, value):
        tx = normal_tx(sender=sender, nonce=nonce, fee=fee, key=key, value=value)
        data = encode_transaction(tx)
        assert len(data) == tx.size_bytes
        decoded, _ = decode_transaction(data)
        assert decoded == tx

    @given(view=st.integers(min_value=0, max_value=2**20),
           seq=st.integers(min_value=0, max_value=2**20),
           sender=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=50)
    def test_prepare_roundtrip_property(self, view, seq, sender):
        msg = Prepare(view=view, seq=seq, digest=D, sender=sender)
        data = encode_prepare(msg)
        assert len(data) == msg.size_bytes
        decoded, _ = decode_prepare(data)
        assert decoded == msg

    @given(n_txs=st.integers(min_value=0, max_value=8),
           height=st.integers(min_value=1, max_value=1000),
           era=st.integers(min_value=0, max_value=50))
    @settings(max_examples=30)
    def test_block_roundtrip_property(self, n_txs, height, era):
        from repro.chain.block import Block
        from repro.codec.wire import decode_block, encode_block

        txs = [normal_tx(nonce=i, value=str(i)) for i in range(n_txs)]
        block = Block.assemble(height, b"\x11" * 32, era, 0, height, 2,
                               float(height), txs)
        data = encode_block(block)
        assert len(data) == block.size_bytes
        assert decode_block(data).digest() == block.digest()
