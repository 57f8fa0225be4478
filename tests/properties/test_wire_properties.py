"""Fuzzing the wire codec: arbitrary values roundtrip; garbage never
crashes with anything but ProtocolError."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ProtocolError
from repro.protocol import messages as msg
from repro.protocol.wire import Reader, WireContext, Writer
from tests.conftest import scaled_examples

CTX = WireContext(modulator_width=20)
modulators = st.binary(min_size=20, max_size=20)


@settings(max_examples=scaled_examples(50),
          suppress_health_check=[HealthCheck.data_too_large,
                                 HealthCheck.too_slow])
@given(st.lists(st.sampled_from(["u8", "u16", "u32", "u64", "blob", "mod",
                                 "text", "mod_list", "u64_list",
                                 "blob_list"]), max_size=10),
       st.data())
def test_arbitrary_field_sequences_roundtrip(kinds, data):
    w = Writer(CTX)
    expected = []
    for kind in kinds:
        if kind == "u8":
            value = data.draw(st.integers(0, 255))
            w.u8(value)
        elif kind == "u16":
            value = data.draw(st.integers(0, 2 ** 16 - 1))
            w.u16(value)
        elif kind == "u32":
            value = data.draw(st.integers(0, 2 ** 32 - 1))
            w.u32(value)
        elif kind == "u64":
            value = data.draw(st.integers(0, 2 ** 64 - 1))
            w.u64(value)
        elif kind == "blob":
            value = data.draw(st.binary(max_size=100))
            w.blob(value)
        elif kind == "mod":
            value = data.draw(modulators)
            w.modulator(value)
        elif kind == "mod_list":
            value = data.draw(st.lists(modulators, max_size=8))
            w.modulator_list(value)
        elif kind == "u64_list":
            value = data.draw(st.lists(st.integers(0, 2 ** 64 - 1),
                                       max_size=8))
            w.u64_list(value)
        elif kind == "blob_list":
            value = data.draw(st.lists(st.binary(max_size=40), max_size=8))
            w.blob_list(value)
        else:
            value = data.draw(st.text(max_size=30))
            w.text(value)
        expected.append((kind, value))

    r = Reader(CTX, w.getvalue())
    for kind, value in expected:
        reader = {"u8": r.u8, "u16": r.u16, "u32": r.u32, "u64": r.u64,
                  "blob": r.blob, "mod": r.modulator, "text": r.text,
                  "mod_list": r.modulator_list, "u64_list": r.u64_list,
                  "blob_list": r.blob_list}[kind]
        decoded = reader()
        assert decoded == value
        if kind in ("mod_list", "blob_list"):
            assert all(type(field) is bytes for field in decoded)
    r.expect_end()


def _bulk_messages():
    links = tuple(bytes([i]) * 20 for i in range(4))
    leaves = tuple(bytes([0x80 + i]) * 20 for i in range(3))
    ciphertexts = (b"", b"c" * 3, b"\xff" * 40)
    return [
        msg.FetchFileReply(n_leaves=3, item_ids=(7, 8, 2 ** 64 - 1),
                           links=links, leaves=leaves,
                           ciphertexts=ciphertexts, tree_version=5),
        msg.OutsourceRequest(file_id=9, item_ids=(1, 2, 3), links=links,
                             leaves=leaves, ciphertexts=ciphertexts,
                             request_id=11),
    ]


@pytest.mark.parametrize("message", _bulk_messages(),
                         ids=lambda m: type(m).__name__)
def test_every_strict_prefix_of_a_bulk_message_is_refused(message):
    """Truncation anywhere in the list fields raises ProtocolError."""
    encoded = msg.encode_message(CTX, message)
    assert msg.decode_message(CTX, encoded) == message
    for cut in range(len(encoded)):
        with pytest.raises(ProtocolError):
            msg.decode_message(CTX, encoded[:cut])


@pytest.mark.parametrize("kind, values", [
    ("modulator_list", [b"\x01" * 20, b"\x02" * 20, b"\x03" * 20]),
    ("u64_list", [0, 1, 2 ** 64 - 1]),
    ("blob_list", [b"", b"ab", b"\xff" * 30]),
])
def test_every_strict_prefix_of_a_list_field_is_refused(kind, values):
    """The list reader itself refuses a cut list, whatever follows it."""
    encoded = getattr(Writer(CTX), kind)(values).getvalue()
    assert getattr(Reader(CTX, encoded), kind)() == values
    for cut in range(len(encoded)):
        with pytest.raises(ProtocolError):
            getattr(Reader(CTX, encoded[:cut]), kind)()


@given(st.binary(max_size=300))
def test_garbage_decoding_is_contained(data):
    """Arbitrary bytes either decode to a message or raise ProtocolError."""
    try:
        message = msg.decode_message(CTX, data)
    except (ProtocolError, UnicodeDecodeError):
        return
    # Whatever decoded must re-encode (not necessarily byte-identically --
    # e.g. non-canonical optionals -- but without crashing).
    msg.encode_message(CTX, message)


@given(st.integers(0, 2 ** 64 - 1), st.binary(max_size=50), modulators)
def test_delete_request_roundtrip(item_id, blob, modulator):
    message = msg.DeleteCommit(file_id=1, item_id=item_id,
                               cut_slots=(1, 2), deltas=(modulator, modulator),
                               x_s_prime=None, dest_link=modulator,
                               dest_leaf=None, tree_version=9)
    assert msg.decode_message(CTX, msg.encode_message(CTX, message)) == message
