"""The binary wire codec: roundtrips and malformed-input rejection."""

import pytest

from repro.core.errors import ProtocolError
from repro.protocol.wire import Reader, WireContext, Writer

CTX = WireContext(modulator_width=20)


def roundtrip(write, read):
    w = Writer(CTX)
    write(w)
    r = Reader(CTX, w.getvalue())
    value = read(r)
    r.expect_end()
    return value


def test_integers():
    assert roundtrip(lambda w: w.u8(255), lambda r: r.u8()) == 255
    assert roundtrip(lambda w: w.u16(65535), lambda r: r.u16()) == 65535
    assert roundtrip(lambda w: w.u32(2 ** 32 - 1), lambda r: r.u32()) == 2 ** 32 - 1
    assert roundtrip(lambda w: w.u64(2 ** 64 - 1), lambda r: r.u64()) == 2 ** 64 - 1


def test_blob():
    for data in (b"", b"x", b"hello" * 100):
        assert roundtrip(lambda w: w.blob(data), lambda r: r.blob()) == data


def test_modulator():
    value = bytes(range(20))
    assert roundtrip(lambda w: w.modulator(value),
                     lambda r: r.modulator()) == value


def test_modulator_width_enforced():
    w = Writer(CTX)
    with pytest.raises(ProtocolError):
        w.modulator(b"\x00" * 19)


def test_opt_modulator():
    value = bytes(range(20))
    assert roundtrip(lambda w: w.opt_modulator(value),
                     lambda r: r.opt_modulator()) == value
    assert roundtrip(lambda w: w.opt_modulator(None),
                     lambda r: r.opt_modulator()) is None


def test_modulator_list():
    values = [bytes([i]) * 20 for i in range(5)]
    assert roundtrip(lambda w: w.modulator_list(values),
                     lambda r: r.modulator_list()) == values
    assert roundtrip(lambda w: w.modulator_list([]),
                     lambda r: r.modulator_list()) == []


def test_modulator_list_rejects_a_wrong_width_mid_list():
    values = [bytes([i]) * 20 for i in range(5)]
    values[2] = b"\x00" * 21
    with pytest.raises(ProtocolError, match="modulator width 21 != 20"):
        Writer(CTX).modulator_list(values)


def test_u64_list():
    values = [0, 1, 2 ** 63, 2 ** 64 - 1]
    assert roundtrip(lambda w: w.u64_list(values),
                     lambda r: r.u64_list()) == values


def test_text():
    assert roundtrip(lambda w: w.text("héllo"), lambda r: r.text()) == "héllo"


def test_chained_fields():
    w = Writer(CTX)
    w.u8(1).u32(2).blob(b"three").u64(4)
    r = Reader(CTX, w.getvalue())
    assert (r.u8(), r.u32(), r.blob(), r.u64()) == (1, 2, b"three", 4)
    r.expect_end()


def test_truncation_detected():
    w = Writer(CTX)
    w.u64(7)
    data = w.getvalue()[:-1]
    with pytest.raises(ProtocolError):
        Reader(CTX, data).u64()


def test_trailing_bytes_detected():
    w = Writer(CTX)
    w.u8(1)
    r = Reader(CTX, w.getvalue() + b"extra")
    r.u8()
    with pytest.raises(ProtocolError):
        r.expect_end()


def test_blob_length_beyond_buffer():
    w = Writer(CTX)
    w.u32(1000)  # claims 1000 bytes, none present
    with pytest.raises(ProtocolError):
        Reader(CTX, w.getvalue()).blob()
