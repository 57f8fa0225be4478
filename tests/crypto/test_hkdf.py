"""HKDF against the RFC 5869 test vectors."""

import hashlib

import pytest

from repro.crypto.hkdf import hkdf, hkdf_expand, hkdf_extract


def test_rfc5869_case_1():
    ikm = bytes.fromhex("0b" * 22)
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    prk = hkdf_extract(salt, ikm, hashlib.sha256)
    assert prk.hex() == ("077709362c2e32df0ddc3f0dc47bba63"
                         "90b6c73bb50f9c3122ec844ad7c2b3e5")
    okm = hkdf_expand(prk, info, 42, hashlib.sha256)
    assert okm.hex() == ("3cb25f25faacd57a90434f64d0362f2a"
                         "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
                         "34007208d5b887185865")


def test_rfc5869_case_2_long_inputs():
    ikm = bytes(range(0x00, 0x50))
    salt = bytes(range(0x60, 0xB0))
    info = bytes(range(0xB0, 0x100))
    okm = hkdf(ikm, salt=salt, info=info, length=82, hash_factory=hashlib.sha256)
    assert okm.hex() == ("b11e398dc80327a1c8e7f78c596a4934"
                         "4f012eda2d4efad8a050cc4c19afa97c"
                         "59045a99cac7827271cb41c65e590e09"
                         "da3275600c2f09b8367793a9aca3db71"
                         "cc30c58179ec3e87c14c01d5c1f3434f"
                         "1d87")


def test_rfc5869_case_3_empty_salt_and_info():
    ikm = bytes.fromhex("0b" * 22)
    okm = hkdf(ikm, salt=b"", info=b"", length=42, hash_factory=hashlib.sha256)
    assert okm.hex() == ("8da4e775a563c18f715f802a063c5a31"
                         "b8a11f5c5ee1879ec3454e5f3c738d2d"
                         "9d201395faa4b61a96c8")


def test_output_length_is_exact():
    for length in (1, 31, 32, 33, 64, 100):
        assert len(hkdf(b"ikm", length=length)) == length


def test_rejects_bad_lengths():
    with pytest.raises(ValueError):
        hkdf(b"ikm", length=0)
    with pytest.raises(ValueError):
        hkdf_expand(b"\x00" * 32, b"", 255 * 32 + 1)


def test_deterministic():
    assert hkdf(b"ikm", info=b"a") == hkdf(b"ikm", info=b"a")
    assert hkdf(b"ikm", info=b"a") != hkdf(b"ikm", info=b"b")
