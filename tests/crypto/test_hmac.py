"""HMAC against RFC 2202 (SHA-1) and RFC 4231 (SHA-256) vectors.

``hmac_digest`` is a thin wrapper over the standard library; these are
smoke checks that it keys and hashes as the RFCs specify.
"""

import hashlib
import hmac as stdlib_hmac

import pytest

from repro.crypto.hmac import hmac_digest

Sha1 = hashlib.sha1
Sha256 = hashlib.sha256

# RFC 2202 HMAC-SHA1 vectors.
RFC2202 = [
    (b"\x0b" * 20, b"Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?",
     "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 20, b"\xdd" * 50, "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
]

# RFC 4231 HMAC-SHA256 vectors (cases 1, 2, 3, 6).
RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
]


@pytest.mark.parametrize("key,message,expected", RFC2202,
                         ids=[f"rfc2202-{i}" for i in range(len(RFC2202))])
def test_rfc2202_sha1(key, message, expected):
    assert hmac_digest(key, message, Sha1).hex() == expected


@pytest.mark.parametrize("key,message,expected", RFC4231,
                         ids=[f"rfc4231-{i}" for i in range(len(RFC4231))])
def test_rfc4231_sha256(key, message, expected):
    assert hmac_digest(key, message, Sha256).hex() == expected


@pytest.mark.parametrize("key_length", [0, 1, 63, 64, 65, 200])
def test_matches_stdlib_across_key_lengths(key_length):
    key = bytes(range(256))[:key_length]
    message = b"key length boundary check"
    assert hmac_digest(key, message, Sha1) == \
        stdlib_hmac.new(key, message, hashlib.sha1).digest()
    assert hmac_digest(key, message, Sha256) == \
        stdlib_hmac.new(key, message, hashlib.sha256).digest()


def test_incremental_updates():
    mac = stdlib_hmac.new(b"key", digestmod=Sha1)
    mac.update(b"part one ")
    mac.update(b"part two")
    assert mac.digest() == hmac_digest(b"key", b"part one part two", Sha1)


def test_digest_is_idempotent():
    mac = stdlib_hmac.new(b"key", digestmod=Sha256)
    mac.update(b"data")
    assert mac.digest() == mac.digest()


def test_copy_is_independent():
    mac = stdlib_hmac.new(b"key", digestmod=Sha1)
    mac.update(b"abc")
    clone = mac.copy()
    mac.update(b"X")
    assert clone.digest() == hmac_digest(b"key", b"abc", Sha1)
    assert mac.digest() == hmac_digest(b"key", b"abcX", Sha1)


def test_digest_size_attribute():
    assert stdlib_hmac.new(b"k", digestmod=Sha1).digest_size == 20
    assert stdlib_hmac.new(b"k", digestmod=Sha256).digest_size == 32
