"""HKDF (RFC 5869) extract-and-expand key derivation over stdlib HMAC.

Used to derive AES data keys from modulated-chain outputs and to derive
independent sub-keys (encryption vs. counter obfuscation) from one master
secret where the library needs more than one key.
"""

from __future__ import annotations

import hashlib

from repro.crypto.hmac import HashFactory, hmac_digest


def hkdf_extract(salt: bytes, ikm: bytes,
                 hash_factory: HashFactory = hashlib.sha256) -> bytes:
    """RFC 5869 extract step: PRK = HMAC(salt, IKM)."""
    if not salt:
        salt = b"\x00" * hash_factory().digest_size
    return hmac_digest(salt, ikm, hash_factory)


def hkdf_expand(prk: bytes, info: bytes, length: int,
                hash_factory: HashFactory = hashlib.sha256) -> bytes:
    """RFC 5869 expand step: produce ``length`` bytes of output key material."""
    digest_size = hash_factory().digest_size
    if length <= 0:
        raise ValueError("output length must be positive")
    if length > 255 * digest_size:
        raise ValueError("requested output too long for HKDF-Expand")

    blocks = []
    previous = b""
    for counter in range(1, -(-length // digest_size) + 1):
        previous = hmac_digest(prk, previous + info + bytes([counter]),
                               hash_factory)
        blocks.append(previous)
    return b"".join(blocks)[:length]


def hkdf(ikm: bytes, *, salt: bytes = b"", info: bytes = b"", length: int = 32,
         hash_factory: HashFactory = hashlib.sha256) -> bytes:
    """Full HKDF: extract then expand ``ikm`` into ``length`` output bytes."""
    prk = hkdf_extract(salt, ikm, hash_factory)
    return hkdf_expand(prk, info, length, hash_factory)
