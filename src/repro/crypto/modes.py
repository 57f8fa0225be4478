"""Block cipher modes of operation.

The item codec (:mod:`repro.core.ciphertext`) uses AES-CTR so ciphertext
length equals plaintext length plus the nonce; CTR runs in OpenSSL through
``cryptography`` (small-item batches through :mod:`repro.crypto.bulk`).
ECB and CBC with PKCS#7 run on the in-repo :class:`~repro.crypto.aes.AES`
and are kept for completeness and for the NIST SP 800-38A conformance
tests.
"""

from __future__ import annotations

import functools

from repro.crypto.aes import AES
from repro.crypto.padding import pad, unpad


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    return bytes(x ^ y for x, y in zip(a, b))


def aes_ecb_encrypt(cipher: AES, plaintext: bytes) -> bytes:
    """ECB encryption of a block-aligned plaintext (test vectors only)."""
    if len(plaintext) % 16:
        raise ValueError("ECB requires block-aligned input")
    return b"".join(cipher.encrypt_block(plaintext[i:i + 16])
                    for i in range(0, len(plaintext), 16))


def aes_ecb_decrypt(cipher: AES, ciphertext: bytes) -> bytes:
    """ECB decryption of a block-aligned ciphertext (test vectors only)."""
    if len(ciphertext) % 16:
        raise ValueError("ECB requires block-aligned input")
    return b"".join(cipher.decrypt_block(ciphertext[i:i + 16])
                    for i in range(0, len(ciphertext), 16))


def aes_cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes, *,
                    padded: bool = True) -> bytes:
    """CBC-encrypt ``plaintext`` under ``key`` with the given 16-byte IV."""
    if len(iv) != 16:
        raise ValueError("CBC IV must be 16 bytes")
    cipher = AES(key)
    if padded:
        plaintext = pad(plaintext, 16)
    elif len(plaintext) % 16:
        raise ValueError("unpadded CBC requires block-aligned input")

    blocks = []
    previous = iv
    for i in range(0, len(plaintext), 16):
        block = cipher.encrypt_block(_xor_bytes(plaintext[i:i + 16], previous))
        blocks.append(block)
        previous = block
    return b"".join(blocks)


def aes_cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes, *,
                    padded: bool = True) -> bytes:
    """CBC-decrypt ``ciphertext`` under ``key`` with the given 16-byte IV."""
    if len(iv) != 16:
        raise ValueError("CBC IV must be 16 bytes")
    if len(ciphertext) % 16:
        raise ValueError("CBC ciphertext must be block-aligned")
    cipher = AES(key)

    blocks = []
    previous = iv
    for i in range(0, len(ciphertext), 16):
        block = ciphertext[i:i + 16]
        blocks.append(_xor_bytes(cipher.decrypt_block(block), previous))
        previous = block
    plaintext = b"".join(blocks)
    return unpad(plaintext, 16) if padded else plaintext


_COUNTER_LIMIT = 1 << 64

#: Batches of at least this many items whose payloads average at most
#: :data:`_BULK_MAX_MEAN_BLOCKS` blocks run as one numpy sweep in
#: :mod:`repro.crypto.bulk`: per-item OpenSSL pays a ~15 us key setup per
#: item, which loses to the sweep on many small items (1024 x 64 B: 26 ms
#: against 9 ms).  Smaller batches never amortise the sweep's ~0.7 ms
#: fixed cost, and larger payloads are many times faster in OpenSSL.
_BULK_MIN_ITEMS = 128
_BULK_MAX_MEAN_BLOCKS = 16


@functools.cache
def _openssl_ctr():
    """``cryptography``'s AES-CTR constructors, imported on first use.

    The import is deferred so that processes which never encrypt (the
    server) do not load libcrypto.
    """
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
    from cryptography.hazmat.primitives.ciphers import modes as ciphermodes
    return Cipher, algorithms.AES, ciphermodes.CTR


def _check_counter_range(initial_counter: int, blocks: int) -> None:
    if initial_counter < 0:
        raise ValueError("initial counter must be non-negative")
    if initial_counter + blocks > _COUNTER_LIMIT:
        raise ValueError("CTR counter would pass 2**64")


def aes_ctr(key: bytes, nonce: bytes, data: bytes, *,
            initial_counter: int = 0) -> bytes:
    """Encrypt or decrypt ``data`` with AES-CTR (the operation is symmetric).

    The counter block is ``nonce (8 bytes) || counter (8 bytes, big endian)``
    and the transform runs in OpenSSL through ``cryptography``.  The
    counter field is 64 bits wide: a payload whose counters would pass
    ``2**64`` raises :class:`ValueError` rather than carry into the nonce.
    """
    if len(key) not in (16, 24, 32):
        raise ValueError(f"AES key must be 16, 24 or 32 bytes, got {len(key)}")
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    _check_counter_range(initial_counter, (len(data) + 15) // 16)
    if not data:
        return b""
    cipher, aes, ctr = _openssl_ctr()
    return cipher(aes(key), ctr(nonce + initial_counter.to_bytes(8, "big"))
                  ).encryptor().update(data)


def aes_ctr_many(keys, nonces, datas, *, initial_counter: int = 0) -> list[bytes]:
    """AES-CTR over many independent ``(key, nonce, data)`` triples.

    Bit-identical to calling :func:`aes_ctr` per triple, which is what
    happens unless the batch is many small items under 16-byte keys;
    those run as *one* vectorised sweep in :mod:`repro.crypto.bulk`, key
    schedules included.
    """
    if not (len(keys) == len(nonces) == len(datas)):
        raise ValueError("batch arguments must have equal lengths")
    blocks = [(len(data) + 15) // 16 for data in datas]
    _check_counter_range(initial_counter, max(blocks, default=0))
    if (len(keys) >= _BULK_MIN_ITEMS
            and sum(blocks) <= _BULK_MAX_MEAN_BLOCKS * len(keys)
            and all(len(key) == 16 for key in keys)):
        from repro.crypto.bulk import ctr_transform_many
        return ctr_transform_many(keys, nonces, datas,
                                  initial_counter=initial_counter)
    return [aes_ctr(key, nonce, data, initial_counter=initial_counter)
            for key, nonce, data in zip(keys, nonces, datas)]


def aes_ctr_scalar(key: bytes, nonce: bytes, data: bytes, *,
                   initial_counter: int = 0) -> bytes:
    """Pure-Python AES-CTR used as the reference for the vectorised engine."""
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    cipher = AES(key)
    output = bytearray()
    counter = initial_counter
    for i in range(0, len(data), 16):
        keystream = cipher.encrypt_block(nonce + counter.to_bytes(8, "big"))
        chunk = data[i:i + 16]
        output.extend(x ^ y for x, y in zip(chunk, keystream))
        counter += 1
    return bytes(output)
