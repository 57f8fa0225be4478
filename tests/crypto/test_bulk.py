"""Single-item batches of ``aes_ctr_many`` against the scalar reference
and the AES block function."""

import pytest

from repro.crypto.aes import AES
from repro.crypto.modes import aes_ctr, aes_ctr_many, aes_ctr_scalar


def _one(key, nonce, data, **kwargs):
    return aes_ctr_many([key], [nonce], [data], **kwargs)[0]


@pytest.mark.parametrize("key_size", [16, 24, 32])
@pytest.mark.parametrize("size", [1, 16, 17, 160, 4096, 10_000])
def test_matches_scalar_reference(key_size, size, rng):
    """Every key size matches the scalar reference, alone and batched."""
    key, nonce = rng.bytes(key_size), rng.bytes(8)
    data = rng.bytes(size)
    expected = aes_ctr_scalar(key, nonce, data)
    assert _one(key, nonce, data) == expected
    assert aes_ctr(key, nonce, data) == expected


def test_keystream_blocks_are_ecb_of_counter_blocks(rng):
    key, nonce = rng.bytes(16), rng.bytes(8)
    cipher = AES(key)
    stream = _one(key, nonce, bytes(80), initial_counter=1000)
    for i in range(5):
        counter_block = nonce + (1000 + i).to_bytes(8, "big")
        assert stream[16 * i:16 * i + 16] == cipher.encrypt_block(counter_block)


def test_counter_crosses_32_bit_boundary(rng):
    """The 64-bit counter must not wrap at 2^32 (hi word increments)."""
    key, nonce = rng.bytes(16), rng.bytes(8)
    boundary = (1 << 32) - 2
    stream = _one(key, nonce, bytes(64), initial_counter=boundary)
    cipher = AES(key)
    for i in range(4):
        counter_block = nonce + (boundary + i).to_bytes(8, "big")
        assert stream[16 * i:16 * i + 16] == cipher.encrypt_block(counter_block)


def test_empty_input():
    assert _one(b"\x00" * 16, b"\x00" * 8, b"") == b""


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        _one(b"\x00" * 16, b"\x00" * 7, b"x")
    with pytest.raises(ValueError):
        _one(b"\x00" * 16, b"\x00" * 8, b"x", initial_counter=-1)


def test_transform_is_involution(rng):
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(1000)
    assert _one(key, nonce, _one(key, nonce, data)) == data
