"""Cipher modes against NIST SP 800-38A vectors plus roundtrip behaviour."""

import pytest

from repro.crypto.aes import AES
from repro.crypto.modes import (aes_cbc_decrypt, aes_cbc_encrypt, aes_ctr,
                                aes_ctr_many, aes_ctr_scalar,
                                aes_ecb_decrypt, aes_ecb_encrypt)
from repro.crypto.padding import PaddingError

KEY128 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710")


def test_sp800_38a_cbc_aes128():
    iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    expected = ("7649abac8119b246cee98e9b12e9197d"
                "5086cb9b507219ee95db113a917678b2"
                "73bed6b8e3c1743b7116e69e22229516"
                "3ff1caa1681fac09120eca307586e1a7")
    ciphertext = aes_cbc_encrypt(KEY128, iv, SP_PLAINTEXT, padded=False)
    assert ciphertext.hex() == expected
    assert aes_cbc_decrypt(KEY128, iv, ciphertext, padded=False) == SP_PLAINTEXT


def test_sp800_38a_ecb_aes128_multiblock():
    expected = ("3ad77bb40d7a3660a89ecaf32466ef97"
                "f5d3d58503b9699de785895a96fdbaaf"
                "43b1cd7f598ece23881b00e3ed030688"
                "7b0c785e27e8ad3f8223207104725dd4")
    cipher = AES(KEY128)
    assert aes_ecb_encrypt(cipher, SP_PLAINTEXT).hex() == expected
    assert aes_ecb_decrypt(cipher, bytes.fromhex(expected)) == SP_PLAINTEXT


def test_ctr_keystream_matches_sp800_38a_structure():
    # SP 800-38A F.5.1 uses a 16-byte counter block f0f1..ff; our CTR
    # splits it as nonce=f0..f7, counter=f8..ff, so all four blocks
    # (the counter incrementing in its low 64 bits) match the vector.
    key = KEY128
    nonce = bytes.fromhex("f0f1f2f3f4f5f6f7")
    initial = int.from_bytes(bytes.fromhex("f8f9fafbfcfdfeff"), "big")
    expected_ct = bytes.fromhex(
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee")
    assert aes_ctr(key, nonce, SP_PLAINTEXT,
                   initial_counter=initial) == expected_ct
    assert aes_ctr_scalar(key, nonce, SP_PLAINTEXT,
                          initial_counter=initial) == expected_ct


@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 31, 32, 100, 4096, 5000])
def test_ctr_roundtrip_and_scalar_equivalence(size, rng):
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(size)
    ciphertext = aes_ctr(key, nonce, data)
    assert len(ciphertext) == size
    assert aes_ctr(key, nonce, ciphertext) == data
    assert aes_ctr_scalar(key, nonce, data) == ciphertext


@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 100])
def test_cbc_roundtrip_with_padding(size, rng):
    key, iv = rng.bytes(16), rng.bytes(16)
    data = rng.bytes(size)
    ciphertext = aes_cbc_encrypt(key, iv, data)
    assert len(ciphertext) % 16 == 0
    assert len(ciphertext) > len(data)  # padding always adds bytes
    assert aes_cbc_decrypt(key, iv, ciphertext) == data


def test_cbc_wrong_key_fails_padding_with_high_probability(rng):
    key, iv = rng.bytes(16), rng.bytes(16)
    ciphertext = aes_cbc_encrypt(key, iv, b"some plaintext data")
    wrong = aes_cbc_encrypt  # silence lint; decrypt with a wrong key below
    with pytest.raises(PaddingError):
        # 255/256 of wrong keys produce invalid padding; this specific
        # deterministic key/ciphertext pair is checked to be one of them.
        aes_cbc_decrypt(bytes(16), iv, ciphertext)


def test_ctr_rejects_bad_nonce():
    with pytest.raises(ValueError):
        aes_ctr(b"\x00" * 16, b"\x00" * 7, b"data")


@pytest.mark.parametrize("key_size", [0, 15, 17, 64])
def test_ctr_rejects_bad_key_length(key_size):
    with pytest.raises(ValueError):
        aes_ctr(b"\x00" * key_size, b"\x00" * 8, b"data")
    with pytest.raises(ValueError):
        aes_ctr_many([b"\x00" * key_size], [b"\x00" * 8], [b"data"])


def test_ctr_counter_stays_within_64_bits():
    """The counter field is 64 bits: it may reach 2**64 - 1, never wrap
    into the nonce."""
    key, nonce = b"\x01" * 16, b"\x02" * 8
    last = 2 ** 64 - 1
    assert aes_ctr(key, nonce, b"\x00" * 16, initial_counter=last) == \
        AES(key).encrypt_block(nonce + b"\xff" * 8)
    assert aes_ctr(key, nonce, b"", initial_counter=2 ** 64) == b""
    with pytest.raises(ValueError):
        aes_ctr(key, nonce, b"\x00" * 17, initial_counter=last)
    with pytest.raises(ValueError):
        aes_ctr(key, nonce, b"x", initial_counter=2 ** 64)
    with pytest.raises(ValueError):
        aes_ctr(key, nonce, b"x", initial_counter=-1)
    # Batches, of one item or many, enforce the same range.
    for count in (1, 128):
        with pytest.raises(ValueError):
            aes_ctr_many([key] * count, [nonce] * count,
                         [b"\x00" * 17] * count, initial_counter=last)


def test_cbc_rejects_bad_iv_and_unaligned_input():
    with pytest.raises(ValueError):
        aes_cbc_encrypt(b"\x00" * 16, b"\x00" * 15, b"data")
    with pytest.raises(ValueError):
        aes_cbc_decrypt(b"\x00" * 16, b"\x00" * 16, b"\x01" * 17)
    with pytest.raises(ValueError):
        aes_cbc_encrypt(b"\x00" * 16, b"\x00" * 16, b"\x01" * 17, padded=False)


def test_ecb_rejects_unaligned():
    cipher = AES(b"\x00" * 16)
    with pytest.raises(ValueError):
        aes_ecb_encrypt(cipher, b"\x00" * 17)
    with pytest.raises(ValueError):
        aes_ecb_decrypt(cipher, b"\x00" * 17)


def test_ctr_counter_progression(rng):
    """Splitting a message must equal encrypting it whole."""
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(80)
    whole = aes_ctr(key, nonce, data)
    first = aes_ctr(key, nonce, data[:32])
    rest = aes_ctr(key, nonce, data[32:], initial_counter=2)
    assert first + rest == whole
