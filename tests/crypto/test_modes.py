"""AES-CTR against NIST SP 800-38A vectors plus roundtrip behaviour."""

import pytest

from repro.crypto.aes import AES
from repro.crypto.modes import aes_ctr, aes_ctr_many, aes_ctr_scalar

KEY128 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710")


def test_sp800_38a_ecb_aes128_multiblock():
    expected = ("3ad77bb40d7a3660a89ecaf32466ef97"
                "f5d3d58503b9699de785895a96fdbaaf"
                "43b1cd7f598ece23881b00e3ed030688"
                "7b0c785e27e8ad3f8223207104725dd4")
    cipher = AES(KEY128)
    assert b"".join(cipher.encrypt_block(SP_PLAINTEXT[i:i + 16])
                    for i in range(0, 64, 16)).hex() == expected


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


def test_ctr_counter_progression(rng):
    """Splitting a message must equal encrypting it whole."""
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(80)
    whole = aes_ctr(key, nonce, data)
    first = aes_ctr(key, nonce, data[:32])
    rest = aes_ctr(key, nonce, data[32:], initial_counter=2)
    assert first + rest == whole
