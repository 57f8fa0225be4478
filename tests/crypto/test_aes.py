"""AES against FIPS 197 and NIST SP 800-38A vectors, plus edge cases."""

import pytest

from repro.crypto.aes import AES, SBOX

FIPS197_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

FIPS197 = [
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]

# SP 800-38A F.1: ECB single blocks for each key size.
SP800_38A_ECB = [
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
     "6bc1bee22e409f96e93d7e117393172a", "bd334f1d6e45f25ff712a214571fa5cc"),
    ("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "6bc1bee22e409f96e93d7e117393172a", "f3eed1bdb5d2a03c064b5a7e3db181f8"),
]


@pytest.mark.parametrize("key_hex,expected", FIPS197,
                         ids=["aes128", "aes192", "aes256"])
def test_fips197_encrypt(key_hex, expected):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(FIPS197_PLAINTEXT).hex() == expected


@pytest.mark.parametrize("key_hex,plaintext,expected", SP800_38A_ECB,
                         ids=["aes128", "aes192", "aes256"])
def test_sp800_38a_ecb(key_hex, plaintext, expected):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(bytes.fromhex(plaintext)).hex() == expected


def test_sbox_is_a_bijective_involution_pair():
    """The derived S-box is a permutation with FIPS 197's values."""
    assert len(set(SBOX)) == 256
    # Anchor values from FIPS 197 figure 7.
    assert SBOX[0x00] == 0x63
    assert SBOX[0x01] == 0x7C
    assert SBOX[0x53] == 0xED
    assert SBOX[0xFF] == 0x16


def test_round_counts():
    assert AES(b"\x00" * 16).rounds == 10
    assert AES(b"\x00" * 24).rounds == 12
    assert AES(b"\x00" * 32).rounds == 14


def test_key_schedule_length():
    for size in (16, 24, 32):
        cipher = AES(b"\x01" * size)
        assert len(cipher.round_keys) == 4 * (cipher.rounds + 1)


def test_rejects_bad_key_sizes():
    for size in (0, 15, 17, 31, 33, 64):
        with pytest.raises(ValueError):
            AES(b"\x00" * size)


def test_rejects_bad_block_sizes():
    cipher = AES(b"\x00" * 16)
    for block in (b"", b"\x00" * 15, b"\x00" * 17):
        with pytest.raises(ValueError):
            cipher.encrypt_block(block)
