"""AES block cipher (FIPS 197) implemented from the specification.

The paper encrypts each 4 KB data item with AES under a 128-bit key taken
from the key modulation function's output.  This module provides the raw
encryption block transform for AES-128/192/256 (CTR needs no inverse
cipher); :mod:`repro.crypto.modes` holds AES-CTR, which runs in OpenSSL
and is checked against the scalar CTR built on this class.

The S-box is *derived*, not transcribed: each entry is the
multiplicative inverse in GF(2^8) (modulo the Rijndael polynomial
``x^8 + x^4 + x^3 + x + 1``) followed by the specified affine transform.
Encryption uses the standard 32-bit T-table formulation.
"""

from __future__ import annotations

import struct

_RIJNDAEL_POLY = 0x11B


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the Rijndael polynomial."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= _RIJNDAEL_POLY
        b >>= 1
    return product


def _build_sbox() -> bytes:
    """Construct the AES S-box from first principles."""
    # Multiplicative inverses via exponentiation by generator 3 (a primitive
    # element of GF(2^8)): log/antilog tables.
    antilog = [0] * 256
    log = [0] * 256
    value = 1
    for exponent in range(255):
        antilog[exponent] = value
        log[value] = exponent
        value = _gf_mul(value, 3)

    sbox = bytearray(256)
    for x in range(256):
        inv = 0 if x == 0 else antilog[(255 - log[x]) % 255]
        # Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        b = inv
        transformed = 0x63
        for shift in range(5):
            transformed ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox[x] = transformed
    return bytes(sbox)


SBOX = _build_sbox()

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))


def _build_encryption_tables() -> tuple[list[int], list[int], list[int], list[int]]:
    """Build the four 256-entry T-tables combining SubBytes/ShiftRows/MixColumns."""
    t0 = [0] * 256
    t1 = [0] * 256
    t2 = [0] * 256
    t3 = [0] * 256
    for x in range(256):
        s = SBOX[x]
        s2 = _gf_mul(s, 2)
        s3 = _gf_mul(s, 3)
        word = (s2 << 24) | (s << 16) | (s << 8) | s3
        t0[x] = word
        t1[x] = ((word >> 8) | (word << 24)) & 0xFFFFFFFF
        t2[x] = ((word >> 16) | (word << 16)) & 0xFFFFFFFF
        t3[x] = ((word >> 24) | (word << 8)) & 0xFFFFFFFF
    return t0, t1, t2, t3


T0, T1, T2, T3 = _build_encryption_tables()

_BLOCK_STRUCT = struct.Struct(">4I")


class AES:
    """The AES encryption block transform for 128-, 192-, or 256-bit keys.

    Instances are immutable and reusable; the key schedule is computed once
    at construction.  Only 16-byte blocks are handled here -- see
    :mod:`repro.crypto.modes` for messages of arbitrary length.
    """

    block_size = 16

    __slots__ = ("_round_keys", "rounds", "key_size")

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16, 24 or 32 bytes, got {len(key)}")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> list[int]:
        """FIPS 197 key expansion into 4*(rounds+1) 32-bit words."""
        nk = len(key) // 4
        words = list(struct.unpack(f">{nk}I", key))
        total = 4 * (self.rounds + 1)
        for i in range(nk, total):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = ((SBOX[(temp >> 24) & 0xFF] << 24)
                        | (SBOX[(temp >> 16) & 0xFF] << 16)
                        | (SBOX[(temp >> 8) & 0xFF] << 8)
                        | SBOX[temp & 0xFF])
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = ((SBOX[(temp >> 24) & 0xFF] << 24)
                        | (SBOX[(temp >> 16) & 0xFF] << 16)
                        | (SBOX[(temp >> 8) & 0xFF] << 8)
                        | SBOX[temp & 0xFF])
            words.append(words[i - nk] ^ temp)
        return words

    @property
    def round_keys(self) -> tuple[int, ...]:
        """The expanded encryption key schedule as 32-bit words."""
        return tuple(self._round_keys)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES blocks are exactly 16 bytes")
        rk = self._round_keys
        s0, s1, s2, s3 = _BLOCK_STRUCT.unpack(block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]

        offset = 4
        for _ in range(self.rounds - 1):
            t0 = (T0[(s0 >> 24) & 0xFF] ^ T1[(s1 >> 16) & 0xFF]
                  ^ T2[(s2 >> 8) & 0xFF] ^ T3[s3 & 0xFF] ^ rk[offset])
            t1 = (T0[(s1 >> 24) & 0xFF] ^ T1[(s2 >> 16) & 0xFF]
                  ^ T2[(s3 >> 8) & 0xFF] ^ T3[s0 & 0xFF] ^ rk[offset + 1])
            t2 = (T0[(s2 >> 24) & 0xFF] ^ T1[(s3 >> 16) & 0xFF]
                  ^ T2[(s0 >> 8) & 0xFF] ^ T3[s1 & 0xFF] ^ rk[offset + 2])
            t3 = (T0[(s3 >> 24) & 0xFF] ^ T1[(s0 >> 16) & 0xFF]
                  ^ T2[(s1 >> 8) & 0xFF] ^ T3[s2 & 0xFF] ^ rk[offset + 3])
            s0, s1, s2, s3 = t0, t1, t2, t3
            offset += 4

        # Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        out0 = ((SBOX[(s0 >> 24) & 0xFF] << 24) | (SBOX[(s1 >> 16) & 0xFF] << 16)
                | (SBOX[(s2 >> 8) & 0xFF] << 8) | SBOX[s3 & 0xFF]) ^ rk[offset]
        out1 = ((SBOX[(s1 >> 24) & 0xFF] << 24) | (SBOX[(s2 >> 16) & 0xFF] << 16)
                | (SBOX[(s3 >> 8) & 0xFF] << 8) | SBOX[s0 & 0xFF]) ^ rk[offset + 1]
        out2 = ((SBOX[(s2 >> 24) & 0xFF] << 24) | (SBOX[(s3 >> 16) & 0xFF] << 16)
                | (SBOX[(s0 >> 8) & 0xFF] << 8) | SBOX[s1 & 0xFF]) ^ rk[offset + 2]
        out3 = ((SBOX[(s3 >> 24) & 0xFF] << 24) | (SBOX[(s0 >> 16) & 0xFF] << 16)
                | (SBOX[(s1 >> 8) & 0xFF] << 8) | SBOX[s2 & 0xFF]) ^ rk[offset + 3]
        return _BLOCK_STRUCT.pack(out0, out1, out2, out3)
