"""Vectorised AES-CTR engine for batches of small items (numpy).

:func:`repro.crypto.modes.aes_ctr` runs in OpenSSL, which pays a key
setup of about 15 us per item.  Outsourcing or fetching a file of many
small items (hundreds of 64-byte records) is dominated by that setup, so
:func:`repro.crypto.modes.aes_ctr_many` hands such batches to this module,
which evaluates the T-table round function of :mod:`repro.crypto.aes`
across all counter blocks of all items at once with numpy gathers, key
schedules included.  Output is verified bit-for-bit against the scalar
implementation in the test suite.

Only CTR (keystream generation, i.e. the forward transform) is needed in
bulk: both encryption and decryption of payloads XOR the same keystream.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import aes as _aes
from repro.crypto.aes import AES

_T0 = np.array(_aes.T0, dtype=np.uint32)
_T1 = np.array(_aes.T1, dtype=np.uint32)
_T2 = np.array(_aes.T2, dtype=np.uint32)
_T3 = np.array(_aes.T3, dtype=np.uint32)
_SBOX = np.array(list(_aes.SBOX), dtype=np.uint32)

_BYTE = np.uint32(0xFF)


def _encrypt_words(rk, rounds: int,
                   s0: np.ndarray, s1: np.ndarray, s2: np.ndarray,
                   s3: np.ndarray) -> tuple[np.ndarray, ...]:
    """Run the AES forward transform on N parallel states (uint32 words).

    ``rk(j)`` returns word ``j`` of the key schedule: either a
    uint32 scalar (one shared key schedule for every state) or a uint32
    array aligned with the states (cross-item batches where each block
    carries its own item's schedule, gathered as each round needs it so
    that a batch never holds all 44 words per block at once); numpy
    broadcasting makes both shapes take the identical code path.
    """
    s0 = s0 ^ rk(0)
    s1 = s1 ^ rk(1)
    s2 = s2 ^ rk(2)
    s3 = s3 ^ rk(3)

    offset = 4
    for _ in range(rounds - 1):
        t0 = (_T0[(s0 >> 24) & _BYTE] ^ _T1[(s1 >> 16) & _BYTE]
              ^ _T2[(s2 >> 8) & _BYTE] ^ _T3[s3 & _BYTE] ^ rk(offset))
        t1 = (_T0[(s1 >> 24) & _BYTE] ^ _T1[(s2 >> 16) & _BYTE]
              ^ _T2[(s3 >> 8) & _BYTE] ^ _T3[s0 & _BYTE] ^ rk(offset + 1))
        t2 = (_T0[(s2 >> 24) & _BYTE] ^ _T1[(s3 >> 16) & _BYTE]
              ^ _T2[(s0 >> 8) & _BYTE] ^ _T3[s1 & _BYTE] ^ rk(offset + 2))
        t3 = (_T0[(s3 >> 24) & _BYTE] ^ _T1[(s0 >> 16) & _BYTE]
              ^ _T2[(s1 >> 8) & _BYTE] ^ _T3[s2 & _BYTE] ^ rk(offset + 3))
        s0, s1, s2, s3 = t0, t1, t2, t3
        offset += 4

    out0 = ((_SBOX[(s0 >> 24) & _BYTE] << 24) | (_SBOX[(s1 >> 16) & _BYTE] << 16)
            | (_SBOX[(s2 >> 8) & _BYTE] << 8) | _SBOX[s3 & _BYTE]) ^ rk(offset)
    out1 = ((_SBOX[(s1 >> 24) & _BYTE] << 24) | (_SBOX[(s2 >> 16) & _BYTE] << 16)
            | (_SBOX[(s3 >> 8) & _BYTE] << 8) | _SBOX[s0 & _BYTE]) ^ rk(offset + 1)
    out2 = ((_SBOX[(s2 >> 24) & _BYTE] << 24) | (_SBOX[(s3 >> 16) & _BYTE] << 16)
            | (_SBOX[(s0 >> 8) & _BYTE] << 8) | _SBOX[s1 & _BYTE]) ^ rk(offset + 2)
    out3 = ((_SBOX[(s3 >> 24) & _BYTE] << 24) | (_SBOX[(s0 >> 16) & _BYTE] << 16)
            | (_SBOX[(s1 >> 8) & _BYTE] << 8) | _SBOX[s2 & _BYTE]) ^ rk(offset + 3)
    return out0, out1, out2, out3


def keystream(key: bytes, nonce: bytes, block_count: int, *,
              initial_counter: int = 0) -> bytes:
    """Return ``block_count`` * 16 bytes of AES-CTR keystream.

    Counter blocks are ``nonce (8 bytes) || counter (8 bytes, big endian)``,
    counters running from ``initial_counter`` upward.
    """
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    if block_count < 0:
        raise ValueError("block count must be non-negative")
    if block_count == 0:
        return b""

    cipher = AES(key)
    counters = np.arange(initial_counter, initial_counter + block_count,
                         dtype=np.uint64)

    nonce_hi = int.from_bytes(nonce[0:4], "big")
    nonce_lo = int.from_bytes(nonce[4:8], "big")
    s0 = np.full(block_count, nonce_hi, dtype=np.uint32)
    s1 = np.full(block_count, nonce_lo, dtype=np.uint32)
    s2 = (counters >> np.uint64(32)).astype(np.uint32)
    s3 = (counters & np.uint64(0xFFFFFFFF)).astype(np.uint32)

    schedule = [np.uint32(word) for word in cipher.round_keys]
    out0, out1, out2, out3 = _encrypt_words(schedule.__getitem__, cipher.rounds,
                                            s0, s1, s2, s3)
    words = np.empty((block_count, 4), dtype=np.uint32)
    words[:, 0] = out0
    words[:, 1] = out1
    words[:, 2] = out2
    words[:, 3] = out3
    return words.astype(">u4").tobytes()


def ctr_transform(key: bytes, nonce: bytes, data: bytes, *,
                  initial_counter: int = 0) -> bytes:
    """Encrypt or decrypt ``data`` with AES-CTR (symmetric operation)."""
    if not data:
        return b""
    block_count = (len(data) + 15) // 16
    stream = keystream(key, nonce, block_count, initial_counter=initial_counter)
    data_array = np.frombuffer(data, dtype=np.uint8)
    stream_array = np.frombuffer(stream, dtype=np.uint8)[:len(data)]
    return (data_array ^ stream_array).tobytes()


# ---------------------------------------------------------------------
# Cross-item batches: many (key, nonce, payload) triples in one sweep
# ---------------------------------------------------------------------

_U8 = np.uint32(8)
_U16 = np.uint32(16)
_U24 = np.uint32(24)


def expand_keys_128(keys: "list[bytes] | tuple[bytes, ...]") -> np.ndarray:
    """Vectorised FIPS 197 key expansion for many AES-128 keys at once.

    Returns a ``(len(keys), 44)`` uint32 array whose row ``i`` equals
    ``AES(keys[i]).round_keys``.  The expansion recurrence runs word by
    word (40 steps), but each step is one numpy sweep across every key,
    so a thousand schedules cost about as much as a handful of scalar
    ones.
    """
    n = len(keys)
    for key in keys:
        if len(key) != 16:
            raise ValueError("expand_keys_128 handles 16-byte keys only")
    schedule = np.empty((n, 44), dtype=np.uint32)
    schedule[:, :4] = (np.frombuffer(b"".join(keys), dtype=">u4")
                       .astype(np.uint32).reshape(n, 4))
    for i in range(4, 44):
        temp = schedule[:, i - 1]
        if i % 4 == 0:
            temp = (temp << _U8) | (temp >> _U24)  # RotWord
            temp = ((_SBOX[(temp >> _U24) & _BYTE] << _U24)
                    | (_SBOX[(temp >> _U16) & _BYTE] << _U16)
                    | (_SBOX[(temp >> _U8) & _BYTE] << _U8)
                    | _SBOX[temp & _BYTE])
            temp = temp ^ np.uint32(_aes._RCON[i // 4 - 1] << 24)
        schedule[:, i] = schedule[:, i - 4] ^ temp
    return schedule


def ctr_transform_many(keys, nonces, datas, *,
                       initial_counter: int = 0) -> list[bytes]:
    """AES-CTR over many independent ``(key, nonce, data)`` triples at once.

    One vectorised pass covers *all* items' counter blocks: key schedules
    are expanded in a single numpy sweep (:func:`expand_keys_128`), every
    block carries its item's schedule via one ``(blocks, 44)`` gather, and
    the whole batch shares one round-function evaluation.  Output is
    bit-identical to per-item :func:`ctr_transform` / scalar ``aes_ctr``.

    All keys must be 16 bytes (AES-128, the deployment's data-key width);
    callers with mixed widths fall back to the per-item path.
    """
    if not (len(keys) == len(nonces) == len(datas)):
        raise ValueError("batch arguments must have equal lengths")
    if not keys:
        return []
    for nonce in nonces:
        if len(nonce) != 8:
            raise ValueError("CTR nonce must be 8 bytes")
    if initial_counter < 0:
        raise ValueError("initial counter must be non-negative")

    # Items with empty payloads contribute no blocks but keep their slot.
    live = [i for i, data in enumerate(datas) if data]
    if not live:
        return [b"" for _ in datas]

    counts = np.array([(len(datas[i]) + 15) // 16 for i in live],
                      dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total_blocks = int(offsets[-1])
    item_index = np.repeat(np.arange(len(live)), counts)

    nonce_words = (np.frombuffer(b"".join(nonces[i] for i in live),
                                 dtype=">u4").astype(np.uint32)
                   .reshape(len(live), 2))
    s0 = nonce_words[item_index, 0]
    s1 = nonce_words[item_index, 1]
    counters = (np.arange(total_blocks, dtype=np.uint64)
                - np.repeat(offsets[:-1], counts).astype(np.uint64)
                + np.uint64(initial_counter))
    s2 = (counters >> np.uint64(32)).astype(np.uint32)
    s3 = (counters & np.uint64(0xFFFFFFFF)).astype(np.uint32)

    columns = np.ascontiguousarray(expand_keys_128([keys[i] for i in live]).T)
    out0, out1, out2, out3 = _encrypt_words(
        lambda j: columns[j][item_index], 10, s0, s1, s2, s3)
    words = np.empty((total_blocks, 4), dtype=np.uint32)
    words[:, 0] = out0
    words[:, 1] = out1
    words[:, 2] = out2
    words[:, 3] = out3
    stream = words.astype(">u4").view(np.uint8).reshape(-1)

    # One XOR over a block-aligned concatenation of every payload, then
    # slice each item's bytes back out.
    padded = np.zeros(total_blocks * 16, dtype=np.uint8)
    for j, i in enumerate(live):
        start = int(offsets[j]) * 16
        padded[start:start + len(datas[i])] = np.frombuffer(datas[i],
                                                            dtype=np.uint8)
    mixed = padded ^ stream
    mixed_bytes = mixed.tobytes()

    results: list[bytes] = [b""] * len(datas)
    for j, i in enumerate(live):
        start = int(offsets[j]) * 16
        results[i] = mixed_bytes[start:start + len(datas[i])]
    return results
