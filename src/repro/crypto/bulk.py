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

from itertools import accumulate

import numpy as np

from repro.crypto import aes as _aes

_T0 = np.array(_aes.T0, dtype=np.uint32)
_T1 = np.array(_aes.T1, dtype=np.uint32)
_T2 = np.array(_aes.T2, dtype=np.uint32)
_T3 = np.array(_aes.T3, dtype=np.uint32)
_SBOX = np.array(list(_aes.SBOX), dtype=np.uint32)

_BYTE = np.uint32(0xFF)


def _encrypt_words(columns: np.ndarray, item_index: np.ndarray,
                   s0: np.ndarray, s1: np.ndarray, s2: np.ndarray,
                   s3: np.ndarray) -> tuple[np.ndarray, ...]:
    """Run AES-128 on N parallel states (uint32 words).

    ``columns[j]`` is word ``j`` of every item's key schedule and
    ``item_index`` maps each state to its item; each round gathers its
    words as it needs them, so a batch never holds all 44 words per
    block at once.  Table lookups use ``take``, which is markedly faster
    than fancy indexing, and ``x >> 24`` of a uint32 needs no mask.
    """
    t0_, t1_, t2_, t3_ = _T0.take, _T1.take, _T2.take, _T3.take
    sbox = _SBOX.take

    def rk(j: int) -> np.ndarray:
        return columns[j].take(item_index)

    s0 = s0 ^ rk(0)
    s1 = s1 ^ rk(1)
    s2 = s2 ^ rk(2)
    s3 = s3 ^ rk(3)

    offset = 4
    for _ in range(9):
        t0 = (t0_(s0 >> 24) ^ t1_((s1 >> 16) & _BYTE)
              ^ t2_((s2 >> 8) & _BYTE) ^ t3_(s3 & _BYTE) ^ rk(offset))
        t1 = (t0_(s1 >> 24) ^ t1_((s2 >> 16) & _BYTE)
              ^ t2_((s3 >> 8) & _BYTE) ^ t3_(s0 & _BYTE) ^ rk(offset + 1))
        t2 = (t0_(s2 >> 24) ^ t1_((s3 >> 16) & _BYTE)
              ^ t2_((s0 >> 8) & _BYTE) ^ t3_(s1 & _BYTE) ^ rk(offset + 2))
        t3 = (t0_(s3 >> 24) ^ t1_((s0 >> 16) & _BYTE)
              ^ t2_((s1 >> 8) & _BYTE) ^ t3_(s2 & _BYTE) ^ rk(offset + 3))
        s0, s1, s2, s3 = t0, t1, t2, t3
        offset += 4

    out0 = ((sbox(s0 >> 24) << 24) | (sbox((s1 >> 16) & _BYTE) << 16)
            | (sbox((s2 >> 8) & _BYTE) << 8) | sbox(s3 & _BYTE)) ^ rk(offset)
    out1 = ((sbox(s1 >> 24) << 24) | (sbox((s2 >> 16) & _BYTE) << 16)
            | (sbox((s3 >> 8) & _BYTE) << 8) | sbox(s0 & _BYTE)) ^ rk(offset + 1)
    out2 = ((sbox(s2 >> 24) << 24) | (sbox((s3 >> 16) & _BYTE) << 16)
            | (sbox((s0 >> 8) & _BYTE) << 8) | sbox(s1 & _BYTE)) ^ rk(offset + 2)
    out3 = ((sbox(s3 >> 24) << 24) | (sbox((s0 >> 16) & _BYTE) << 16)
            | (sbox((s1 >> 8) & _BYTE) << 8) | sbox(s2 & _BYTE)) ^ rk(offset + 3)
    return out0, out1, out2, out3


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
    block gathers its item's round keys as each round needs them, and
    the whole batch shares one round-function evaluation.  Output is
    bit-identical to per-item ``aes_ctr`` and ``aes_ctr_scalar``.

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
    counts = [(len(data) + 15) >> 4 for data in datas]
    starts = [0, *accumulate(counts)]
    total_blocks = starts[-1]
    if not total_blocks:
        return [b""] * len(datas)
    item_index = np.repeat(np.arange(len(datas)), counts)

    nonce_words = (np.frombuffer(b"".join(nonces), dtype=">u4")
                   .astype(np.uint32).reshape(len(datas), 2))
    s0 = nonce_words[item_index, 0]
    s1 = nonce_words[item_index, 1]
    counters = (np.arange(total_blocks, dtype=np.uint64)
                - np.repeat(np.array(starts[:-1], dtype=np.uint64), counts)
                + np.uint64(initial_counter))
    s2 = (counters >> np.uint64(32)).astype(np.uint32)
    s3 = (counters & np.uint64(0xFFFFFFFF)).astype(np.uint32)

    columns = np.ascontiguousarray(expand_keys_128(keys).T)
    out0, out1, out2, out3 = _encrypt_words(columns, item_index,
                                            s0, s1, s2, s3)
    stream = (np.stack((out0, out1, out2, out3), axis=1).astype(">u4")
              .view(np.uint8).reshape(-1))

    # One XOR over a block-aligned concatenation of every payload, then
    # slice each item's bytes back out at its first block.
    padded = b"".join([data.ljust(count << 4, b"\x00")
                       for data, count in zip(datas, counts)])
    mixed = (np.frombuffer(padded, dtype=np.uint8) ^ stream).tobytes()
    return [mixed[start << 4:(start << 4) + len(data)]
            for start, data in zip(starts, datas)]
