"""Batch hash entry points (chain steps, item tags, PRF) against hashlib
and against their per-item twins."""

import hashlib
import struct

import pytest

from repro.core.ciphertext import ItemCodec
from repro.core.modulated_chain import ChainEngine
from repro.core.params import Params
from repro.crypto.modes import aes_ctr
from repro.crypto.prf import prf, prf_many


def _tags_match_hashlib(rng, messages):
    """Encrypt ``messages`` as one batch, then check every item tag is
    hashlib's SHA-1 of ``m || r`` and the batch equals per-item encrypt."""
    codec = ItemCodec(Params())
    outputs = [rng.bytes(20) for _ in messages]
    nonces = [rng.bytes(8) for _ in messages]
    item_ids = list(range(7, 7 + len(messages)))
    batch = codec.encrypt_many(outputs, messages, item_ids, nonces)
    assert batch == [codec.encrypt(o, m, i, n)
                     for o, m, i, n in zip(outputs, messages, item_ids, nonces)]
    for output, message, item_id, ciphertext in zip(outputs, messages,
                                                    item_ids, batch):
        payload = aes_ctr(output[:16], ciphertext[:8], ciphertext[8:])
        r = struct.pack(">Q", item_id)
        assert payload[:8] == r and payload[8:-20] == message
        assert payload[-20:] == hashlib.sha1(message + r).digest()


@pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 100, 1000])
def test_equal_length_batches_match_hashlib(count, rng):
    values = [rng.bytes(20) for _ in range(count)]
    modulators = [rng.bytes(20) for _ in range(count)]
    expected = [hashlib.sha1(bytes(a ^ b for a, b in zip(v, x))).digest()
                for v, x in zip(values, modulators)]
    assert ChainEngine().step_many(values, modulators) == expected


@pytest.mark.parametrize("length", [0, 1, 55, 56, 57, 63, 64, 65, 119, 120,
                                    128, 4096])
def test_padding_boundaries(length, rng):
    _tags_match_hashlib(rng, [rng.bytes(length) for _ in range(20)])


def test_mixed_lengths(rng):
    messages = ([rng.bytes(20) for _ in range(30)]
                + [rng.bytes(100) for _ in range(30)]
                + [b"", b"x", rng.bytes(4104)])
    rng.shuffle(messages)
    _tags_match_hashlib(rng, messages)


def test_prf_many_matches_scalar():
    key = b"k" * 16
    indices = list(range(100))
    batched = prf_many(key, indices, length=20)
    assert batched == [prf(key, i, length=20) for i in indices]


def test_prf_many_long_key_and_small_batches():
    key = b"K" * 100  # longer than the block size: pre-hashed
    indices = [5, 6, 7]
    assert prf_many(key, indices) == [prf(key, i) for i in indices]
    indices = list(range(40))
    assert prf_many(key, indices, length=16) == \
        [prf(key, i, length=16) for i in indices]


def test_step_many_matches_step(rng):
    engine = ChainEngine()
    values = [rng.bytes(20) for _ in range(64)]
    modulators = [rng.bytes(20) for _ in range(64)]
    before = engine.hash_calls
    batched = engine.step_many(values, modulators)
    assert engine.hash_calls - before == 64
    assert batched == [ChainEngine().step(v, m)
                       for v, m in zip(values, modulators)]
    with pytest.raises(ValueError):
        engine.step_many(values, modulators[:-1])


def test_codec_batch_matches_scalar(rng):
    codec = ItemCodec(Params())
    outputs = [rng.bytes(20) for _ in range(40)]
    messages = [rng.bytes(100) for _ in range(40)]
    item_ids = list(range(1, 41))
    nonces = [rng.bytes(8) for _ in range(40)]
    batched = codec.encrypt_many(outputs, messages, item_ids, nonces)
    scalar = [codec.encrypt(o, m, i, n)
              for o, m, i, n in zip(outputs, messages, item_ids, nonces)]
    assert batched == scalar
    assert codec.decrypt_many(outputs, batched) == \
        [(m, i) for m, i in zip(messages, item_ids)]


def test_codec_batch_detects_tampering(rng):
    from repro.core.errors import IntegrityError
    codec = ItemCodec(Params())
    outputs = [rng.bytes(20) for _ in range(20)]
    ciphertexts = codec.encrypt_many(outputs, [b"m"] * 20, list(range(20)),
                                     [rng.bytes(8) for _ in range(20)])
    tampered = list(ciphertexts)
    tampered[13] = tampered[13][:-1] + bytes([tampered[13][-1] ^ 1])
    with pytest.raises(IntegrityError):
        codec.decrypt_many(outputs, tampered)
