"""Batched AES-CTR (``aes_ctr_many``) against the scalar reference.

Every batch runs through one OpenSSL cipher context re-keyed per item;
these tests pin it bit-for-bit to per-item ``aes_ctr``/``aes_ctr_scalar``
and cover the output-buffer corner cases (empty payloads, sub-block
payloads, mixed key sizes, large batches, counter offsets), thread
safety and the fail-closed handling of a failing EVP call.
"""

import sys
import threading

import pytest

from repro.crypto import modes
from repro.crypto.modes import aes_ctr, aes_ctr_many, aes_ctr_scalar


def _batch(rng, sizes, key_sizes=(16,)):
    keys = [rng.bytes(key_sizes[i % len(key_sizes)])
            for i in range(len(sizes))]
    nonces = [rng.bytes(8) for _ in sizes]
    datas = [rng.bytes(size) for size in sizes]
    return keys, nonces, datas


@pytest.mark.parametrize("sizes", [
    [1, 16, 17, 160, 4096],
    [0, 5, 0, 33],               # empty payloads keep their slots
    [15] * 40,                   # all sub-block
    [100],                       # single item
    [0],                         # single empty item
])
def test_matches_per_item_reference(rng, sizes):
    keys, nonces, datas = _batch(rng, sizes)
    batch = aes_ctr_many(keys, nonces, datas)
    assert len(batch) == len(sizes)
    for key, nonce, data, out in zip(keys, nonces, datas, batch):
        assert out == aes_ctr_scalar(key, nonce, data)


def test_mixed_key_sizes_and_payloads_in_one_batch(rng):
    """One call that switches between AES-128/192/256 from item to item,
    with empty and multi-block payloads in between."""
    sizes = [0, 1, 48, 0, 100, 16, 0, 333, 15, 64, 0, 17]
    keys, nonces, datas = _batch(rng, sizes, key_sizes=(16, 24, 32, 32, 24))
    for initial in (0, 9):
        batch = aes_ctr_many(keys, nonces, datas, initial_counter=initial)
        assert batch == [
            aes_ctr_scalar(key, nonce, data, initial_counter=initial)
            for key, nonce, data in zip(keys, nonces, datas)]


def test_initial_counter_offsets(rng):
    keys, nonces, datas = _batch(rng, [48, 31, 16])
    batch = aes_ctr_many(keys, nonces, datas, initial_counter=7)
    for key, nonce, data, out in zip(keys, nonces, datas, batch):
        assert out == aes_ctr_scalar(key, nonce, data, initial_counter=7)


def test_repeated_keys_and_nonces_share_nothing_wrongly(rng):
    """Identical (key, nonce) pairs in different slots must still get
    independent, correct counter runs."""
    key, nonce = rng.bytes(16), rng.bytes(8)
    datas = [rng.bytes(40), rng.bytes(40), rng.bytes(24)]
    batch = aes_ctr_many([key] * 3, [nonce] * 3, datas)
    for data, out in zip(datas, batch):
        assert out == aes_ctr_scalar(key, nonce, data)


def test_large_batch(rng):
    sizes = [(i * 37) % 90 for i in range(300)]
    keys, nonces, datas = _batch(rng, sizes)
    batch = aes_ctr_many(keys, nonces, datas)
    for key, nonce, data, out in zip(keys, nonces, datas, batch):
        assert out == aes_ctr(key, nonce, data)


def test_empty_batch():
    assert aes_ctr_many([], [], []) == []


def test_rejects_bad_arguments(rng):
    with pytest.raises(ValueError):
        aes_ctr_many([rng.bytes(16)], [rng.bytes(8)], [])
    with pytest.raises(ValueError):
        aes_ctr_many([rng.bytes(16)], [rng.bytes(7)], [b"x"])
    with pytest.raises(ValueError):
        aes_ctr_many([rng.bytes(16)], [rng.bytes(8)], [b"x"],
                     initial_counter=-1)
    with pytest.raises(ValueError):
        aes_ctr_many([rng.bytes(16), rng.bytes(20)], [rng.bytes(8)] * 2,
                     [b"x", b"y"])


def test_aes_ctr_many_dispatch(rng):
    """The batch call matches per-item calls for every key mix."""
    keys, nonces, datas = _batch(rng, [10, 50, 0])
    assert aes_ctr_many(keys, nonces, datas) == [
        aes_ctr(k, nc, d) for k, nc, d in zip(keys, nonces, datas)]
    keys[1] = rng.bytes(32)
    assert aes_ctr_many(keys, nonces, datas) == [
        aes_ctr(k, nc, d) for k, nc, d in zip(keys, nonces, datas)]
    with pytest.raises(ValueError):
        aes_ctr_many(keys, nonces[:2], datas)


def test_threads_get_bit_identical_output(rng):
    """8 threads x 200 calls: each call has its own cipher context, so
    concurrent batches never see each other's keys."""
    keys, nonces, datas = _batch(rng, [0, 5, 64, 300, 17],
                                 key_sizes=(16, 24, 32))
    expected = [aes_ctr_scalar(k, nc, d)
                for k, nc, d in zip(keys, nonces, datas)]
    mismatches = []

    def worker():
        for call in range(200):
            got = (aes_ctr_many(keys, nonces, datas) if call % 2 else
                   [aes_ctr(k, nc, d) for k, nc, d in zip(keys, nonces, datas)])
            if got != expected:
                mismatches.append(call)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


@pytest.mark.parametrize("call", ["init", "update"])
def test_failing_evp_call_raises_and_frees_the_context(rng, monkeypatch,
                                                      call):
    """An EVP call that reports failure (returns 0) raises; no output is
    returned and the cipher context is still freed."""
    keys, nonces, datas = _batch(rng, [32, 0, 16])
    evp = modes._evp()
    freed = []
    real_free = evp.ctx_free

    def counting_free(ctx):
        freed.append(ctx)
        real_free(ctx)

    monkeypatch.setattr(evp, call, lambda *args: 0)
    monkeypatch.setattr(evp, "ctx_free", counting_free)
    results = []
    with pytest.raises(RuntimeError, match="OpenSSL EVP_Encrypt"):
        results.append(aes_ctr_many(keys, nonces, datas))
    with pytest.raises(RuntimeError):
        results.append(aes_ctr(keys[0], nonces[0], datas[0]))
    assert results == []
    assert len(freed) == 2


#: Argument positions that C takes as pointers: (ctx, cipher, key, iv,
#: params) for ``EVP_EncryptInit_ex2`` and (ctx, out, outl, in) for
#: ``EVP_EncryptUpdate``, whose fifth argument is the ``int`` length.
_POINTER_ARGS = {"init": range(5), "update": range(4)}


def test_no_pointer_argument_is_a_bare_int(rng, monkeypatch):
    """``init`` and ``update`` declare no ``argtypes``, so ctypes would pass
    a Python int as a C ``int`` -- a truncated pointer.  Every pointer
    argument must be a ctypes object, ``bytes`` or ``None``."""
    evp = modes._evp()
    seen = []

    def checked(call):
        real = getattr(evp, call)

        def wrapper(*args):
            for position in _POINTER_ARGS[call]:
                assert not isinstance(args[position], int), (call, position)
            seen.append(call)
            return real(*args)
        return wrapper

    keys, nonces, datas = _batch(rng, [1, 48, 0, 100, 16, 333],
                                 key_sizes=(16, 24, 32))
    for call in _POINTER_ARGS:
        monkeypatch.setattr(evp, call, checked(call))
    assert aes_ctr_many(keys, nonces, datas) == [
        aes_ctr_scalar(k, nc, d) for k, nc, d in zip(keys, nonces, datas)]
    assert aes_ctr(keys[1], nonces[1], datas[1]) == aes_ctr_scalar(
        keys[1], nonces[1], datas[1])
    # Five non-empty items in the batch and one more alone, two calls each.
    assert sorted(seen) == ["init"] * 6 + ["update"] * 6


def test_short_update_raises(rng, monkeypatch):
    """An update that reports success but writes fewer bytes than asked
    is a failure too."""
    key, nonce, data = rng.bytes(16), rng.bytes(8), rng.bytes(40)
    evp = modes._evp()
    real_update = evp.update

    def short(ctx, out, written, data, size):
        return real_update(ctx, out, written, data, size - 1)

    monkeypatch.setattr(evp, "update", short)
    with pytest.raises(RuntimeError, match="EVP_EncryptUpdate"):
        aes_ctr(key, nonce, data)


def test_transform_is_involution(rng):
    keys, nonces, datas = _batch(rng, [64, 33, 7])
    once = aes_ctr_many(keys, nonces, datas)
    twice = aes_ctr_many(keys, nonces, once)
    assert twice == datas
