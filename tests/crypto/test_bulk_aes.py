"""Cross-item bulk AES-CTR against the scalar reference (ISSUE 5).

``ctr_transform_many`` runs every item's counter blocks through one
vectorised sweep with per-block key schedules; these tests pin it
bit-for-bit to per-item ``aes_ctr``/``aes_ctr_scalar`` and cover the
lane-layout corner cases (empty payloads, sub-block payloads, huge
batches, counter offsets).
"""

import pytest

from repro.crypto.aes import AES
from repro.crypto.bulk import ctr_transform_many, expand_keys_128
from repro.crypto.modes import aes_ctr, aes_ctr_many, aes_ctr_scalar


def _batch(rng, sizes):
    keys = [rng.bytes(16) for _ in sizes]
    nonces = [rng.bytes(8) for _ in sizes]
    datas = [rng.bytes(size) for size in sizes]
    return keys, nonces, datas


def test_expand_keys_matches_scalar_schedule(rng):
    keys = [rng.bytes(16) for _ in range(37)]
    schedules = expand_keys_128(keys)
    for i, key in enumerate(keys):
        assert tuple(int(w) for w in schedules[i]) == AES(key).round_keys


def test_expand_keys_rejects_non_128_bit_keys(rng):
    with pytest.raises(ValueError):
        expand_keys_128([rng.bytes(16), rng.bytes(24)])


@pytest.mark.parametrize("sizes", [
    [1, 16, 17, 160, 4096],
    [0, 5, 0, 33],               # empty payloads keep their slots
    [15] * 40,                   # all sub-block
    [100],                       # single item
    [0],                         # single empty item
])
def test_matches_per_item_reference(rng, sizes):
    keys, nonces, datas = _batch(rng, sizes)
    batch = ctr_transform_many(keys, nonces, datas)
    assert len(batch) == len(sizes)
    for key, nonce, data, out in zip(keys, nonces, datas, batch):
        assert out == aes_ctr_scalar(key, nonce, data)


def test_initial_counter_offsets(rng):
    keys, nonces, datas = _batch(rng, [48, 31, 16])
    batch = ctr_transform_many(keys, nonces, datas, initial_counter=7)
    for key, nonce, data, out in zip(keys, nonces, datas, batch):
        assert out == aes_ctr_scalar(key, nonce, data, initial_counter=7)


def test_repeated_keys_and_nonces_share_nothing_wrongly(rng):
    """Identical (key, nonce) pairs in different slots must still get
    independent, correct counter runs."""
    key, nonce = rng.bytes(16), rng.bytes(8)
    datas = [rng.bytes(40), rng.bytes(40), rng.bytes(24)]
    batch = ctr_transform_many([key] * 3, [nonce] * 3, datas)
    for data, out in zip(datas, batch):
        assert out == aes_ctr_scalar(key, nonce, data)


def test_large_batch(rng):
    sizes = [(i * 37) % 90 for i in range(300)]
    keys, nonces, datas = _batch(rng, sizes)
    batch = ctr_transform_many(keys, nonces, datas)
    for key, nonce, data, out in zip(keys, nonces, datas, batch):
        assert out == aes_ctr(key, nonce, data)


def test_empty_batch():
    assert ctr_transform_many([], [], []) == []


def test_rejects_bad_arguments(rng):
    with pytest.raises(ValueError):
        ctr_transform_many([rng.bytes(16)], [rng.bytes(8)], [])
    with pytest.raises(ValueError):
        ctr_transform_many([rng.bytes(16)], [rng.bytes(7)], [b"x"])
    with pytest.raises(ValueError):
        ctr_transform_many([rng.bytes(16)], [rng.bytes(8)], [b"x"],
                           initial_counter=-1)
    with pytest.raises(ValueError):
        ctr_transform_many([rng.bytes(24)], [rng.bytes(8)], [b"x", b"y"][:1])


def test_aes_ctr_many_dispatch(rng):
    """The modes-level wrapper matches per-item calls for every key mix."""
    keys, nonces, datas = _batch(rng, [10, 50, 0])
    assert aes_ctr_many(keys, nonces, datas) == [
        aes_ctr(k, nc, d) for k, nc, d in zip(keys, nonces, datas)]
    # A 32-byte key forces the per-item path; results still match.
    keys[1] = rng.bytes(32)
    assert aes_ctr_many(keys, nonces, datas) == [
        aes_ctr(k, nc, d) for k, nc, d in zip(keys, nonces, datas)]
    with pytest.raises(ValueError):
        aes_ctr_many(keys, nonces[:2], datas)


@pytest.mark.parametrize("count, size, key_size, bulk", [
    (128, 256, 16, True),     # many small items: one numpy sweep
    (128, 257, 16, False),    # mean above 16 blocks: per-item OpenSSL
    (127, 256, 16, False),    # too few items to amortise the sweep
    (128, 256, 32, False),    # the sweep expands 16-byte keys only
])
def test_aes_ctr_many_bulk_cutoff(rng, monkeypatch, count, size, key_size,
                                  bulk):
    import repro.crypto.bulk as bulk_module
    sweeps = []
    real = bulk_module.ctr_transform_many

    def counting(*args, **kwargs):
        sweeps.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(bulk_module, "ctr_transform_many", counting)
    keys = [rng.bytes(key_size) for _ in range(count)]
    nonces = [rng.bytes(8) for _ in range(count)]
    datas = [rng.bytes(size) for _ in range(count)]
    assert aes_ctr_many(keys, nonces, datas) == [
        aes_ctr(k, nc, d) for k, nc, d in zip(keys, nonces, datas)]
    assert sweeps == ([count] if bulk else [])


def test_transform_is_involution(rng):
    keys, nonces, datas = _batch(rng, [64, 33, 7])
    once = ctr_transform_many(keys, nonces, datas)
    twice = ctr_transform_many(keys, nonces, once)
    assert twice == datas
