"""Modulator store backends: dense, lazy, and their shared contract."""

import pytest

from repro.core.modstore import DenseModulatorStore, LazySeededStore
from repro.crypto.rng import DeterministicRandom


@pytest.fixture(params=["dense", "lazy"])
def store(request):
    if request.param == "dense":
        return DenseModulatorStore(20)
    return LazySeededStore(20, b"store-seed")


def test_set_get_roundtrip(store):
    store.set_link(5, b"L" * 20)
    store.set_leaf(5, b"F" * 20)
    assert store.get_link(5) == b"L" * 20
    assert store.get_leaf(5) == b"F" * 20


def test_overwrite(store):
    store.set_link(2, b"a" * 20)
    store.set_link(2, b"b" * 20)
    assert store.get_link(2) == b"b" * 20


def test_width_validation(store):
    for bad in (b"", b"x" * 19, b"x" * 21):
        with pytest.raises(ValueError):
            store.set_link(1, bad)
        with pytest.raises(ValueError):
            store.set_leaf(1, bad)


def test_dense_missing_slot_raises():
    store = DenseModulatorStore(20)
    with pytest.raises(KeyError):
        store.get_link(3)
    with pytest.raises(KeyError):
        store.get_leaf(3)


def test_dense_bulk_fill_matches_sequential():
    rng_a = DeterministicRandom("fill")
    rng_b = DeterministicRandom("fill")
    bulk = DenseModulatorStore(20)
    bulk.bulk_fill(rng_a, link_slots=range(2, 10), leaf_slots=range(5, 10))

    manual = DenseModulatorStore(20)
    block = rng_b.bytes(8 * 20)
    for i, slot in enumerate(range(2, 10)):
        manual.set_link(slot, block[i * 20:(i + 1) * 20])
    block = rng_b.bytes(5 * 20)
    for i, slot in enumerate(range(5, 10)):
        manual.set_leaf(slot, block[i * 20:(i + 1) * 20])

    for slot in range(2, 10):
        assert bulk.get_link(slot) == manual.get_link(slot)
    for slot in range(5, 10):
        assert bulk.get_leaf(slot) == manual.get_leaf(slot)


def test_lazy_derivation_is_deterministic():
    a = LazySeededStore(20, b"seed")
    b = LazySeededStore(20, b"seed")
    assert a.get_link(12345) == b.get_link(12345)
    assert a.get_leaf(12345) == b.get_leaf(12345)
    assert a.get_link(12345) != a.get_leaf(12345)
    assert a.get_link(1) != a.get_link(2)


def test_lazy_different_seeds_differ():
    assert LazySeededStore(20, b"s1").get_link(7) != \
        LazySeededStore(20, b"s2").get_link(7)


def test_lazy_overlay_shadows_derivation():
    store = LazySeededStore(20, b"seed")
    derived = store.get_link(9)
    store.set_link(9, b"X" * 20)
    assert store.get_link(9) == b"X" * 20
    assert store.get_link(9) != derived
    assert store.overlay_size == 1


def test_lazy_wide_modulators():
    store = LazySeededStore(32, b"seed")
    assert len(store.get_link(1)) == 32
    with pytest.raises(ValueError):
        LazySeededStore(33, b"seed")


def test_width_must_be_positive():
    with pytest.raises(ValueError):
        DenseModulatorStore(0)


def test_dense_truncate_drops_high_slots():
    store = DenseModulatorStore(20)
    for slot in range(1, 9):
        store.set_link(slot, bytes([slot]) * 20)
        store.set_leaf(slot, bytes([slot + 100]) * 20)
    store.truncate(6)
    assert store.get_link(5) == bytes([5]) * 20
    assert store.get_leaf(5) == bytes([105]) * 20
    for slot in (6, 7, 8):
        with pytest.raises(KeyError):
            store.get_link(slot)
        with pytest.raises(KeyError):
            store.get_leaf(slot)
    store.set_leaf(7, b"n" * 20)  # regrows on demand
    assert store.get_leaf(7) == b"n" * 20


def test_lazy_truncate_is_a_noop():
    store = LazySeededStore(20, b"store-seed")
    store.set_link(9, b"L" * 20)
    store.truncate(2)
    assert store.get_link(9) == b"L" * 20
