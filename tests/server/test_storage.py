"""Ciphertext storage backends."""

import pytest

from repro.core.errors import UnknownItemError
from repro.server.storage import (CallbackCiphertextStore,
                                  InMemoryCiphertextStore)


@pytest.fixture(params=["memory"])
def store():
    return InMemoryCiphertextStore()


def test_put_get_delete(store):
    store.put(1, b"ciphertext-one")
    assert store.get(1) == b"ciphertext-one"
    store.put(1, b"replaced")
    assert store.get(1) == b"replaced"
    store.delete(1)
    with pytest.raises(UnknownItemError):
        store.get(1)


def test_delete_is_idempotent(store):
    store.delete(42)
    store.delete(42)


def test_missing_item(store):
    with pytest.raises(UnknownItemError):
        store.get(7)


def test_in_memory_len_and_ids():
    store = InMemoryCiphertextStore()
    store.put(1, b"a")
    store.put(2, b"b")
    assert len(store) == 2
    assert sorted(store.item_ids()) == [1, 2]


def test_callback_store_derives_and_overlays():
    store = CallbackCiphertextStore(lambda item_id: b"derived-%d" % item_id)
    assert store.get(5) == b"derived-5"
    store.put(5, b"written")
    assert store.get(5) == b"written"
    store.delete(5)
    with pytest.raises(UnknownItemError):
        store.get(5)
    # Other items still derive.
    assert store.get(6) == b"derived-6"
    # Re-put after delete resurrects (used by insert-after-delete flows).
    store.put(5, b"again")
    assert store.get(5) == b"again"
