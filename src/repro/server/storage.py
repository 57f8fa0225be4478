"""Ciphertext storage backends for the cloud server.

The server stores one ciphertext per live item, keyed by item id.  Two
backends share one interface (durable server state lives in the
engines of :mod:`repro.server.engine`):

* :class:`InMemoryCiphertextStore` -- dict-backed, the default.
* :class:`CallbackCiphertextStore` -- derives untouched ciphertexts from a
  callback and keeps writes in an overlay.  Like the lazily-seeded
  modulator store, it exists only so benchmarks can stand up 10^7-item
  files without materialising tens of gigabytes; the callback emulates
  what the client would have uploaded.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterator, Sequence

from repro.core.errors import UnknownItemError


class CiphertextStore(abc.ABC):
    """Item-id addressed ciphertext storage."""

    @abc.abstractmethod
    def get(self, item_id: int) -> bytes:
        """Return the ciphertext of ``item_id`` (raises UnknownItemError)."""

    def get_many(self, item_ids: Sequence[int]) -> list[bytes]:
        """Ciphertexts of ``item_ids``, in the given order (raises
        UnknownItemError if any is absent)."""
        return [self.get(item_id) for item_id in item_ids]

    @abc.abstractmethod
    def put(self, item_id: int, ciphertext: bytes) -> None:
        """Store (or replace) the ciphertext of ``item_id``."""

    @abc.abstractmethod
    def delete(self, item_id: int) -> None:
        """Discard the ciphertext of ``item_id`` (idempotent)."""


class InMemoryCiphertextStore(CiphertextStore):
    """Dict-backed store, the default for all functional use."""

    def __init__(self) -> None:
        self._items: dict[int, bytes] = {}

    def get(self, item_id: int) -> bytes:
        try:
            return self._items[item_id]
        except KeyError:
            raise UnknownItemError(f"no ciphertext for item {item_id}") from None

    def get_many(self, item_ids: Sequence[int]) -> list[bytes]:
        try:
            return list(map(self._items.__getitem__, item_ids))
        except KeyError as exc:
            raise UnknownItemError(
                f"no ciphertext for item {exc.args[0]}") from None

    def put(self, item_id: int, ciphertext: bytes) -> None:
        self._items[item_id] = bytes(ciphertext)

    def delete(self, item_id: int) -> None:
        self._items.pop(item_id, None)

    def __len__(self) -> int:
        return len(self._items)

    def item_ids(self) -> Iterator[int]:
        return iter(self._items)


class CallbackCiphertextStore(CiphertextStore):
    """Benchmark-scale store deriving base ciphertexts from a callback."""

    def __init__(self, derive: Callable[[int], bytes]) -> None:
        self._derive = derive
        self._overlay: dict[int, bytes] = {}
        self._deleted: set[int] = set()

    def get(self, item_id: int) -> bytes:
        if item_id in self._deleted:
            raise UnknownItemError(f"no ciphertext for item {item_id}")
        if item_id in self._overlay:
            return self._overlay[item_id]
        return self._derive(item_id)

    def put(self, item_id: int, ciphertext: bytes) -> None:
        self._deleted.discard(item_id)
        self._overlay[item_id] = bytes(ciphertext)

    def delete(self, item_id: int) -> None:
        self._overlay.pop(item_id, None)
        self._deleted.add(item_id)
