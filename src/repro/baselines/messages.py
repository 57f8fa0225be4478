"""Protocol messages for the baseline solutions.

The Section III baselines need only a flat blob store: upload all, fetch
one, fetch all, replace all, put one, delete one.  They use the same wire
codec and metering channel as the key-modulation protocol so Tables I/II
compare exact bytes on equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.protocol.messages import Message, register
from repro.protocol.wire import Reader, Writer


def _write_items(w: Writer, item_ids: tuple[int, ...],
                 blobs: tuple[bytes, ...]) -> None:
    w.u64_list(item_ids)
    w.blob_list(blobs)


def _read_items(r: Reader) -> tuple[tuple[int, ...], tuple[bytes, ...]]:
    item_ids = tuple(r.u64_list())
    blobs = tuple(r.blob_list())
    return item_ids, blobs


@register
@dataclass(frozen=True)
class BlobUploadAll(Message):
    """Upload (or wholly replace) a file's ciphertexts."""

    TYPE: ClassVar[int] = 32
    file_id: int = 0
    item_ids: tuple[int, ...] = ()
    ciphertexts: tuple[bytes, ...] = ()

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id)
        _write_items(w, self.item_ids, self.ciphertexts)

    @classmethod
    def decode_body(cls, r: Reader) -> "BlobUploadAll":
        file_id = r.u64()
        item_ids, ciphertexts = _read_items(r)
        return cls(file_id=file_id, item_ids=item_ids, ciphertexts=ciphertexts)

    def payload_bytes(self) -> int:
        return 4 * len(self.ciphertexts) + sum(map(len, self.ciphertexts))


@register
@dataclass(frozen=True)
class BlobGet(Message):
    """Fetch one ciphertext."""

    TYPE: ClassVar[int] = 33
    file_id: int = 0
    item_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id).u64(self.item_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "BlobGet":
        return cls(file_id=r.u64(), item_id=r.u64())


@register
@dataclass(frozen=True)
class BlobReply(Message):
    """One ciphertext."""

    TYPE: ClassVar[int] = 34
    ciphertext: bytes = b""

    def encode_body(self, w: Writer) -> None:
        w.blob(self.ciphertext)

    @classmethod
    def decode_body(cls, r: Reader) -> "BlobReply":
        return cls(ciphertext=r.blob())

    def payload_bytes(self) -> int:
        return 4 + len(self.ciphertext)


@register
@dataclass(frozen=True)
class BlobGetAll(Message):
    """Fetch every ciphertext of a file."""

    TYPE: ClassVar[int] = 35
    file_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "BlobGetAll":
        return cls(file_id=r.u64())


@register
@dataclass(frozen=True)
class BlobAllReply(Message):
    """Every ciphertext of a file."""

    TYPE: ClassVar[int] = 36
    item_ids: tuple[int, ...] = ()
    ciphertexts: tuple[bytes, ...] = ()

    def encode_body(self, w: Writer) -> None:
        _write_items(w, self.item_ids, self.ciphertexts)

    @classmethod
    def decode_body(cls, r: Reader) -> "BlobAllReply":
        item_ids, ciphertexts = _read_items(r)
        return cls(item_ids=item_ids, ciphertexts=ciphertexts)

    def payload_bytes(self) -> int:
        return 4 * len(self.ciphertexts) + sum(map(len, self.ciphertexts))


@register
@dataclass(frozen=True)
class BlobPut(Message):
    """Store (or replace) one ciphertext."""

    TYPE: ClassVar[int] = 37
    file_id: int = 0
    item_id: int = 0
    ciphertext: bytes = b""

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id).u64(self.item_id).blob(self.ciphertext)

    @classmethod
    def decode_body(cls, r: Reader) -> "BlobPut":
        return cls(file_id=r.u64(), item_id=r.u64(), ciphertext=r.blob())

    def payload_bytes(self) -> int:
        return 4 + len(self.ciphertext)


@register
@dataclass(frozen=True)
class BlobDelete(Message):
    """Discard one ciphertext (plain removal, nothing assured)."""

    TYPE: ClassVar[int] = 38
    file_id: int = 0
    item_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id).u64(self.item_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "BlobDelete":
        return cls(file_id=r.u64(), item_id=r.u64())
