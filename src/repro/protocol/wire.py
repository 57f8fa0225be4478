"""Deterministic binary wire codec.

A tiny, explicit length-prefixed format: big-endian fixed-width integers,
``u32``-length-prefixed byte strings, and flag-prefixed optionals.
Modulators are written raw (their width is fixed per deployment and both
sides know it), which matters because the paper's communication-overhead
numbers are dominated by modulator traffic and must not be inflated by
per-modulator framing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional, Sequence

from repro.core.errors import ProtocolError

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


@dataclass(frozen=True)
class WireContext:
    """Per-deployment constants the codec needs (modulator width)."""

    modulator_width: int


class Writer:
    """Appends encoded fields to one ``bytearray`` and a list of parts.

    Scalar fields are appended to the buffer with ``+=``.
    :meth:`modulator_list` checks every width in one pass and appends
    one ``b"".join``.  :meth:`blob_list` copies no blob: it closes the
    buffer into the part list and adds each length prefix and blob to
    that list by reference, so a whole-file reply's ciphertexts are
    copied once, by the one ``b"".join`` in :meth:`getvalue` that builds
    the message.
    """

    __slots__ = ("ctx", "_buf", "_parts")

    def __init__(self, ctx: WireContext) -> None:
        self.ctx = ctx
        self._buf = bytearray()
        self._parts: list = []

    def u8(self, value: int) -> "Writer":
        self._buf += _U8.pack(value)
        return self

    def u16(self, value: int) -> "Writer":
        self._buf += _U16.pack(value)
        return self

    def u32(self, value: int) -> "Writer":
        self._buf += _U32.pack(value)
        return self

    def u64(self, value: int) -> "Writer":
        self._buf += _U64.pack(value)
        return self

    def blob(self, data: bytes) -> "Writer":
        """A ``u32``-length-prefixed byte string."""
        buf = self._buf
        buf += _U32.pack(len(data))
        buf += data
        return self

    def raw(self, data: bytes) -> "Writer":
        """Unframed bytes (caller-defined fixed-width fields)."""
        self._buf += data
        return self

    def modulator(self, value: bytes) -> "Writer":
        """A raw modulator of the deployment's fixed width."""
        width = self.ctx.modulator_width
        if len(value) != width:
            raise ProtocolError(
                f"modulator width {len(value)} != {width}")
        self._buf += value
        return self

    def opt_modulator(self, value: Optional[bytes]) -> "Writer":
        self.u8(1 if value is not None else 0)
        if value is not None:
            self.modulator(value)
        return self

    def modulator_list(self, values: Sequence[bytes]) -> "Writer":
        width = self.ctx.modulator_width
        if set(map(len, values)) - {width}:
            bad = next(len(value) for value in values if len(value) != width)
            raise ProtocolError(f"modulator width {bad} != {width}")
        buf = self._buf
        buf += _U32.pack(len(values))
        buf += b"".join(values)
        return self

    def u64_list(self, values: Sequence[int]) -> "Writer":
        buf = self._buf
        buf += _U32.pack(len(values))
        buf += struct.pack(f">{len(values)}Q", *values)
        return self

    def blob_list(self, values: Sequence[bytes]) -> "Writer":
        buf = self._buf
        buf += _U32.pack(len(values))
        parts = self._parts
        parts.append(buf)
        self._buf = bytearray()
        lengths = set(map(len, values))
        if len(lengths) == 1:
            # Equal lengths (a file's ciphertexts usually are) share one
            # prefix object.
            prefix = _U32.pack(lengths.pop())
            parts.extend(chain.from_iterable(zip(repeat(prefix), values)))
        else:
            pack = _U32.pack
            for value in values:
                parts.append(pack(len(value)))
                parts.append(value)
        return self

    def text(self, value: str) -> "Writer":
        return self.blob(value.encode("utf-8"))

    def getvalue(self) -> bytes:
        parts = self._parts
        if not parts:
            return bytes(self._buf)
        return b"".join((*parts, self._buf))


class Reader:
    """Decodes fields from a byte buffer, tracking its position."""

    def __init__(self, ctx: WireContext, data: bytes) -> None:
        self.ctx = ctx
        self._data = data
        self._pos = 0

    def _take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise ProtocolError("message truncated")
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def blob(self) -> bytes:
        return self._take(self.u32())

    def modulator(self) -> bytes:
        return self._take(self.ctx.modulator_width)

    def opt_modulator(self) -> Optional[bytes]:
        return self.modulator() if self.u8() else None

    def modulator_list(self) -> list[bytes]:
        """One ``count * width`` slice, split at the modulator width."""
        count = self.u32()
        width = self.ctx.modulator_width
        chunk = self._take(count * width)
        return [chunk[i:i + width] for i in range(0, len(chunk), width)]

    def u64_list(self) -> list[int]:
        count = self.u32()
        return list(struct.unpack(f">{count}Q", self._take(8 * count)))

    def blob_list(self) -> list[bytes]:
        """``u32``-prefixed blobs read in one local loop over offsets."""
        count = self.u32()
        data = self._data
        end = len(data)
        pos = self._pos
        unpack_length = _U32.unpack_from
        blobs = []
        append = blobs.append
        for _ in range(count):
            if pos + 4 > end:
                raise ProtocolError("message truncated")
            (length,) = unpack_length(data, pos)
            start = pos + 4
            pos = start + length
            if pos > end:
                raise ProtocolError("message truncated")
            append(data[start:pos])
        self._pos = pos
        return blobs

    def text(self) -> str:
        return self.blob().decode("utf-8")

    def raw(self, count: int) -> bytes:
        """Unframed bytes (caller-defined fixed-width fields)."""
        return self._take(count)

    def remaining(self) -> int:
        """Bytes left to decode."""
        return len(self._data) - self._pos

    def peek_u8(self) -> int:
        """Next byte without consuming it (raises at end of data)."""
        if self._pos >= len(self._data):
            raise ProtocolError("message truncated")
        return self._data[self._pos]

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise ProtocolError(
                f"{len(self._data) - self._pos} trailing bytes in message")
