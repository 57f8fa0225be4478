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
from typing import Optional, Sequence

from repro.core.errors import ProtocolError

_U32 = struct.Struct(">I")


@dataclass(frozen=True)
class WireContext:
    """Per-deployment constants the codec needs (modulator width)."""

    modulator_width: int


class Writer:
    """Accumulates encoded fields into one growable ``bytearray``.

    Fields are packed in place with :func:`struct.pack_into` rather than
    collected as per-field ``bytes`` parts: encoding a large reply then
    costs one buffer (amortised doubling) instead of thousands of small
    allocations plus a final join.  The produced bytes are identical to
    the part-list encoder this replaced.
    """

    __slots__ = ("ctx", "_buf", "_pos")

    _INITIAL_CAPACITY = 128

    def __init__(self, ctx: WireContext) -> None:
        self.ctx = ctx
        self._buf = bytearray(self._INITIAL_CAPACITY)
        self._pos = 0

    def _reserve(self, count: int) -> int:
        """Grow the buffer to fit ``count`` more bytes; return the offset."""
        pos = self._pos
        needed = pos + count
        if needed > len(self._buf):
            self._buf.extend(bytearray(max(needed - len(self._buf),
                                           len(self._buf))))
        self._pos = needed
        return pos

    def u8(self, value: int) -> "Writer":
        struct.pack_into(">B", self._buf, self._reserve(1), value)
        return self

    def u16(self, value: int) -> "Writer":
        struct.pack_into(">H", self._buf, self._reserve(2), value)
        return self

    def u32(self, value: int) -> "Writer":
        struct.pack_into(">I", self._buf, self._reserve(4), value)
        return self

    def u64(self, value: int) -> "Writer":
        struct.pack_into(">Q", self._buf, self._reserve(8), value)
        return self

    def blob(self, data: bytes) -> "Writer":
        """A ``u32``-length-prefixed byte string."""
        offset = self._reserve(4 + len(data))
        struct.pack_into(">I", self._buf, offset, len(data))
        self._buf[offset + 4:offset + 4 + len(data)] = data
        return self

    def raw(self, data: bytes) -> "Writer":
        """Unframed bytes (caller-defined fixed-width fields)."""
        offset = self._reserve(len(data))
        self._buf[offset:offset + len(data)] = data
        return self

    def modulator(self, value: bytes) -> "Writer":
        """A raw modulator of the deployment's fixed width."""
        width = self.ctx.modulator_width
        if len(value) != width:
            raise ProtocolError(
                f"modulator width {len(value)} != {width}")
        offset = self._reserve(width)
        self._buf[offset:offset + width] = value
        return self

    def opt_modulator(self, value: Optional[bytes]) -> "Writer":
        self.u8(1 if value is not None else 0)
        if value is not None:
            self.modulator(value)
        return self

    def modulator_list(self, values: Sequence[bytes]) -> "Writer":
        width = self.ctx.modulator_width
        for value in values:
            if len(value) != width:
                raise ProtocolError(
                    f"modulator width {len(value)} != {width}")
        self.u32(len(values))
        offset = self._reserve(width * len(values))
        for value in values:
            self._buf[offset:offset + width] = value
            offset += width
        return self

    def u64_list(self, values: Sequence[int]) -> "Writer":
        self.u32(len(values))
        offset = self._reserve(8 * len(values))
        struct.pack_into(f">{len(values)}Q", self._buf, offset, *values)
        return self

    def blob_list(self, values: Sequence[bytes]) -> "Writer":
        self.u32(len(values))
        for value in values:
            self.blob(value)
        return self

    def text(self, value: str) -> "Writer":
        return self.blob(value.encode("utf-8"))

    def getvalue(self) -> bytes:
        return bytes(memoryview(self._buf)[:self._pos])


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
