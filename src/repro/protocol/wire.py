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

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


@dataclass(frozen=True)
class WireContext:
    """Per-deployment constants the codec needs (modulator width)."""

    modulator_width: int


class Writer:
    """Appends encoded fields to one ``bytearray``.

    Scalar fields are appended with ``+=`` and :meth:`getvalue` copies
    the buffer out once.  :meth:`modulator_list` checks every width in
    one pass and appends one ``b"".join``.  :meth:`blob_list` grows the
    buffer once to the list's exact encoded size and fills it in place:
    when every blob has one length (a file's ciphertexts usually do) the
    shared prefix is joined with runs of blobs, otherwise one local loop
    writes each prefix and blob.  Three designs were refused on the
    durable server's peak RSS: one join of interleaved length prefixes
    keeps the part list, the joined copy and the buffer alive at once;
    two ``+=`` per item reallocate the buffer a dozen times per
    whole-file reply, which fragments the heap; and one join of the
    whole equal-length list adds a second reply-sized copy.
    """

    __slots__ = ("ctx", "_buf")

    def __init__(self, ctx: WireContext) -> None:
        self.ctx = ctx
        self._buf = bytearray()

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
        pos = len(buf)
        # Grow once to the list's exact encoded size, then fill in place.
        buf += bytes(4 + 4 * len(values) + sum(map(len, values)))
        lengths = set(map(len, values))
        with memoryview(buf) as view:
            _U32.pack_into(view, pos, len(values))
            pos += 4
            if len(lengths) == 1:
                # Equal lengths share one prefix, so a run of items is
                # that prefix joined with them.  Runs stay near 64 KB: a
                # whole-list join would add a reply-sized copy.
                length = lengths.pop()
                prefix = _U32.pack(length)
                step = max(1, 65536 // (4 + length))
                for start in range(0, len(values), step):
                    run = prefix + prefix.join(values[start:start + step])
                    view[pos:pos + len(run)] = run
                    pos += len(run)
                return self
            pack_length = _U32.pack_into
            for value in values:
                pack_length(view, pos, len(value))
                pos += 4
                end = pos + len(value)
                view[pos:end] = value
                pos = end
        return self

    def text(self, value: str) -> "Writer":
        return self.blob(value.encode("utf-8"))

    def getvalue(self) -> bytes:
        return bytes(self._buf)


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
